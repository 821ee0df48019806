package exp

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The golden determinism guard: rendered reports for fig1 and one dual-core
// mix are pinned byte-for-byte in testdata/. Any hot-path optimization must
// keep these identical — if a change is intentionally behavior-altering,
// regenerate with
//
//	go test ./internal/exp -run TestGolden -update
//
// and justify the diff in the PR. Unlike the schema tests in trace_test.go
// (which pin keys, not values), these pin every simulated number that reaches
// a report, so they catch reordered floating-point folds, altered eviction
// ordering, and any other silent semantic drift.
var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// goldenCtx is shared across golden tests so the single-core grid is
// simulated once; the mix test only adds the shared/alone multi-core runs.
var (
	goldenOnce sync.Once
	goldenC    *Context
)

func goldenContext() *Context {
	goldenOnce.Do(func() { goldenC = testCtx() })
	return goldenC
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to generate): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; if intentional, re-run with -update and explain the diff.\n--- got ---\n%s--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	r := Fig1(goldenContext())
	checkGolden(t, "golden_fig1.txt", r.String())
}

func TestGoldenMulticoreMix(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	r := multiReport(goldenContext(), "golden-mix",
		"Golden dual-core mix (determinism guard)",
		[][]string{{"mst", "health"}}, nil)
	checkGolden(t, "golden_multicore.txt", r.String())
}
