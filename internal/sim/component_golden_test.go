package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim/registry"
	"ldsprefetch/internal/workload"
)

// updateDigests rewrites testdata/component_digests.txt:
//
//	go test ./internal/sim -run TestComponentDigests -update
//
// Only do that for a change meant to move results, and say why.
var updateDigests = flag.Bool("update", false, "rewrite the component digest golden file")

const (
	digestFile     = "component_digests.txt"
	digestInterval = 256
)

// digestBenches are two pointer-chasing benchmarks on which every component
// issues: mst (read-mostly, CDP rarely useful) and health (store-heavy, so
// dirty victims and writebacks, with deep CDP recursion).
var digestBenches = []string{"mst", "health"}

// digestSpecs returns one spec per registry component and per oracle or
// core-model mode whose results the report goldens in internal/exp do not
// pin to the last digit.
func digestSpecs(t *testing.T, bench string, p workload.Params) []Spec {
	t.Helper()
	g, _ := workload.Get(bench)
	hints := profiling.Collect(g.Build(p), memsys.DefaultConfig(), cpu.DefaultConfig()).Hints(0)

	nopol := NewSpec("nopol", "stream", "cdp")
	nopol.NoPollution = true
	profile := NewSpec("profile-pgs", "stream", "cdp")
	profile.ProfilePGs = true
	ideal := NewSpec("ideal-lds", "stream")
	ideal.IdealLDS = true
	specs := []Spec{
		NewSpec("none"),
		NewSpec("stream", "stream"),
		NewSpec("stream+cdp", "stream", "cdp"),
		NewSpec("stream+ecdp", "stream", "cdp").WithHints(hints),
		NewSpec("stream+cdp+thr", "stream", "cdp", "throttle"),
		NewSpec("stream+markov", "stream", "markov"),
		NewSpec("ghb", "ghb"),
		NewSpec("stream+dbp", "stream", "dbp"),
		NewSpec("stream+cdp+fdp", "stream", "cdp", "fdp"),
		NewSpec("stream+cdp+pab", "stream", "cdp", "pab"),
		NewSpec("stream+cdp+hwfilter", "stream", "cdp", "hwfilter"),
		nopol,
		profile,
		ideal,
		NewSpec("stream+cdp+thr/ooo", "stream", "cdp", "throttle").WithCore("ooo", nil),
		NewSpec("stream+dbp/ooo", "stream", "dbp").WithCore("ooo", nil),
	}
	// Small caches and short feedback intervals, so that victims,
	// writebacks and the throttling policies' decisions all occur many
	// times within the small runs.
	mc := memsys.DefaultConfig()
	mc.L1Size, mc.L2Size = 4<<10, 64<<10
	for i := range specs {
		specs[i].IntervalLen = digestInterval
		specs[i].MemCfg = &mc
	}
	return specs
}

// TestComponentDigests pins the SHA-256 of every single-core sim.Result's
// JSON encoding, per benchmark and spec, so a change meant to be
// behaviour-preserving cannot move any counter of any component — not just
// the ratios the rendered reports print.
func TestComponentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("digest simulation runs are slow")
	}
	p := workload.Params{Scale: 0.1, Seed: 5}
	var got []string
	covered := map[string]bool{}
	for _, bench := range digestBenches {
		for _, sp := range digestSpecs(t, bench, p) {
			for _, c := range sp.Components {
				covered[c.Kind] = true
			}
			if sp.Core != nil {
				covered[sp.Core.Kind] = true
			} else {
				covered[registry.DefaultCoreKind] = true
			}
			r, err := RunSingleSpec(bench, p, sp)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, sp.Name, err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got = append(got, fmt.Sprintf("%s %s %s", bench, sp.Name, hex.EncodeToString(sum[:])))
		}
	}
	for _, kind := range append(registry.Catalog(), registry.Cores()...) {
		if !covered[kind] {
			t.Errorf("registry component %q has no digest spec", kind)
		}
	}

	path := filepath.Join("testdata", digestFile)
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing %s (run with -update to generate): %v", path, err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%d digests, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest drifted:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
