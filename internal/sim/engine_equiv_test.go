package sim

import (
	"encoding/json"
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/workload"
)

// mrBytes serializes a MultiResult for byte-exact comparison: every field,
// including each per-core Result, participates.
func mrBytes(t *testing.T, r MultiResult) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeprecatedEngineIsNoOp pins Spec.Engine as a deprecated wire field:
// every value Validate accepts runs the same engine and yields a
// byte-identical MultiResult.
func TestDeprecatedEngineIsNoOp(t *testing.T) {
	benches := []string{"mst", "health"}
	var want []byte
	for _, eng := range []string{"", EngineSerial, EngineParallel} {
		t.Run("engine="+eng, func(t *testing.T) {
			sp := NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")
			sp.Engine = eng
			r, err := RunSharedSpec(benches, testParams(), sp)
			if err != nil {
				t.Fatal(err)
			}
			got := mrBytes(t, r)
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Fatalf("engine %q changed the report:\ngot:  %s\nwant: %s", eng, got, want)
			}
		})
	}
}

// TestValidateRejectsUnknownEngine pins the spec-level knob validation.
func TestValidateRejectsUnknownEngine(t *testing.T) {
	sp := NewSpec("stream", "stream")
	sp.Engine = "turbo"
	if err := sp.Validate(); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := RunSharedSpec([]string{"mst", "health"}, testParams(), sp); err == nil {
		t.Fatal("RunSharedSpec accepted unknown engine")
	}
}

// TestEngineExcludedFromCanonical pins that the deprecated Engine field
// never splits a cache identity: every accepted value runs the same engine.
func TestEngineExcludedFromCanonical(t *testing.T) {
	ser := NewSpec("stream", "stream")
	ser.Engine = EngineSerial
	par := ser
	par.Engine = EngineParallel
	a, err := ser.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("canonical encodings differ by engine:\n%s\n%s", a, b)
	}
}

// TestAssemblePlumbsCores pins the fair-share core-count plumbing: a shared
// run's memory systems must know the real machine width even when the DRAM
// request buffer is custom-sized (memsys would otherwise infer the width
// from it — the bug fixed alongside the engine work).
func TestAssemblePlumbsCores(t *testing.T) {
	sp := NewSpec("stream", "stream")
	sp.DRAMCfg = &dram.Config{Banks: 8, CtrlCycles: 50, BankCycles: 110,
		BusCycles: 40, FillCycles: 250, RequestBuffer: 96, BlockShift: 6}
	ctrl := controllerFor(sp, 2)
	sys, err := assemble("mst", workload.Params{Scale: 0.05, Seed: 1}, sp, ctrl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ms.Config().Cores; got != 2 {
		t.Fatalf("assembled Cores = %d, want 2 (not the request-buffer inference 3)", got)
	}
}
