package main

import (
	"fmt"
	"strings"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// Configurations the workloads compare, as sim.Named names. The first of a
// workload's configs is the baseline and the last is the proposal; the gain
// metrics are proposal over baseline.
const (
	cfgStream = "stream"
	cfgCDP    = "cdp"
	cfgECDPT  = "ecdp+throttle"
)

// workloadDef is one benchmark workload: a fixed sweep of simulations, run
// at a fixed input scale from a seed.
type workloadDef struct {
	name    string
	scale   float64
	configs []string
	// benches are run single-core under every config; mixes are run as
	// multi-core mixes (shared run plus alone runs) under every config.
	// Exactly one of the two is set.
	benches []string
	mixes   [][]string
	// mixOrder is the order mixes are submitted in (indices into mixes).
	mixOrder []int
}

// README.md gives the reason each workload is in the benchmark.
var workloads = []workloadDef{
	{
		name:    "lds_sweep",
		scale:   0.15,
		configs: []string{cfgStream, cfgCDP, cfgECDPT},
		benches: workload.PointerIntensiveNames(),
	},
	{
		name:    "stream_sweep",
		scale:   0.5,
		configs: []string{cfgStream, cfgECDPT},
		benches: []string{"libquantum", "gemsfdtd", "h264ref", "lbm"},
	},
	{
		name:    "mix4_shared",
		scale:   0.15,
		configs: []string{cfgStream, cfgECDPT},
		mixes:   exp.FourCoreWorkloads,
		// Mix 4 shares benchmarks with mixes 2 and 3. Submitting it last,
		// with mix 1 between, keeps its alone runs from overlapping
		// theirs, so no run's work depends on in-flight coalescing.
		mixOrder: []int{1, 2, 0, 3},
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// params returns the measurement (ref) and profiling (train) inputs for a
// seed. The train input keeps the repository's ratios to the ref input:
// half the scale and a seed offset of 1008, so seed 1 is the repository's
// ref 1 / train 1009 pairing.
func (w workloadDef) params(seed int64) (ref, train workload.Params) {
	ref = workload.Params{Scale: w.scale, Seed: seed}
	train = workload.Params{
		Scale: w.scale * workload.Train().Scale,
		Seed:  seed + workload.Train().Seed - workload.Ref().Seed,
	}
	return ref, train
}

// setupBenches lists every benchmark the workload builds and profiles, in
// first-use order.
func (w workloadDef) setupBenches() []string {
	if w.mixes == nil {
		return w.benches
	}
	seen := map[string]bool{}
	var out []string
	for _, i := range w.mixOrder {
		for _, b := range w.mixes[i] {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// task is one entry of the simulation phase: a single-core run of bench,
// or a multi-core run of mix, under config.
type task struct {
	config string
	bench  string
	mix    []string
}

// subject names what the task simulates: the benchmark or the mix.
func (t task) subject() string {
	if t.mix != nil {
		return strings.Join(t.mix, "+")
	}
	return t.bench
}

func (t task) label() string { return t.subject() + "/" + t.config }

// tasks lists the simulation phase in submission order.
func (w workloadDef) tasks() []task {
	var out []task
	if w.mixes == nil {
		for _, b := range w.benches {
			for _, c := range w.configs {
				out = append(out, task{config: c, bench: b})
			}
		}
		return out
	}
	for _, i := range w.mixOrder {
		for _, c := range w.configs {
			out = append(out, task{config: c, mix: w.mixes[i]})
		}
	}
	return out
}

// spec builds the task's configuration. hints holds each benchmark's
// profiled hint table; a mix runs with its benchmarks' tables merged, as the
// repository's multi-core experiments do (PCs are disjoint per benchmark).
func (t task) spec(hints map[string]*core.HintTable) (sim.Spec, error) {
	var h *core.HintTable
	if sim.NamedNeedsHints(t.config) {
		if t.mix == nil {
			h = hints[t.bench]
		} else {
			h = core.NewHintTable()
			for _, b := range t.mix {
				for _, pc := range hints[b].PCs() {
					v, _ := hints[b].Lookup(pc)
					h.Set(pc, v)
				}
			}
		}
	}
	return sim.Named(t.config, h)
}
