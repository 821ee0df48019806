package main

// The traced stack: the simulator's single-core, alone and shared runs
// assembled from the same constructors internal/sim uses, with every layer
// boundary that is reached through an interface wrapped in a timing span.
// assemble mirrors sim.assemble for the specs the workloads use; the
// fidelity test checks that the mirror reproduces sim's Results exactly.

import (
	"fmt"
	"time"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/sim/engine"
	"ldsprefetch/internal/stream"
	"ldsprefetch/internal/workload"
)

// Engine parameters of sim.RunSharedSpec (simulator semantics; the fidelity
// test fails if they drift from sim's).
const (
	engineEpochCycles   = 2048
	engineEchoLookahead = 512
)

// layer identifies a timed boundary.
type layer int

const (
	layerStep         layer = iota // cpu.Model.Step / engine.Core.StepUntil
	layerIssue                     // prefetch.Issuer.Issue into memsys
	layerStreamAccess              // stream prefetcher OnAccess
	layerCDPFill                   // CDP OnFill
	layerInterval                  // Feedback.OnInterval chain (throttle rounds)
	numLayers
)

type spanStats struct{ calls, totalNs, selfNs int64 }

func (s *spanStats) add(o spanStats) {
	s.calls += o.calls
	s.totalNs += o.totalNs
	s.selfNs += o.selfNs
}

// tracer accumulates the spans of one job. A span's self time is its
// duration minus the durations of the spans it encloses. Not safe for
// concurrent use: each job owns one.
type tracer struct {
	open  []int64 // child time accumulated by each open span
	stats [numLayers]spanStats
}

// clockBase anchors now: time.Since reads only the monotonic clock, which
// halves a span's timer cost against time.Now.
var clockBase = time.Now()

// now returns monotonic nanoseconds since clockBase.
func now() int64 { return int64(time.Since(clockBase)) }

func (t *tracer) begin() int64 {
	t.open = append(t.open, 0)
	return now()
}

// end closes the innermost open span as layer l and returns its duration.
func (t *tracer) end(l layer, start int64) int64 {
	d := now() - start
	n := len(t.open) - 1
	child := t.open[n]
	t.open = t.open[:n]
	if n > 0 {
		t.open[n-1] += d
	}
	s := &t.stats[l]
	s.calls++
	s.totalNs += d
	s.selfNs += d - child
	return d
}

// accessRec is one demand access as memsys.Access received it.
type accessRec struct {
	now       int64
	addr, pc  uint32
	load, lds bool
}

// recorder captures a run's inputs to the layers the benchmark times by
// replay: the demand accesses, the filled blocks, and the DRAM requests.
type recorder struct {
	accesses []accessRec
	fills    []uint32
	dram     []dram.Request
	cores    int
	bench    string
}

type tracedIssuer struct {
	t  *tracer
	ms *memsys.MemSys
}

func (i tracedIssuer) Issue(r prefetch.Request) {
	s := i.t.begin()
	i.ms.Issue(r)
	i.t.end(layerIssue, s)
}

// tracedStream times the stream prefetcher's OnAccess (its OnFill is a
// no-op and passes through untimed) and feeds the recorder, if any: the
// stream prefetcher is in every spec and observes every access and fill.
type tracedStream struct {
	*stream.Prefetcher
	t   *tracer
	rec *recorder
}

func (p tracedStream) OnAccess(ev memsys.AccessEvent) {
	if p.rec != nil && len(p.rec.accesses) < recordCap {
		p.rec.accesses = append(p.rec.accesses, accessRec{ev.Now, ev.Addr, ev.PC, ev.IsLoad, ev.LDS})
	}
	s := p.t.begin()
	p.Prefetcher.OnAccess(ev)
	p.t.end(layerStreamAccess, s)
}

func (p tracedStream) OnFill(ev memsys.FillEvent) {
	if p.rec != nil && len(p.rec.fills) < recordCap {
		p.rec.fills = append(p.rec.fills, ev.BlockAddr)
	}
	p.Prefetcher.OnFill(ev)
}

// tracedCDP times CDP's OnFill (its OnAccess is a no-op and passes through
// untimed).
type tracedCDP struct {
	*core.CDP
	t *tracer
}

func (p tracedCDP) OnFill(ev memsys.FillEvent) {
	s := p.t.begin()
	p.CDP.OnFill(ev)
	p.t.end(layerCDPFill, s)
}

// epochCounter counts the engine's epochs: every core stepped in one epoch
// gets the same horizon, and horizons strictly increase.
type epochCounter struct {
	last   int64
	epochs int64
}

// tracedCore times a core model's steps.
type tracedCore struct {
	cpu.Model
	t      *tracer
	ops    int64
	busyNs int64
	epochs *epochCounter
}

func (c *tracedCore) Step(n int) int {
	s := c.t.begin()
	k := c.Model.Step(n)
	c.t.end(layerStep, s)
	c.ops += int64(k)
	return k
}

func (c *tracedCore) StepUntil(horizon int64) int {
	if c.epochs != nil && horizon != c.epochs.last {
		c.epochs.last = horizon
		c.epochs.epochs++
	}
	s := c.t.begin()
	k := c.Model.StepUntil(horizon)
	c.busyNs += c.t.end(layerStep, s)
	c.ops += int64(k)
	return k
}

type tracedSystem struct {
	bench string
	ms    *memsys.MemSys
	core  *tracedCore
}

// checkTraceable rejects specs the mirror does not reproduce.
func checkTraceable(sp sim.Spec) error {
	if sp.Core != nil || sp.IdealLDS || sp.NoPollution || sp.ProfilePGs || sp.Trace ||
		sp.IntervalLen != 0 || sp.MemCfg != nil || sp.CPUCfg != nil || sp.DRAMCfg != nil ||
		sp.InitialLevel != nil || sp.Engine == sim.EngineParallel {
		return fmt.Errorf("spec %q: only default-hardware stream/cdp/throttle specs on the serial engine are traceable", sp.Name)
	}
	for _, c := range sp.Components {
		switch c.Kind {
		case "stream", "cdp", "throttle":
		default:
			return fmt.Errorf("spec %q: component %q is not traceable", sp.Name, c.Kind)
		}
		if len(c.Options) != 0 {
			return fmt.Errorf("spec %q: component %q: options are not traceable", sp.Name, c.Kind)
		}
	}
	return sp.Validate()
}

// assemble mirrors sim.assemble: policies first, then each prefetcher in
// spec order (attached, set to the aggressive level, offered to the
// policies), then the policies install, then the interval core.
func assemble(t *tracer, rec *recorder, bench string, p workload.Params, sp sim.Spec, ctrl *dram.Controller, cores int) (*tracedSystem, error) {
	if err := checkTraceable(sp); err != nil {
		return nil, err
	}
	mcfg := memsys.DefaultConfig()
	mcfg.Cores = cores
	tr, err := workload.BuildShared(bench, p)
	if err != nil {
		return nil, err
	}
	ms := memsys.New(mcfg, tr.Mem, ctrl)
	iss := tracedIssuer{t, ms}
	shift := uint(0)
	for 1<<shift != mcfg.BlockSize {
		shift++
	}

	var thr *core.Throttler
	for _, c := range sp.Components {
		if c.Kind == "throttle" {
			thr = core.NewThrottler(core.DefaultThresholds(), ms.Feedback())
		}
	}
	throttled := 0
	for _, c := range sp.Components {
		var src prefetch.Source
		var pf prefetch.Throttleable
		switch c.Kind {
		case "stream":
			s := stream.New(32, shift, iss)
			ms.Attach(tracedStream{s, t, rec})
			src, pf = prefetch.SrcStream, s
		case "cdp":
			cfg := core.DefaultCDPConfig()
			cfg.BlockSize = mcfg.BlockSize
			cfg.Hints = sp.Hints
			cd := core.NewCDP(cfg, iss)
			ms.Attach(tracedCDP{cd, t})
			src, pf = prefetch.SrcCDP, cd
		default:
			continue
		}
		pf.SetLevel(prefetch.Aggressive)
		if thr != nil {
			thr.Add(src, pf)
			throttled++
		}
	}
	if thr != nil && throttled > 0 {
		thr.Install()
	}
	fb := ms.Feedback()
	if round := fb.OnInterval; round != nil {
		fb.OnInterval = func() {
			s := t.begin()
			round()
			t.end(layerInterval, s)
		}
	}
	if rec != nil {
		ctrl.StartLog()
		rec.bench, rec.cores = tr.Name, cores
	}
	model := cpu.NewInterval(cpu.DefaultConfig(), ms, tr)
	return &tracedSystem{bench: tr.Name, ms: ms, core: &tracedCore{Model: model, t: t}}, nil
}

// result mirrors sim's Result extraction.
func (s *tracedSystem) result(setupName string, busTransfers int64) sim.Result {
	cr := s.core.Result()
	fb := s.ms.Feedback()
	r := sim.Result{
		Benchmark:    s.bench,
		Setup:        setupName,
		Cycles:       cr.Cycles,
		Retired:      cr.Retired,
		IPC:          cr.IPC(),
		Branches:     cr.Branches,
		Mispredicts:  cr.Mispredicts,
		BusTransfers: busTransfers,
		DemandMisses: int64(fb.DemandMisses.Raw()),
		Mem:          s.ms.Stats(),
	}
	if cr.Retired > 0 {
		r.BPKI = float64(busTransfers) / (float64(cr.Retired) / 1000)
	}
	for src := prefetch.Source(0); src < prefetch.NumSources; src++ {
		r.Accuracy[src] = fb.RawAccuracy(src)
		r.Coverage[src] = fb.RawCoverage(src)
		r.Issued[src] = int64(fb.Sources[src].Issued.Raw())
		r.Used[src] = int64(fb.Sources[src].Used.Raw())
	}
	return r
}

// dramCounts are a controller's counters at the end of a run.
type dramCounts struct{ transfers, demand, stalls int64 }

func countsOf(c *dram.Controller) dramCounts {
	return dramCounts{c.Transfers, c.DemandTransfers, c.Stalls}
}

// engineStats describe one traced engine.Run.
type engineStats struct {
	epochs   int64
	runNs    int64
	coreBusy []int64
}

// jobTrace is everything one traced job measured.
type jobTrace struct {
	t      tracer
	ops    int64
	dram   dramCounts
	engine *engineStats
}

// runAlone mirrors sim.RunAloneSpec (and, with cores = 1, RunSingleSpec).
func runAlone(jt *jobTrace, rec *recorder, bench string, p workload.Params, sp sim.Spec, cores int) (sim.Result, error) {
	ctrl := dram.NewController(dram.DefaultConfig(cores))
	sys, err := assemble(&jt.t, rec, bench, p, sp, ctrl, cores)
	if err != nil {
		return sim.Result{}, err
	}
	for !sys.core.Done() {
		sys.core.Step(1 << 16)
	}
	sys.ms.FlushAccounting()
	if rec != nil {
		log := ctrl.Log()
		rec.dram = append([]dram.Request(nil), log[:min(len(log), recordCap)]...)
	}
	jt.ops += sys.core.ops
	jt.dram = countsOf(ctrl)
	return sys.result(sp.Name, ctrl.Transfers), nil
}

// runShared mirrors sim.RunSharedSpec under the serial engine.
func runShared(jt *jobTrace, benches []string, p workload.Params, sp sim.Spec) (sim.MultiResult, error) {
	n := len(benches)
	master := dram.NewController(dram.DefaultConfig(n))
	systems := make([]*tracedSystem, n)
	shadows := make([]*dram.Controller, n)
	cores := make([]engine.Core, n)
	ec := &epochCounter{last: -1}
	for i, b := range benches {
		shadow := dram.NewController(master.Config())
		shadow.StartLog()
		sys, err := assemble(&jt.t, nil, b, p, sp, shadow, n)
		if err != nil {
			return sim.MultiResult{}, err
		}
		sys.core.epochs = ec
		systems[i], shadows[i], cores[i] = sys, shadow, sys.core
	}
	start := time.Now()
	engine.Run(cores, shadows, master, engine.Config{
		EpochCycles:   engineEpochCycles,
		EchoLookahead: engineEchoLookahead,
	})
	es := &engineStats{epochs: ec.epochs, runNs: int64(time.Since(start))}

	res := sim.MultiResult{Benchmarks: benches, Setup: sp.Name, BusTransfers: master.Transfers}
	var totalRetired int64
	for _, sys := range systems {
		sys.ms.FlushAccounting()
		r := sys.result(sp.Name, master.Transfers)
		totalRetired += r.Retired
		res.PerCore = append(res.PerCore, r)
		es.coreBusy = append(es.coreBusy, sys.core.busyNs)
		jt.ops += sys.core.ops
	}
	if totalRetired > 0 {
		res.BusPKI = float64(master.Transfers) / (float64(totalRetired) / 1000)
	}
	jt.dram = countsOf(master)
	jt.engine = es
	return res, nil
}
