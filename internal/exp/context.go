package exp

import (
	"fmt"
	"runtime"
	"sync"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// Grid holds the shared single-core results for one benchmark: the
// configurations Figures 1, 2, 7, 8, 9 and Tables 1, 6 are all derived from.
type Grid struct {
	Bench string
	// Prof is the train-input pointer-group profile; Hints its hint table.
	Prof  *profiling.Profile
	Hints *core.HintTable

	NoPF  sim.Result // no prefetching
	Base  sim.Result // stream only (the paper's baseline)
	CDP   sim.Result // stream + original CDP
	CDPT  sim.Result // stream + original CDP + coordinated throttling
	ECDP  sim.Result // stream + ECDP
	ECDPT sim.Result // stream + ECDP + coordinated throttling (the proposal)
	Ideal sim.Result // stream + ideal LDS oracle (Figure 1 bottom)
}

// Context caches profiles and grid results across experiments so that a
// full reproduction run simulates each configuration once. Every simulation
// routes through a jobs.Scheduler: panics are contained per job, identical
// concurrent jobs are deduplicated, and — when CacheDir is set — completed
// cells are journaled to a content-addressed store so re-runs only simulate
// invalidated cells and interrupted sweeps resume where they stopped.
type Context struct {
	// Params is the measurement input (Ref by default).
	Params workload.Params
	// TrainParams is the profiling input (Train by default).
	TrainParams workload.Params
	// Parallel bounds concurrent simulations.
	Parallel int
	// TraceDir, when non-empty, enables interval telemetry on every
	// simulation and persists each run's JSONL trace files there (see
	// OBSERVABILITY.md). Write failures are collected; check TraceErr.
	TraceDir string
	// CacheDir, when non-empty, enables the content-addressed result store
	// (see ORCHESTRATION.md).
	CacheDir string
	// VerifyCache re-executes every cache hit and fails the job on a
	// mismatch (determinism check).
	VerifyCache bool
	// Core, when non-nil, selects the core timing model (a registered
	// sim Core component, e.g. "ooo") for every simulation this context
	// runs that does not pin one itself. Nil runs the registry default
	// ("interval"), whose results are byte-identical to pre-seam reports.
	Core *sim.Component
	// Sched, when set before first use, is the scheduler all simulations
	// run on (the job service injects a per-sweep scheduler sharing a
	// global worker pool this way). When nil, a private scheduler is built
	// from Parallel/CacheDir/VerifyCache on first use.
	Sched *jobs.Scheduler

	mu       sync.Mutex
	grids    map[string]*Grid
	once     sync.Once
	jobErrs  []error
	traceErr error
}

// NewContext returns a context using the paper's ref/train inputs.
func NewContext() *Context {
	return &Context{
		Params:      workload.Ref(),
		TrainParams: workload.Train(),
		Parallel:    runtime.NumCPU(),
	}
}

// Jobs returns the scheduler this context runs on, building the default one
// on first use.
func (c *Context) Jobs() *jobs.Scheduler {
	c.once.Do(func() {
		if c.Sched != nil {
			return
		}
		cfg := jobs.Config{Workers: c.Parallel, Verify: c.VerifyCache}
		if c.CacheDir != "" {
			store, err := jobs.Open(c.CacheDir)
			if err != nil {
				c.noteJobErr(fmt.Errorf("opening result cache: %w", err))
			} else {
				cfg.Store = store
			}
		}
		c.Sched = jobs.New(cfg)
	})
	return c.Sched
}

// RunOne executes one simulation as a job, persisting its telemetry when
// TraceDir is set. Failures (invalid spec, unknown benchmark, contained
// worker panic) are returned; trace-write failures are recorded (TraceErr,
// JobErrs) without failing the run.
func (c *Context) RunOne(bench string, sp sim.Spec) (sim.Result, error) {
	if c.TraceDir != "" {
		sp.Trace = true
	}
	if c.Core != nil && sp.Core == nil {
		core := *c.Core
		sp.Core = &core
	}
	r, err := c.Jobs().SingleSpec(bench, c.Params, sp)
	if err != nil {
		return r, err
	}
	if c.TraceDir != "" && r.Trace != nil {
		if werr := WriteTrace(c.TraceDir, r.Trace); werr != nil {
			c.noteTraceErr(fmt.Errorf("writing trace %s/%s: %w", bench, sp.Name, werr))
		}
	}
	return r, nil
}

// run executes one simulation, converting failures into recorded job errors
// (surfaced in report footers and the CLI exit code) instead of panics.
func (c *Context) run(bench string, sp sim.Spec) sim.Result {
	r, err := c.RunOne(bench, sp)
	if err != nil {
		c.noteJobErr(fmt.Errorf("job %s/%s: %w", bench, sp.Name, err))
	}
	return r
}

// RunMix executes one multi-core simulation as jobs (one shared run plus
// cacheable per-benchmark alone runs), persisting per-core telemetry when
// TraceDir is set.
func (c *Context) RunMix(benches []string, sp sim.Spec) (sim.MultiResult, error) {
	if c.TraceDir != "" {
		sp.Trace = true
	}
	if c.Core != nil && sp.Core == nil {
		core := *c.Core
		sp.Core = &core
	}
	r, err := c.Jobs().MultiSpec(benches, c.Params, sp)
	if err != nil {
		return r, err
	}
	if c.TraceDir != "" {
		for i, pc := range r.PerCore {
			if pc.Trace == nil {
				continue
			}
			if werr := WriteTraceAs(c.TraceDir, coreTraceBase(benches, i, pc.Trace), pc.Trace); werr != nil {
				c.noteTraceErr(fmt.Errorf("writing trace %s/%s: %w", mixLabel(benches), sp.Name, werr))
			}
		}
	}
	return r, nil
}

// runMulti is RunMix with failures recorded as job errors.
func (c *Context) runMulti(benches []string, sp sim.Spec) sim.MultiResult {
	r, err := c.RunMix(benches, sp)
	if err != nil {
		c.noteJobErr(fmt.Errorf("job %s/%s: %w", mixLabel(benches), sp.Name, err))
	}
	return r
}

// noteJobErr records one failed job.
func (c *Context) noteJobErr(err error) {
	c.mu.Lock()
	c.jobErrs = append(c.jobErrs, err)
	c.mu.Unlock()
}

// noteTraceErr records a trace-persistence failure both as the legacy
// first-error (TraceErr) and as a job error.
func (c *Context) noteTraceErr(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.traceErr == nil {
		c.traceErr = err
	}
	c.jobErrs = append(c.jobErrs, err)
	c.mu.Unlock()
}

// TraceErr returns the first error hit while persisting traces, if any.
func (c *Context) TraceErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceErr
}

// JobErrs returns every job failure recorded so far, in completion order.
func (c *Context) JobErrs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]error, len(c.jobErrs))
	copy(out, c.jobErrs)
	return out
}

// profile computes (and caches via Grid) the train-input PG profile.
// Failures degrade to an empty profile (no hints) with the error recorded.
func (c *Context) profile(bench string) *profiling.Profile {
	prof, err := c.Jobs().Profile(bench, c.TrainParams)
	if err != nil {
		c.noteJobErr(fmt.Errorf("profiling %s: %w", bench, err))
		return &profiling.Profile{}
	}
	return prof
}

// Grid returns the cached shared results for bench, computing them on first
// use. The seven configurations run concurrently.
func (c *Context) Grid(bench string) *Grid {
	c.mu.Lock()
	if c.grids == nil {
		c.grids = make(map[string]*Grid)
	}
	if g, ok := c.grids[bench]; ok {
		c.mu.Unlock()
		return g
	}
	c.mu.Unlock()

	g := &Grid{Bench: bench}
	g.Prof = c.profile(bench)
	g.Hints = g.Prof.Hints(0)

	var wg sync.WaitGroup
	launch := func(dst *sim.Result, sp sim.Spec) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			*dst = c.run(bench, sp)
		}()
	}
	launch(&g.NoPF, sim.NewSpec("nopf"))
	launch(&g.Base, sim.NewSpec("stream", "stream"))
	launch(&g.CDP, sim.Spec{Name: "stream+cdp", ProfilePGs: true,
		Components: []sim.Component{{Kind: "stream"}, {Kind: "cdp"}}})
	launch(&g.CDPT, sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle"))
	launch(&g.ECDP, sim.Spec{Name: "stream+ecdp", Hints: g.Hints, ProfilePGs: true,
		Components: []sim.Component{{Kind: "stream"}, {Kind: "cdp"}}})
	launch(&g.ECDPT, sim.NewSpec("stream+ecdp+thr", "stream", "cdp", "throttle").WithHints(g.Hints))
	launch(&g.Ideal, sim.Spec{Name: "ideal-lds", IdealLDS: true,
		Components: []sim.Component{{Kind: "stream"}}})
	wg.Wait()

	c.mu.Lock()
	c.grids[bench] = g
	c.mu.Unlock()
	return g
}

// Grids returns grids for all listed benchmarks, computed concurrently.
func (c *Context) Grids(benches []string) []*Grid {
	out := make([]*Grid, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			out[i] = c.Grid(b)
		}(i, b)
	}
	wg.Wait()
	return out
}
