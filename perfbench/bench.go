package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
	"unsafe"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
)

// bench is one workload run: a scheduler with Workers slots and the
// workload's inputs.
type bench struct {
	w          workloadDef
	ref, train workload.Params
	workers    int
	sched      *jobs.Scheduler
	tasks      []task // in report order
}

func newBench(w workloadDef, seed int64, workers int) *bench {
	ref, train := w.params(seed)
	return &bench{
		w: w, ref: ref, train: train, workers: workers,
		sched: jobs.New(jobs.Config{Workers: workers}),
		tasks: w.tasks(),
	}
}

// inOrder runs fn(0..n-1) on workers goroutines that take indices in
// order. When each call submits one job, no more submitters than scheduler
// slots means a job never waits for a slot, so the time a call takes is the
// job's host time.
func inOrder(workers, n int, fn func(i int)) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// span is a job's host-time interval, relative to its phase's start.
type span struct{ start, end time.Duration }

// setupResult is the output of the set-up phase.
type setupResult struct {
	hints  map[string]*core.HintTable
	memops map[string]int64 // demand accesses (loads + stores) per ref trace
	// Summed host times of the build and profiling jobs, and the size of
	// every built trace, for the traced run's layer metrics.
	buildNs, profileNs int64
	traceBytes         int64
	errs               []error
}

// setup builds every ref and train trace, then profiles every benchmark on
// its train input, all as scheduler jobs. It is everything before the first
// simulation job.
func (b *bench) setup() *setupResult {
	type item struct {
		bench   string
		p       workload.Params
		profile bool
	}
	benches := b.w.setupBenches()
	var items []item
	for _, n := range benches {
		items = append(items, item{n, b.ref, false}, item{n, b.train, false})
	}
	for _, n := range benches {
		items = append(items, item{n, b.train, true})
	}
	var (
		durs  = make([]int64, len(items))
		errs  = make([]error, len(items))
		hints = make([]*core.HintTable, len(items))
		ops   = make([][]trace.Op, len(items))
		bytes = make([]int64, len(items))
	)
	inOrder(b.workers, len(items), func(i int) {
		it := items[i]
		start := time.Now()
		if it.profile {
			prof, err := b.sched.Profile(it.bench, it.p)
			if err == nil {
				hints[i] = prof.Hints(0)
			}
			errs[i] = err
		} else {
			v, err := b.sched.Do("build "+it.bench, func() (any, error) {
				return workload.BuildShared(it.bench, it.p)
			})
			if err == nil {
				tr := v.(*trace.Trace)
				ops[i] = tr.Ops
				bytes[i] = int64(len(tr.Ops))*int64(unsafe.Sizeof(trace.Op{})) + int64(tr.Mem.Footprint())
			}
			errs[i] = err
		}
		durs[i] = int64(time.Since(start))
	})

	su := &setupResult{hints: map[string]*core.HintTable{}, memops: map[string]int64{}}
	for i, it := range items {
		if errs[i] != nil {
			su.errs = append(su.errs, fmt.Errorf("setup %s: %w", it.bench, errs[i]))
			continue
		}
		switch {
		case it.profile:
			su.hints[it.bench] = hints[i]
			su.profileNs += durs[i]
		default:
			su.buildNs += durs[i]
			su.traceBytes += bytes[i]
			if it.p == b.ref {
				su.memops[it.bench] = memOps(ops[i])
			}
		}
	}
	return su
}

func memOps(ops []trace.Op) int64 {
	var n int64
	for i := range ops {
		if k := ops[i].Kind; k == trace.Load || k == trace.Store {
			n++
		}
	}
	return n
}

// outcome is the result of one task.
type outcome struct {
	Single *sim.Result      `json:"single,omitempty"`
	Multi  *sim.MultiResult `json:"multi,omitempty"`
}

// sweepResult is the output of the simulation phase.
type sweepResult struct {
	outs     []outcome
	errs     []error
	accesses int64 // demand accesses simulated by the jobs that executed
	wall     time.Duration
}

// submitOrder returns the order the simulation phase submits the tasks in:
// single-core tasks longest first, by the number of memory ops in their
// trace, so the phase does not end on one long job with the other workers
// idle; mixes in task order (see workloadDef.mixOrder).
func (b *bench) submitOrder(su *setupResult) []int {
	order := make([]int, len(b.tasks))
	for i := range order {
		order[i] = i
	}
	if b.w.mixes == nil {
		sort.SliceStable(order, func(x, y int) bool {
			return su.memops[b.tasks[order[x]].bench] > su.memops[b.tasks[order[y]].bench]
		})
	}
	return order
}

// simulate runs the workload's tasks through the scheduler, untraced.
func (b *bench) simulate(su *setupResult) *sweepResult {
	sw := &sweepResult{outs: make([]outcome, len(b.tasks))}
	if len(su.errs) > 0 {
		return sw
	}
	errs := make([]error, len(b.tasks))
	recBase := len(b.sched.Records())
	order := b.submitOrder(su)
	start := time.Now()
	inOrder(b.workers, len(order), func(k int) {
		i := order[k]
		t := b.tasks[i]
		sp, err := t.spec(su.hints)
		if err != nil {
			errs[i] = err
			return
		}
		if t.mix == nil {
			r, err := b.sched.SingleSpec(t.bench, b.ref, sp)
			sw.outs[i].Single, errs[i] = &r, err
		} else {
			r, err := b.sched.MultiSpec(t.mix, b.ref, sp)
			sw.outs[i].Multi, errs[i] = &r, err
		}
	})
	sw.wall = time.Since(start)
	for i, err := range errs {
		if err != nil {
			sw.errs = append(sw.errs, fmt.Errorf("job %s: %w", b.tasks[i].label(), err))
		}
	}
	// Count the work that executed: a coalesced duplicate simulated nothing.
	for _, rec := range b.sched.Records()[recBase:] {
		if rec.Provenance != "computed" {
			continue
		}
		for _, n := range rec.Benchmarks {
			sw.accesses += su.memops[n]
		}
	}
	return sw
}

// checkResult checks one Result for internal consistency.
func checkResult(r sim.Result, memops int64) error {
	if r.Mem.Accesses <= 0 || r.Mem.Accesses != memops {
		return fmt.Errorf("%d demand accesses, the trace has %d memory ops", r.Mem.Accesses, memops)
	}
	if r.Cycles <= 0 || r.IPC != float64(r.Retired)/float64(r.Cycles) {
		return fmt.Errorf("IPC %v is not retired/cycles = %d/%d", r.IPC, r.Retired, r.Cycles)
	}
	if r.BPKI != float64(r.BusTransfers)/(float64(r.Retired)/1000) {
		return fmt.Errorf("BPKI %v is not transfers per kilo-instruction", r.BPKI)
	}
	for src := prefetch.Source(0); src < prefetch.NumSources; src++ {
		if r.Used[src] > r.Issued[src] {
			return fmt.Errorf("%s used %d of %d issued prefetches", src, r.Used[src], r.Issued[src])
		}
	}
	return nil
}

// checkOutcomes checks every task's results.
func checkOutcomes(tasks []task, outs []outcome, memops map[string]int64) []string {
	var errs []string
	for i, t := range tasks {
		o := outs[i]
		if o.Single != nil {
			if err := checkResult(*o.Single, memops[t.bench]); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", t.label(), err))
			}
			continue
		}
		if len(o.Multi.PerCore) != len(t.mix) || len(o.Multi.AloneIPC) != len(t.mix) || o.Multi.WeightedSpeedup <= 0 {
			errs = append(errs, fmt.Sprintf("%s: incomplete multi-core result", t.label()))
			continue
		}
		for c, r := range o.Multi.PerCore {
			if err := checkResult(r, memops[t.mix[c]]); err != nil {
				errs = append(errs, fmt.Sprintf("%s core %d: %v", t.label(), c, err))
			}
		}
	}
	return errs
}

// digest hashes every simulated result, in task order.
func digest(outs []outcome) string {
	b, err := json.Marshal(outs)
	if err != nil {
		panic(err) // Results hold only numbers and strings
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// gains returns the geometric-mean ratios of the proposal (the last config)
// over the baseline (the first) for IPC and BPKI; on mixes, for weighted
// speedup and bus accesses per kilo-instruction.
func (w workloadDef) gains(tasks []task, outs []outcome) (ipc, bpki float64) {
	base, prop := w.configs[0], w.configs[len(w.configs)-1]
	type pair struct{ ipc, bpki float64 }
	var subjects []string
	at := map[string]map[string]pair{}
	for i, t := range tasks {
		k := t.subject()
		if at[k] == nil {
			at[k] = map[string]pair{}
			subjects = append(subjects, k)
		}
		if o := outs[i]; o.Single != nil {
			at[k][t.config] = pair{o.Single.IPC, o.Single.BPKI}
		} else {
			at[k][t.config] = pair{o.Multi.WeightedSpeedup, o.Multi.BusPKI}
		}
	}
	var li, lb float64
	for _, k := range subjects {
		p := at[k]
		li += math.Log(p[prop].ipc / p[base].ipc)
		lb += math.Log(p[prop].bpki / p[base].bpki)
	}
	n := float64(len(subjects))
	return math.Exp(li / n), math.Exp(lb / n)
}
