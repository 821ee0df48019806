package main

import (
	"fmt"
	"sort"
	"time"

	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/sim"
)

// recordCap bounds how many accesses, fills and DRAM requests one job
// records for the replays.
const recordCap = 1 << 18

// tracedJob is one simulation job of the traced pass: a single-core run, a
// shared run of a mix, or an alone run normalizing a mix.
type tracedJob struct {
	task  task      // the task whose spec the job runs
	bench string    // the benchmark of a single or alone run; "" for a shared run
	cores int       // the machine width the run is sized for
	rec   *recorder // non-nil on the jobs whose inputs the replays use

	single sim.Result
	multi  sim.MultiResult
	jt     jobTrace
	when   span
	err    error
}

// tracedJobs lists the traced pass's jobs in submission order: the
// untraced pass's jobs, with each mix expanded into its shared run and the
// alone runs not already listed. Jobs of the proposal config record their
// inputs for the replays (one per benchmark).
func (b *bench) tracedJobs(order []int) []*tracedJob {
	prop := b.w.configs[len(b.w.configs)-1]
	var out []*tracedJob
	alone := map[string]bool{}
	for _, i := range order {
		t := b.tasks[i]
		if t.mix == nil {
			j := &tracedJob{task: t, bench: t.bench, cores: 1}
			if t.config == prop {
				j.rec = &recorder{}
			}
			out = append(out, j)
			continue
		}
		out = append(out, &tracedJob{task: t, cores: len(t.mix)})
		for _, n := range t.mix {
			if k := n + "/" + t.config; !alone[k] {
				alone[k] = true
				j := &tracedJob{task: t, bench: n, cores: len(t.mix)}
				if t.config == prop {
					j.rec = &recorder{}
				}
				out = append(out, j)
			}
		}
	}
	return out
}

func (j *tracedJob) label() string {
	if j.bench == "" || j.task.mix == nil {
		return j.task.label()
	}
	return j.bench + " alone in " + j.task.label()
}

// isAlone reports whether the job normalizes a mix.
func (j *tracedJob) isAlone() bool { return j.bench != "" && j.task.mix != nil }

// runTraced runs the traced pass on the scheduler and returns its jobs and
// its wall time.
func (b *bench) runTraced(su *setupResult) ([]*tracedJob, time.Duration) {
	tjobs := b.tracedJobs(b.submitOrder(su))
	start := time.Now()
	inOrder(b.workers, len(tjobs), func(i int) {
		j := tjobs[i]
		t0 := time.Since(start)
		_, err := b.sched.Do("traced "+j.label(), func() (any, error) {
			sp, err := j.task.spec(su.hints)
			if err != nil {
				return nil, err
			}
			if j.bench == "" {
				j.multi, err = runShared(&j.jt, j.task.mix, b.ref, sp)
			} else {
				j.single, err = runAlone(&j.jt, j.rec, j.bench, b.ref, sp, j.cores)
			}
			return nil, err
		})
		j.err = err
		j.when = span{t0, time.Since(start)}
	})
	return tjobs, time.Since(start)
}

// tracedOutcomes assembles the traced pass's results in task order, as the
// untraced pass reported them.
func (b *bench) tracedOutcomes(tjobs []*tracedJob) []outcome {
	aloneIPC := map[string]float64{}
	byTask := map[string]*tracedJob{}
	for _, j := range tjobs {
		if j.isAlone() {
			aloneIPC[j.bench+"/"+j.task.config] = j.single.IPC
		} else {
			byTask[j.task.label()] = j
		}
	}
	outs := make([]outcome, len(b.tasks))
	for i, t := range b.tasks {
		j := byTask[t.label()]
		if t.mix == nil {
			r := j.single
			outs[i].Single = &r
			continue
		}
		mr := j.multi
		alone := make([]float64, len(t.mix))
		for c, n := range t.mix {
			alone[c] = aloneIPC[n+"/"+t.config]
		}
		mr.Normalize(alone)
		outs[i].Multi = &mr
	}
	return outs
}

// traceLayers runs the traced pass and the replays and returns the
// per-layer metrics: host timings, and counts that a fixed seed fixes. The
// traced pass must reproduce the untraced pass's results exactly.
func (b *bench) traceLayers(su *setupResult, sw *sweepResult, attempted, failed int64) (timings, counts map[string]float64, err error) {
	tjobs, wall := b.runTraced(su)
	for _, j := range tjobs {
		if j.err != nil {
			return nil, nil, fmt.Errorf("traced job %s: %w", j.label(), j.err)
		}
	}
	if d := digest(b.tracedOutcomes(tjobs)); d != digest(sw.outs) {
		return nil, nil, fmt.Errorf("traced pass results (digest %s) differ from the untraced pass (%s)", d, digest(sw.outs))
	}

	m := map[string]float64{
		"workload.build_s":    float64(su.buildNs) / 1e9,
		"profiling.collect_s": float64(su.profileNs) / 1e9,
		"trace.overhead_frac": wall.Seconds()/sw.wall.Seconds() - 1,
		"trace.timer_ns":      timerNs(),
	}
	c := map[string]float64{
		"workload.trace_mb": float64(su.traceBytes) / (1 << 20),
		"jobs.run":          float64(attempted),
		"jobs.failed":       float64(failed),
	}
	util, tail := schedule(tjobs, wall, b.workers)
	m["jobs.worker_util"], m["jobs.tail_s"] = util, tail

	var spans [numLayers]spanStats
	var ops int64
	var dc dramCounts
	var epochs, runNs, busyNs int64
	var busyMax, busyMean float64
	var results []sim.Result // every simulated core's result
	var cdpResults []sim.Result
	for _, j := range tjobs {
		for l := range spans {
			spans[l].add(j.jt.t.stats[l])
		}
		ops += j.jt.ops
		dc.transfers += j.jt.dram.transfers
		dc.demand += j.jt.dram.demand
		dc.stalls += j.jt.dram.stalls
		rs := []sim.Result{j.single}
		if j.bench == "" {
			rs = j.multi.PerCore
		}
		results = append(results, rs...)
		if j.task.config != cfgStream {
			cdpResults = append(cdpResults, rs...)
		}
		if e := j.jt.engine; e != nil {
			epochs += e.epochs
			runNs += e.runNs
			var sum, max int64
			for _, v := range e.coreBusy {
				sum += v
				busyNs += v
				if v > max {
					max = v
				}
			}
			busyMax += float64(max)
			busyMean += float64(sum) / float64(len(e.coreBusy))
		}
	}

	var st sim.Result // sums over results
	for _, r := range results {
		st.Cycles += r.Cycles
		st.Retired += r.Retired
		st.DemandMisses += r.DemandMisses
		st.Issued[prefetch.SrcStream] += r.Issued[prefetch.SrcStream]
		st.Used[prefetch.SrcStream] += r.Used[prefetch.SrcStream]
		st.Mem.Accesses += r.Mem.Accesses
		st.Mem.L1Hits += r.Mem.L1Hits
		st.Mem.L2DemandMisses += r.Mem.L2DemandMisses
		st.Mem.InFlightMerges += r.Mem.InFlightMerges
		st.Mem.PrefDropQueue += r.Mem.PrefDropQueue
		st.Mem.PrefDropCacheHit += r.Mem.PrefDropCacheHit
		st.Mem.Writebacks += r.Mem.Writebacks
	}
	var cdpIssued, cdpUsed, cdpMisses int64
	for _, r := range cdpResults {
		cdpIssued += r.Issued[prefetch.SrcCDP]
		cdpUsed += r.Used[prefetch.SrcCDP]
		cdpMisses += r.DemandMisses
	}
	streamUsed := st.Used[prefetch.SrcStream]

	c["cpu.ops"] = float64(ops)
	c["cpu.cycles"] = float64(st.Cycles)
	c["cpu.retired"] = float64(st.Retired)
	m["cpu.step_self_ns_per_op"] = ratio(spans[layerStep].selfNs, ops)
	m["memsys.issue_self_ns"] = ratio(spans[layerIssue].selfNs, spans[layerIssue].calls)
	c["memsys.l1_hit_rate"] = ratio(st.Mem.L1Hits, st.Mem.Accesses)
	c["memsys.l2_mpki"] = 1000 * ratio(st.Mem.L2DemandMisses, st.Retired)
	c["memsys.inflight_merges"] = float64(st.Mem.InFlightMerges)
	c["memsys.pref_drop_queue"] = float64(st.Mem.PrefDropQueue)
	c["memsys.pref_drop_cache_hit"] = float64(st.Mem.PrefDropCacheHit)
	c["memsys.writebacks"] = float64(st.Mem.Writebacks)
	m["stream.on_access_ns"] = ratio(spans[layerStreamAccess].selfNs, spans[layerStreamAccess].calls)
	c["stream.issued"] = float64(st.Issued[prefetch.SrcStream])
	c["stream.accuracy"] = ratio(streamUsed, st.Issued[prefetch.SrcStream])
	c["stream.coverage"] = ratio(streamUsed, streamUsed+st.DemandMisses)
	m["cdp.on_fill_self_ns"] = ratio(spans[layerCDPFill].selfNs, spans[layerCDPFill].calls)
	c["cdp.fills_scanned"] = float64(spans[layerCDPFill].calls)
	c["cdp.issued"] = float64(cdpIssued)
	c["cdp.issued_per_fill"] = ratio(cdpIssued, spans[layerCDPFill].calls)
	c["cdp.accuracy"] = ratio(cdpUsed, cdpIssued)
	c["cdp.coverage"] = ratio(cdpUsed, cdpUsed+cdpMisses)
	c["throttle.rounds"] = float64(spans[layerInterval].calls)
	m["throttle.round_ns"] = ratio(spans[layerInterval].totalNs, spans[layerInterval].calls)
	c["dram.transfers"] = float64(dc.transfers)
	c["dram.demand_transfers"] = float64(dc.demand)
	c["dram.stalls"] = float64(dc.stalls)
	// The engine runs only in multi-core mixes; elsewhere its metrics are 0.
	c["engine.epochs"] = float64(epochs)
	m["engine.barrier_frac"] = 0
	m["engine.imbalance"] = 0
	if runNs > 0 {
		m["engine.barrier_frac"] = 1 - float64(busyNs)/float64(runNs)
		m["engine.imbalance"] = busyMax / busyMean
	}

	var recs []*recorder
	for _, j := range tjobs {
		if j.rec != nil {
			recs = append(recs, j.rec)
		}
	}
	for k, v := range replay(b, recs) {
		m[k] = v
	}
	return m, c, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// schedule derives the worker pool's utilization (job host time over
// phase time times workers) and its tail: the time during which fewer than
// workers jobs were running.
func schedule(tjobs []*tracedJob, wall time.Duration, workers int) (util, tailS float64) {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	var busy time.Duration
	for _, j := range tjobs {
		edges = append(edges, edge{j.when.start, 1}, edge{j.when.end, -1})
		busy += j.when.end - j.when.start
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
	var tail, prev time.Duration
	running := 0
	for _, e := range edges {
		if running < workers {
			tail += e.at - prev
		}
		running += e.delta
		prev = e.at
	}
	if running < workers {
		tail += wall - prev
	}
	return busy.Seconds() / (wall.Seconds() * float64(workers)), tail.Seconds()
}

// timerNs calibrates the cost of one span: a begin/end pair around nothing.
func timerNs() float64 {
	const n = 1 << 20
	var t tracer
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(layerStep, t.begin())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
