package main

import (
	"encoding/json"
	"testing"
	"time"

	"ldsprefetch/internal/sim"
)

// TestTracedStackMatchesSim checks the traced stack against internal/sim:
// for every job of every workload's traced pass, at a small input scale, the
// wrapped assembly (with recording on where the traced pass records) must
// produce the same Result as sim.RunSingleSpec, RunAloneSpec or
// RunSharedSpec. If sim's assembly drifts from the mirror, this fails
// instead of the per-layer numbers silently timing a different simulation.
func TestTracedStackMatchesSim(t *testing.T) {
	for _, w := range workloads {
		w := w
		w.scale = 0.05
		t.Run(w.name, func(t *testing.T) {
			b := newBench(w, 1, 2)
			su := b.setup()
			if len(su.errs) > 0 {
				t.Fatal(su.errs)
			}
			for _, j := range b.tracedJobs(b.submitOrder(su)) {
				sp, err := j.task.spec(su.hints)
				if err != nil {
					t.Fatal(err)
				}
				var got, want any
				switch {
				case j.bench == "":
					got, err = runShared(&j.jt, j.task.mix, b.ref, sp)
					if err == nil {
						want, err = sim.RunSharedSpec(j.task.mix, b.ref, sp)
					}
				case j.cores == 1:
					got, err = runAlone(&j.jt, j.rec, j.bench, b.ref, sp, 1)
					if err == nil {
						want, err = sim.RunSingleSpec(j.bench, b.ref, sp)
					}
				default:
					got, err = runAlone(&j.jt, j.rec, j.bench, b.ref, sp, j.cores)
					if err == nil {
						want, err = sim.RunAloneSpec(j.bench, b.ref, sp, j.cores)
					}
				}
				if err != nil {
					t.Fatalf("%s: %v", j.label(), err)
				}
				gb, _ := json.Marshal(got)
				wb, _ := json.Marshal(want)
				if string(gb) != string(wb) {
					t.Errorf("%s: traced stack diverges from sim\n got: %s\nwant: %s", j.label(), gb, wb)
				}
			}
		})
	}
}

func TestTracerSelfTime(t *testing.T) {
	var tr tracer
	outer := tr.begin()
	time.Sleep(2 * time.Millisecond)
	inner := tr.begin()
	time.Sleep(2 * time.Millisecond)
	in := tr.end(layerIssue, inner)
	out := tr.end(layerStep, outer)
	s, i := tr.stats[layerStep], tr.stats[layerIssue]
	if s.calls != 1 || i.calls != 1 || s.totalNs != out || i.totalNs != in {
		t.Fatalf("spans recorded wrongly: step %+v, issue %+v", s, i)
	}
	if s.selfNs != out-in || i.selfNs != in {
		t.Fatalf("self times: step %d want %d, issue %d want %d", s.selfNs, out-in, i.selfNs, in)
	}
}

func TestScheduleTail(t *testing.T) {
	ms := time.Millisecond
	jobs := []*tracedJob{
		{when: span{0, 10 * ms}},
		{when: span{0, 4 * ms}},
		{when: span{4 * ms, 6 * ms}},
	}
	util, tail := schedule(jobs, 12*ms, 2)
	// Two jobs run during [0,6) ms, one during [6,10), none during [10,12).
	if want := (6 * ms).Seconds(); tail < want-1e-9 || tail > want+1e-9 {
		t.Errorf("tail %v s, want %v", tail, want)
	}
	if want := 16.0 / 24; util < want-1e-9 || util > want+1e-9 {
		t.Errorf("util %v, want %v", util, want)
	}
}
