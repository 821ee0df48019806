// Package engine executes the cores of a multi-core mix under an
// epoch-barrier discipline that fixes how their requests to one shared DRAM
// controller interleave.
//
// # The determinism problem
//
// The DRAM controller resolves contention through mutable busy-until state:
// the outcome of a request depends on every request applied before it. How
// the cores' requests interleave therefore decides every simulated number
// downstream. Bit-for-bit reproducibility of reports is a repo invariant
// (cache keys, golden tests, resumable sweeps), so that interleaving must be
// a pure function of the cores' own deterministic request streams.
//
// # The epoch-barrier discipline
//
// Time is sliced into epochs of EpochCycles cycles. Within an epoch each
// core runs against a private SHADOW controller rebased on the shared MASTER
// controller's state at the epoch boundary (dram.Controller.CopyStateFrom);
// the shadow logs every request the core issues. At the epoch barrier the
// logs are replayed onto the master in a fixed arbitration order — ascending
// arrival time, ties broken by core index, program order within a core
// (dram.Controller.ReplayMergedFrom) — so the master absorbs exactly one
// canonical request interleaving.
//
// Rebasing alone would show a core only traffic strictly in its past, and
// past traffic barely contends in a busy-until model (horizons decay below
// the core's own request times within tens of cycles). So the rebase also
// arms the shadow with an ECHO of every other core's just-replayed epoch
// log, shifted forward by one epoch (dram.Controller.SetEcho): the shadow
// folds those requests in lazily, up to EchoLookahead cycles ahead of the
// core's own, interleaved in arrival order, so the core collides with a
// deterministic prediction of the cross-traffic contemporaneous with it —
// the previous epoch's stream replayed at the same addresses, priorities,
// and relative times. Echoed requests are neither logged nor counted; only
// real requests reach the master.
//
// What the discipline changes versus a single shared controller: a core
// contends with the other cores' PREVIOUS epoch (their echo) rather than
// with their actual concurrent requests, and the completion times replay
// computes on the master are discarded in favor of the shadow's. The
// prediction error is one epoch of traffic drift; the master still absorbs
// every real request in canonical order and shapes every later epoch.
// EpochCycles trades fidelity against synchronization frequency and
// EchoLookahead sets the collision window; both are simulator semantics, so
// changing either changes results (golden tests pin them).
package engine

import "ldsprefetch/internal/dram"

// Core is one steppable core of a mix. cpu.Model implementations satisfy it; tests may
// substitute fakes.
type Core interface {
	// Done reports whether the core's trace is fully replayed.
	Done() bool
	// Now returns the core's current issue clock.
	Now() int64
	// StepUntil replays ops until the clock reaches the horizon, returning
	// the number replayed. It must replay nothing when already past the
	// horizon and must make progress when behind it.
	StepUntil(horizon int64) int
}

// Config parameterizes an engine run.
type Config struct {
	// EpochCycles is the epoch width: the cycle budget each core may run
	// ahead of the slowest core before the barrier. Larger epochs
	// synchronize less often but delay cross-core contention visibility
	// further; the value is part of the simulator's semantics.
	EpochCycles int64
	// EchoLookahead is the collision half-window: how many cycles ahead of
	// a core's own request the other cores' echoed traffic is folded in
	// (dram.Controller.SetEcho). Like EpochCycles it is simulator
	// semantics, not a performance knob.
	EchoLookahead int64
}

// Run drives the cores to completion. cores[i] issues its memory requests
// through shadows[i] (a logging controller, dram.Controller.StartLog);
// master accumulates the canonical interleaving and the authoritative
// transfer counters. Run returns after the final barrier, when every core is
// done and every logged request has been applied to the master.
func Run(cores []Core, shadows []*dram.Controller, master *dram.Controller, cfg Config) {
	if cfg.EpochCycles <= 0 {
		cfg.EpochCycles = 1
	}
	stepped := make([]bool, len(cores))
	// prevLogs[i] is core i's previous-epoch request log, kept after replay
	// to be echoed into the other cores' shadows at the next rebase.
	// prevHorizon anchors the echo's one-epoch time shift.
	prevLogs := make([][]dram.Request, len(cores))
	var prevHorizon int64
	// others is the echo handed to the stepping core's shadow. A shadow is
	// served only while its own core steps, so one buffer serves every core
	// in turn; the next rebase drops the shadow's reference to it.
	others := make([][]dram.Request, 0, len(cores))
	replay := make([]*dram.Controller, 0, len(cores))
	for {
		// Horizon: the slowest live core's clock plus one epoch. Every live
		// core behind it steps; the slowest always progresses, so the run
		// terminates.
		minNow, live := int64(0), false
		for _, c := range cores {
			if c.Done() {
				continue
			}
			if n := c.Now(); !live || n < minNow {
				minNow, live = n, true
			}
		}
		if !live {
			return
		}
		horizon := minNow + cfg.EpochCycles

		// Rebase on the master, arm the shadow with the other cores'
		// previous-epoch echo, then step. Neither the master nor prevLogs
		// changes until the barrier, so every core of the epoch sees the
		// same shared state.
		shift := horizon - prevHorizon
		for i, c := range cores {
			stepped[i] = !c.Done() && c.Now() < horizon
			if !stepped[i] {
				continue
			}
			shadows[i].CopyStateFrom(master)
			others = others[:0]
			for j := range cores {
				if j != i {
					others = append(others, prevLogs[j])
				}
			}
			shadows[i].SetEcho(others, shift, cfg.EchoLookahead)
			c.StepUntil(horizon)
		}

		// Barrier: apply the epoch's logs to the master in the canonical
		// arbitration order — arrival time, core index, program order.
		// Each log is saved first for the next rebase's echo; a core that
		// did not step contributed no contemporaneous traffic (it is
		// stalled inside one long-latency op), so its echo is empty.
		replay = replay[:0]
		for i := range cores {
			if !stepped[i] {
				prevLogs[i] = prevLogs[i][:0]
				continue
			}
			prevLogs[i] = append(prevLogs[i][:0], shadows[i].Log()...)
			replay = append(replay, shadows[i])
		}
		master.ReplayMergedFrom(replay)
		prevHorizon = horizon
	}
}
