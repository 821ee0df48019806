package dram

// Epoch-batched request API.
//
// The epoch-barrier execution engine (internal/sim/engine) runs each core of
// a multi-core mix against a private SHADOW controller for one bounded cycle
// epoch, then applies the requests each shadow absorbed to the shared MASTER
// controller at the barrier in a fixed (core-index, program-order)
// arbitration order. Three primitives support that:
//
//   - StartLog marks a controller as a shadow: every Access/Writeback it
//     serves is also appended, with its original arguments, to a request log.
//   - CopyStateFrom rebases a shadow on the master's canonical state at an
//     epoch boundary (busy-until horizons, outstanding requests, counters)
//     and clears its log.
//   - ReplayMergedFrom applies the shadows' logged epochs onto the master in
//     one canonical arbitration order — ascending arrival time, ascending
//     core index on ties, program order within a core — then clears the
//     logs.
//   - SetEcho hands a shadow the OTHER cores' previous-epoch logs, shifted
//     forward by one epoch, so the core's requests contend with a
//     deterministic prediction of the cross-traffic contemporaneous with
//     them.
//
// Replay re-resolves contention against the union of every core's requests;
// the completion times it computes are deliberately discarded — the timing a
// core observes is its shadow's. The master therefore holds the single
// canonical interleaving (and the authoritative Transfers / DemandTransfers /
// Stalls counters) regardless of the order in which the cores stepped
// their epochs.
//
// Two properties of the busy-until contention model dictate the design:
//
// First, horizons trail the clock unless a resource is saturated, so two
// cores' requests interfere only when they land within an occupancy window
// (tens of cycles) of each other. Rebasing alone shows a core strictly PAST
// traffic — horizons that have decayed below its own request times — which
// erases nearly all cross-core interference at any epoch width. The echo
// restores those collisions (same addresses, so bank conflicts too; same
// priority classes, so demand-demand bus contention too) while remaining a
// pure function of barrier-ordered state.
//
// Second, the model is only meaningful when requests are applied in
// (approximately) arrival order: a later-arriving request may ratchet a
// horizon that an earlier-arriving one then maxes against, so applying a
// whole epoch of one core before another core's overlapping epoch
// manufactures queueing that no interleaved execution would produce. Hence
// both the time-merged barrier replay and the lazy echo drain — echoed
// requests enter the shadow's state interleaved with the core's own, each
// applied when the first real request at or after its (shifted) arrival
// time shows up.

// Request is one logged controller request: the arguments of an Access or
// Writeback call, in arrival order.
type Request struct {
	// Addr is the block address.
	Addr uint32
	// At is the cycle the request arrived at the controller.
	At int64
	// Demand distinguishes demand fills from prefetch fills (Access only).
	Demand bool
	// Writeback marks a dirty-eviction transfer instead of a block read.
	Writeback bool
}

// StartLog turns on request logging: every subsequent Access/Writeback is
// recorded for a later ReplayLogFrom. Intended for shadow controllers only;
// the log grows until replayed or cleared by CopyStateFrom.
func (c *Controller) StartLog() { c.logging = true }

// Log returns the requests absorbed since the last replay or rebase, in
// arrival order. The slice aliases internal storage; do not retain across
// further controller calls.
func (c *Controller) Log() []Request { return c.log }

// CopyStateFrom rebases c on src's state: per-bank and bus busy-until
// horizons, the outstanding-request heap, and the transfer/stall counters.
// c's request log and any undrained echo are cleared (its logging mode is
// kept). The two controllers must share a configuration; c keeps its own.
func (c *Controller) CopyStateFrom(src *Controller) {
	copy(c.bankFree, src.bankFree)
	copy(c.bankFreeDem, src.bankFreeDem)
	c.busFree = src.busFree
	c.busFreeDem = src.busFreeDem
	c.pending = append(c.pending[:0], src.pending...)
	c.Transfers = src.Transfers
	c.DemandTransfers = src.DemandTransfers
	c.Stalls = src.Stalls
	c.log = c.log[:0]
	c.echo, c.echoPos, c.echoShift = nil, c.echoPos[:0], 0
}

// ReplayLogFrom applies every request src logged, in order, through c's
// ordinary Access/Writeback paths (re-resolving admission, bank, and bus
// contention against c's state), then clears src's log. Completion times are
// discarded — see the package comment on epoch batching.
func (c *Controller) ReplayLogFrom(src *Controller) {
	for _, r := range src.log {
		if r.Writeback {
			c.Writeback(r.Addr, r.At)
		} else {
			c.Access(r.Addr, r.At, r.Demand)
		}
	}
	src.log = src.log[:0]
}

// ReplayMergedFrom applies every request the srcs logged onto c in the
// canonical arbitration order — ascending arrival time, with ties broken by
// position in srcs (ascending core index) and program order within a source
// — then clears all the logs. This is the barrier's one commit point: merged
// order keeps the busy-until horizons meaningful (see the package comment),
// and its determinism needs only that each src's log is deterministic.
func (c *Controller) ReplayMergedFrom(srcs []*Controller) {
	pos := make([]int, len(srcs))
	for {
		best := -1
		var bestAt int64
		for i, src := range srcs {
			if pos[i] >= len(src.log) {
				continue
			}
			if at := src.log[pos[i]].At; best == -1 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best == -1 {
			break
		}
		r := srcs[best].log[pos[best]]
		pos[best]++
		if r.Writeback {
			c.Writeback(r.Addr, r.At)
		} else {
			c.Access(r.Addr, r.At, r.Demand)
		}
	}
	for _, src := range srcs {
		src.log = src.log[:0]
	}
}

// SetEcho hands a shadow the other cores' previous-epoch request logs
// (echoes[k] in ascending core order, excluding the shadow's own core), each
// arrival time to be shifted forward by shift cycles. The echoed requests
// occupy banks and the bus exactly as real ones do; they do not occupy the
// request buffer (the pending heap copied from the master already carries
// the other cores' real in-flight tail), are not logged (they must not
// replay onto the master — the real requests already did), and are not
// counted (Transfers/Stalls stay attributable to real traffic). They are not
// applied here: drainEcho folds each one in when the first real request at
// or after its shifted arrival time is served, so echo and real traffic
// interleave in arrival order. The echo slices are read, never written; they
// may be shared across shadows. c holds echoes only until the next
// CopyStateFrom, so the caller may reuse echoes once c is served no more
// requests before that rebase.
// lookahead bounds how far ahead of a real request's arrival the echo is
// drained. A real shared controller resolves near-simultaneous requests
// bidirectionally — each of two requests a few cycles apart sees the other's
// occupancy — so draining only the echo's past (lookahead 0) halves every
// collision window and undermodels interference; draining the whole epoch up
// front manufactures queueing behind traffic that is minutes of occupancy
// away. The lookahead is the collision window half-width: cross-traffic
// within it is treated as concurrent. It is simulator semantics (golden
// tests pin it).
func (c *Controller) SetEcho(echoes [][]Request, shift, lookahead int64) {
	c.echo = echoes
	c.echoPos = c.echoPos[:0]
	for range echoes {
		c.echoPos = append(c.echoPos, 0)
	}
	c.echoShift = shift
	c.echoLook = lookahead
}

// drainEcho applies every echoed request with shifted arrival time <=
// t+echoLook, in ascending time order (ties: ascending queue index, then log
// order). Every timed entry point (Access, Writeback, Congested,
// PrefetchBacklog) drains first, so echoed cross-traffic is visible to
// horizon and backlog decisions exactly as concurrent real traffic would be.
func (c *Controller) drainEcho(t int64) {
	t += c.echoLook
	for {
		best := -1
		var bestAt int64
		for i, q := range c.echo {
			if c.echoPos[i] >= len(q) {
				continue
			}
			at := q[c.echoPos[i]].At + c.echoShift
			if at > t {
				continue
			}
			if best == -1 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best == -1 {
			return
		}
		r := c.echo[best][c.echoPos[best]]
		c.echoPos[best]++
		if r.Writeback {
			c.writeback(r.Addr, r.At+c.echoShift, false)
		} else {
			c.access(r.Addr, r.At+c.echoShift, r.Demand, false)
		}
	}
}
