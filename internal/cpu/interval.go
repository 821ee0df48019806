package cpu

import (
	"math/bits"
	"sync"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// Interval is the dependence-graph (interval) timing model of the paper's
// baseline core (Table 5): in-order issue, out-of-order completion,
// in-order retire, total cycles = retire time of the last instruction.
//
// Branch ops are transparent: they consume no issue or retire slots, no
// window space, and no cycles, and they contribute nothing to the retired
// instruction count — a trace with branch ops produces a report
// byte-identical to the same trace without them. Control-flow effects
// (mispredictions, wrong-path traffic) exist only in the speculative model
// (internal/cpu/ooo).
type Interval struct {
	cfg Config
	ms  *memsys.MemSys
	tr  *trace.Trace

	// complete is the completion time per op (producers are memory ops).
	// It comes from completePool and goes back there once the run is Done.
	// A recycled buffer holds a previous run's values, so step writes the
	// entry of every op it passes, branches included, before any later op
	// can read it.
	complete []int64

	// Ring buffers over recent non-branch ops, indexed by dense ordinal
	// (branches are skipped); every indexed op carries ≥1 instruction, so
	// any op within the instruction window is at most Window ordinals back.
	// Their length is a power of two of at least Window+2, indexed with
	// ringMask.
	retireRing []int64 // retire time per op
	cumRing    []int64 // cumulative instruction count through each op
	ringMask   int

	pos        int
	dense      int   // non-branch ordinal of op pos (ring index space)
	windowTail int   // oldest dense ordinal whose slots are still charged to the window
	cumInstr   int64 // instructions up to and including ordinal dense-1
	issueSlots int64 // instruction issue slots consumed
	retireSlot int64 // instruction retire slots consumed
	lastIssue  int64
	lastRetire int64
}

// NewInterval prepares an interval-model replay of tr on ms.
func NewInterval(cfg Config, ms *memsys.MemSys, tr *trace.Trace) *Interval {
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.Width <= 0 {
		cfg.Width = 4
	}
	ring := 1 << bits.Len(uint(cfg.Window+1))
	return &Interval{
		cfg:        cfg,
		ms:         ms,
		tr:         tr,
		complete:   getComplete(len(tr.Ops)),
		retireRing: make([]int64, ring),
		cumRing:    make([]int64, ring),
		ringMask:   ring - 1,
	}
}

// completePool recycles the completion buffers of finished runs. The
// buffer is 8 bytes per op, and a fresh one is first-touched op by op as
// the run writes it; a recycled one is already resident.
var completePool sync.Pool // of *[]int64

// getComplete returns a completion buffer of length n, recycled if the
// pool holds one large enough. Its contents are stale.
func getComplete(n int) []int64 {
	if b, ok := completePool.Get().(*[]int64); ok && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]int64, n)
}

// Done reports whether the whole trace has been replayed.
func (c *Interval) Done() bool { return c.pos >= len(c.tr.Ops) }

// Now returns a lower bound on the core's current cycle (the last issue
// time); used to interleave cores fairly in multi-core simulation.
func (c *Interval) Now() int64 { return c.lastIssue }

// Step replays up to n ops and returns the number replayed.
func (c *Interval) Step(n int) int {
	return c.step(n, 1<<62)
}

// StepUntil replays ops until the core's issue clock reaches horizon (or the
// trace ends) and returns the number replayed. The horizon is checked before
// each op, so a core whose clock is already past it replays nothing, while a
// core behind it always makes progress — the epoch-barrier engine relies on
// both properties. The clock may overshoot the horizon by the last op's
// issue-stall; the engine's barrier ordering does not depend on where within
// an epoch a request was issued.
func (c *Interval) StepUntil(horizon int64) int {
	return c.step(len(c.tr.Ops), horizon)
}

func (c *Interval) step(n int, horizon int64) int {
	ops := c.tr.Ops
	width := int64(c.cfg.Width)
	window := int64(c.cfg.Window)
	mask := c.ringMask
	done := 0
	for done < n && c.pos < len(ops) && c.lastIssue < horizon {
		i := c.pos
		op := &ops[i]
		if op.Kind == trace.Branch {
			// No control flow in this model: the branch is free and
			// invisible (see the type comment). Its completion entry is
			// still written, to the zero a fresh buffer holds, so that a
			// recycled buffer never leaks a previous run's value.
			c.complete[i] = 0
			c.pos++
			done++
			continue
		}
		di := c.dense
		instr := op.Instructions()
		cum := c.cumInstr + instr

		// Issue bandwidth: Width instructions per cycle, in order.
		t := c.issueSlots / width
		if t < c.lastIssue {
			t = c.lastIssue
		}
		// Window occupancy: instructions after the window tail must fit.
		for cum-c.cumRing[c.windowTail&mask] > window && c.windowTail < di {
			if r := c.retireRing[c.windowTail&mask]; r > t {
				t = r
			}
			c.windowTail++
		}
		if adv := t * width; adv > c.issueSlots {
			c.issueSlots = adv
		}
		c.issueSlots += instr
		c.lastIssue = t

		// Execute when the producer's value is ready.
		exec := t
		if op.Dep >= 0 {
			if d := c.complete[op.Dep]; d > exec {
				exec = d
			}
		}

		var comp int64
		switch op.Kind {
		case trace.Compute:
			lat := instr / width
			if lat < 1 {
				lat = 1
			}
			comp = exec + lat
		case trace.Load:
			comp = c.ms.Access(op.Addr, op.PC, true, op.LDS, exec)
		case trace.Store:
			// Apply the store's value in program order so block scans see
			// time-accurate contents, then access for timing side effects.
			c.ms.Mem().Write32(op.Addr, op.Val)
			c.ms.Access(op.Addr, op.PC, false, false, exec)
			comp = exec + 1 // store buffer: retirement does not wait
		}
		c.complete[i] = comp

		// Retire: in order, Width instructions per cycle.
		r := comp
		if c.lastRetire > r {
			r = c.lastRetire
		}
		if lb := c.retireSlot / width; lb > r {
			r = lb
		}
		if adv := r * width; adv > c.retireSlot {
			c.retireSlot = adv
		}
		c.retireSlot += instr
		c.lastRetire = r

		c.retireRing[di&mask] = r
		c.cumRing[di&mask] = cum
		c.cumInstr = cum
		c.dense++

		c.pos++
		done++
	}
	if c.pos >= len(ops) && c.complete != nil {
		b := c.complete[:0]
		completePool.Put(&b)
		c.complete = nil
	}
	return done
}

// Result returns the run summary (valid once Done).
func (c *Interval) Result() Result {
	return Result{Cycles: c.lastRetire, Retired: c.cumInstr}
}
