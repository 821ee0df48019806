// Package ooo implements the speculative out-of-order core model behind the
// cpu.Model seam (registered as core kind "ooo" in internal/sim/registry).
//
// The model extends the dependence-graph issue/retire machinery of the
// interval model with control flow: a fetch stage feeds the instruction
// window at FetchWidth instructions per cycle, every trace.Branch op is
// predicted at fetch by a configurable branch predictor (bimodal baseline,
// gshare or a small TAGE variant as options) and resolved when its condition
// producer completes, and a misprediction redirects fetch after a fixed
// penalty. Between resolve and redirect the front end has been fetching down
// the wrong path, so the model injects speculative wrong-path loads into the
// memory system (memsys.AccessWrongPath): they consume MSHRs, request-buffer
// slots, and DRAM bandwidth, and their fills pollute the caches, but the
// core never waits on them — they are squashed at resolve. Wrong-path
// addresses are synthesized deterministically from the program's own state
// (the last pointer value loaded from a linked structure, chased through
// simulated memory, alternating with sequential next-block continuation),
// so wrong-path traffic has the locality structure of the program it shadows
// rather than random noise.
//
// Everything is deterministic: prediction, resolve times, and wrong-path
// addresses are pure functions of the trace and configuration, so two
// identical runs — single-core or through the epoch-barrier engine —
// produce identical reports.
package ooo

import (
	"fmt"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// Options parameterizes the out-of-order core model.
type Options struct {
	// Predictor selects the branch predictor: "bimodal" (default),
	// "gshare", or "tage".
	Predictor string `json:"predictor,omitempty"`
	// HistoryBits is the gshare global-history length (default 12).
	HistoryBits int `json:"history_bits,omitempty"`
	// FetchWidth is the fetch bandwidth in instructions per cycle
	// (default: the core's issue Width).
	FetchWidth int `json:"fetch_width,omitempty"`
	// MispredictPenalty is the fetch-redirect penalty in cycles after a
	// mispredicted branch resolves (default 15: pipeline refill).
	MispredictPenalty int `json:"mispredict_penalty,omitempty"`
	// WrongPathDepth bounds the speculative wrong-path loads injected per
	// misprediction (default 4; 0 uses the default, negative disables
	// wrong-path traffic entirely).
	WrongPathDepth int `json:"wrong_path_depth,omitempty"`
}

// Validate checks option values without building anything.
func (o *Options) Validate() error {
	if _, err := newPredictor(o.Predictor, o.HistoryBits); err != nil {
		return err
	}
	if o.HistoryBits < 0 {
		return fmt.Errorf("history_bits must be >= 0, got %d", o.HistoryBits)
	}
	if o.FetchWidth < 0 {
		return fmt.Errorf("fetch_width must be >= 0, got %d", o.FetchWidth)
	}
	if o.MispredictPenalty < 0 {
		return fmt.Errorf("mispredict_penalty must be >= 0, got %d", o.MispredictPenalty)
	}
	return nil
}

// DefaultMispredictPenalty is the fetch-redirect penalty when Options leaves
// it zero.
const DefaultMispredictPenalty = 15

// DefaultWrongPathDepth is the per-misprediction wrong-path load budget when
// Options leaves it zero.
const DefaultWrongPathDepth = 4

// Core is one out-of-order core replaying a trace against a memory system.
// It implements cpu.Model.
type Core struct {
	cfg  cpu.Config
	ms   *memsys.MemSys
	tr   *trace.Trace
	pred predictor

	fetchWidth int64
	penalty    int64
	wpDepth    int

	complete []int64 // completion time per op

	// Ring buffers over recent ops (every op, branches included, carries
	// ≥1 instruction, so any op in the window is at most Window ops back).
	retireRing []int64
	cumRing    []int64

	pos         int
	windowTail  int
	cumInstr    int64
	issueSlots  int64 // issue-bandwidth slots consumed (Width/cycle)
	fetchSlots  int64 // fetch-bandwidth slots consumed (FetchWidth/cycle)
	retireSlots int64 // retire-bandwidth slots consumed (Width/cycle)
	redirectAt  int64 // no op may issue before this (mispredict refill)
	lastIssue   int64
	lastRetire  int64

	// Wrong-path address synthesis state: the last demand load address and
	// the last pointer value chased out of a linked structure.
	lastAddr uint32
	lastPtr  uint32

	branches    int64
	mispredicts int64
	wrongPath   int64
}

// New prepares an out-of-order replay of tr on ms. opts must have passed
// Validate.
func New(cfg cpu.Config, opts Options, ms *memsys.MemSys, tr *trace.Trace) *Core {
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.Width <= 0 {
		cfg.Width = 4
	}
	pred, err := newPredictor(opts.Predictor, opts.HistoryBits)
	if err != nil {
		// Unreachable when opts passed Validate; fail deterministically
		// rather than limp on with a nil predictor.
		panic(fmt.Sprintf("ooo: %v", err))
	}
	fw := int64(opts.FetchWidth)
	if fw <= 0 {
		fw = int64(cfg.Width)
	}
	pen := int64(opts.MispredictPenalty)
	if pen == 0 {
		pen = DefaultMispredictPenalty
	}
	depth := opts.WrongPathDepth
	if depth == 0 {
		depth = DefaultWrongPathDepth
	}
	if depth < 0 {
		depth = 0
	}
	ring := cfg.Window + 2
	return &Core{
		cfg:        cfg,
		ms:         ms,
		tr:         tr,
		pred:       pred,
		fetchWidth: fw,
		penalty:    pen,
		wpDepth:    depth,
		complete:   make([]int64, len(tr.Ops)),
		retireRing: make([]int64, ring),
		cumRing:    make([]int64, ring),
	}
}

// Done reports whether the whole trace has been replayed.
func (c *Core) Done() bool { return c.pos >= len(c.tr.Ops) }

// Now returns a lower bound on the core's current cycle (the last issue
// time), as the epoch-barrier engine requires.
func (c *Core) Now() int64 { return c.lastIssue }

// Step replays up to n ops and returns the number replayed.
func (c *Core) Step(n int) int {
	return c.step(n, 1<<62)
}

// StepUntil replays ops until the issue clock reaches horizon (or the trace
// ends), under the same contract as the interval model: checked before each
// op, always progresses when behind, may overshoot by the last op's stall.
func (c *Core) StepUntil(horizon int64) int {
	return c.step(len(c.tr.Ops), horizon)
}

func (c *Core) step(n int, horizon int64) int {
	ops := c.tr.Ops
	width := int64(c.cfg.Width)
	window := int64(c.cfg.Window)
	ring := len(c.retireRing)
	done := 0
	for done < n && c.pos < len(ops) && c.lastIssue < horizon {
		i := c.pos
		op := &ops[i]
		instr := op.Instructions()
		cum := c.cumInstr + instr

		// Front end: fetch bandwidth, issue bandwidth, and any pending
		// fetch redirect all gate entry into the window, in order.
		t := c.issueSlots / width
		if ft := c.fetchSlots / c.fetchWidth; ft > t {
			t = ft
		}
		if t < c.lastIssue {
			t = c.lastIssue
		}
		if t < c.redirectAt {
			t = c.redirectAt
		}
		// Window occupancy: instructions after the window tail must fit.
		for cum-c.cumRing[c.windowTail%ring] > window && c.windowTail < i {
			if r := c.retireRing[c.windowTail%ring]; r > t {
				t = r
			}
			c.windowTail++
		}
		if adv := t * width; adv > c.issueSlots {
			c.issueSlots = adv
		}
		c.issueSlots += instr
		if adv := t * c.fetchWidth; adv > c.fetchSlots {
			c.fetchSlots = adv
		}
		c.fetchSlots += instr
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
			c.lastAddr = op.Addr
			if op.LDS {
				// The loaded value of a pointer-chase load is the next
				// pointer — the seed wrong-path fetches chase.
				c.lastPtr = c.ms.Mem().Read32(op.Addr)
			}
		case trace.Store:
			c.ms.Mem().Write32(op.Addr, op.Val)
			c.ms.Access(op.Addr, op.PC, false, false, exec)
			comp = exec + 1 // store buffer: retirement does not wait
		case trace.Branch:
			// Resolve one cycle after the condition is available.
			comp = exec + 1
			c.branches++
			predicted := c.pred.predict(op.PC)
			c.pred.update(op.PC, op.Taken)
			if predicted != op.Taken {
				c.mispredicts++
				redirect := comp + c.penalty
				if redirect > c.redirectAt {
					c.redirectAt = redirect
				}
				c.injectWrongPath(comp)
			}
		}
		c.complete[i] = comp

		// Retire: in order, Width instructions per cycle.
		r := comp
		if c.lastRetire > r {
			r = c.lastRetire
		}
		if lb := c.retireSlots / width; lb > r {
			r = lb
		}
		if adv := r * width; adv > c.retireSlots {
			c.retireSlots = adv
		}
		c.retireSlots += instr
		c.lastRetire = r

		c.retireRing[i%ring] = r
		c.cumRing[i%ring] = cum
		c.cumInstr = cum

		c.pos++
		done++
	}
	return done
}

// injectWrongPath issues the speculative loads the front end fetched past a
// mispredicted branch, spread over the refill shadow [resolve, resolve +
// penalty]. Addresses alternate between chasing the last linked-structure
// pointer through simulated memory (wrong-path traversal continuation) and
// sequential next-block fetch from the last demand address (wrong-path
// straight-line code), both deterministic functions of program state.
func (c *Core) injectWrongPath(resolve int64) {
	if c.wpDepth == 0 {
		return
	}
	step := c.penalty / int64(c.wpDepth)
	if step < 1 {
		step = 1
	}
	blk := uint32(c.ms.BlockSize())
	chase := c.lastPtr
	seq := c.lastAddr
	for k := 0; k < c.wpDepth; k++ {
		at := resolve + 1 + int64(k)*step
		if k%2 == 0 && chase != 0 {
			c.ms.AccessWrongPath(chase, at)
			c.wrongPath++
			chase = c.ms.Mem().Read32(chase &^ 3)
			continue
		}
		if seq == 0 {
			continue
		}
		seq += blk
		c.ms.AccessWrongPath(seq, at)
		c.wrongPath++
	}
}

// Result returns the run summary (valid once Done).
func (c *Core) Result() cpu.Result {
	return cpu.Result{
		Cycles:      c.lastRetire,
		Retired:     c.cumInstr,
		Branches:    c.branches,
		Mispredicts: c.mispredicts,
		WrongPath:   c.wrongPath,
	}
}
