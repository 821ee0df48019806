package cpu

import (
	"sync"
	"testing"

	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// chaseTrace returns a pointer chase over n nodes spaced stride bytes apart,
// with compute, a store and a branch per node. The branch takes the load as
// its condition, and the next load depends on it (as an unvalidated trace
// may), so the branch's completion entry is read.
func chaseTrace(n int, stride uint32) *trace.Trace {
	m := mem.New()
	for i := 0; i < n-1; i++ {
		m.Write32(mem.HeapBase+uint32(i)*stride, mem.HeapBase+uint32(i+1)*stride)
	}
	b := trace.NewBuilder("chase", m, 0)
	ptr, dep := b.Load(0x100, mem.HeapBase, trace.NoDep, true)
	for i := 1; i < n; i++ {
		b.Compute(3)
		br := b.Branch(0x104, 0x100, i%2 == 0, dep)
		b.Store(0x108, ptr+8, uint32(i), br)
		ptr, dep = b.Load(0x10c, ptr, br, true)
	}
	return b.Trace()
}

// replay runs tr to completion and returns the core and memory results.
func replay(tr *trace.Trace, poison bool) (Result, memsys.Stats) {
	ms := newMS()
	c := NewInterval(DefaultConfig(), ms, tr)
	if poison {
		for i := range c.complete {
			c.complete[i] = 1 << 40
		}
	}
	for !c.Done() {
		c.Step(1 << 20)
	}
	ms.FlushAccounting()
	if c.complete != nil {
		panic("completion buffer not released at Done")
	}
	return c.Result(), ms.Stats()
}

// TestRecycledCompletionBuffer pins that recycling completion buffers is
// invisible: a run gives the same Result and memory statistics with a cold
// buffer pool, with a pool warmed by a longer and different trace, and with
// a buffer whose every entry holds garbage before the run starts.
func TestRecycledCompletionBuffer(t *testing.T) {
	tr := chaseTrace(300, 131072+64)
	completePool = sync.Pool{}
	want, wantStats := replay(tr, false)

	replay(chaseTrace(2000, 4096), false)
	if got, stats := replay(tr, false); got != want || stats != wantStats {
		t.Fatalf("after a warming run: %+v, cold pool %+v", got, want)
	}
	if got, stats := replay(tr, true); got != want || stats != wantStats {
		t.Fatalf("with a garbage-filled buffer: %+v, fresh buffer %+v", got, want)
	}
}
