package trace

import (
	"testing"

	"ldsprefetch/internal/mem"
)

func TestBuilderEmitsAndReads(t *testing.T) {
	m := mem.New()
	m.Write32(mem.HeapBase, 0x1234)
	b := NewBuilder("t", m, 0)
	v, idx := b.Load(100, mem.HeapBase, NoDep, false)
	if v != 0x1234 {
		t.Fatalf("functional load = %#x, want 0x1234", v)
	}
	if idx != 0 {
		t.Fatalf("op index = %d, want 0", idx)
	}
	tr := b.Trace()
	if len(tr.Ops) != 1 || tr.Ops[0].Kind != Load || tr.Ops[0].PC != 100 {
		t.Fatalf("unexpected ops: %+v", tr.Ops)
	}
}

func TestBuilderStoreAppliesImmediately(t *testing.T) {
	m := mem.New()
	b := NewBuilder("t", m, 0)
	b.Store(200, mem.HeapBase+8, 0xabcd, NoDep)
	v, _ := b.Load(201, mem.HeapBase+8, NoDep, false)
	if v != 0xabcd {
		t.Fatalf("load after store = %#x, want 0xabcd", v)
	}
}

func TestBuilderPadding(t *testing.T) {
	b := NewBuilder("t", mem.New(), 3)
	b.Load(1, mem.HeapBase, NoDep, false)
	b.Store(2, mem.HeapBase, 7, NoDep)
	s := Summarize(b.Trace())
	// Each pad is one batched compute op carrying 3 instructions.
	if s.Loads != 1 || s.Stores != 1 || s.Computes != 2 || s.Instructions != 8 {
		t.Fatalf("stats = %+v, want 1 load, 1 store, 2 compute batches, 8 instructions", s)
	}
}

func TestComputeBatching(t *testing.T) {
	b := NewBuilder("t", mem.New(), 0)
	b.Compute(100)
	s := Summarize(b.Trace())
	wantOps := (100 + MaxBatch - 1) / MaxBatch
	if s.Computes != wantOps || s.Instructions != 100 {
		t.Fatalf("stats = %+v, want %d batch ops, 100 instructions", s, wantOps)
	}
	for i := range b.Trace().Ops {
		if n := b.Trace().Ops[i].Instructions(); n < 1 || n > MaxBatch {
			t.Fatalf("op %d carries %d instructions", i, n)
		}
	}
}

func TestDependenceChain(t *testing.T) {
	m := mem.New()
	// Build a two-node list: node0.next = node1.
	n0, n1 := mem.HeapBase, mem.HeapBase+64
	m.Write32(n0, n1)
	b := NewBuilder("t", m, 0)
	ptr, dep := b.Load(1, n0, NoDep, false)
	_, _ = b.Load(2, ptr, dep, true)
	tr := b.Trace()
	if err := Validate(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Ops[1].Dep != 0 {
		t.Fatalf("second load dep = %d, want 0", tr.Ops[1].Dep)
	}
	if tr.Ops[1].Addr != n1 {
		t.Fatalf("second load addr = %#x, want %#x", tr.Ops[1].Addr, n1)
	}
	if !tr.Ops[1].LDS {
		t.Fatal("second load should be LDS-tagged")
	}
}

func TestValidateRejectsForwardDep(t *testing.T) {
	tr := &Trace{Name: "bad", Mem: mem.New(), Ops: []Op{
		{Kind: Load, Addr: 1, PC: 1, Dep: 1},
		{Kind: Load, Addr: 2, PC: 2, Dep: NoDep},
	}}
	if err := Validate(tr); err == nil {
		t.Fatal("expected error for forward dependence")
	}
}

func TestValidateRejectsDepOnStore(t *testing.T) {
	tr := &Trace{Name: "bad", Mem: mem.New(), Ops: []Op{
		{Kind: Store, Addr: 1, PC: 1, Dep: NoDep},
		{Kind: Load, Addr: 2, PC: 2, Dep: 0},
	}}
	if err := Validate(tr); err == nil {
		t.Fatal("expected error for dependence on store")
	}
}

func TestValidateRejectsZeroPC(t *testing.T) {
	tr := &Trace{Name: "bad", Mem: mem.New(), Ops: []Op{
		{Kind: Load, Addr: 1, PC: 0, Dep: NoDep},
	}}
	if err := Validate(tr); err == nil {
		t.Fatal("expected error for zero PC")
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("unknown kind = %q", Kind(9).String())
	}
}

// TestBuilderChunkBoundaries pins chunked emission: across many chunk
// boundaries, every returned op index and every Len equals what a single
// appended slice would give, the assembled ops equal the emitted ones in
// order, and the assembled slice has no spare capacity.
func TestBuilderChunkBoundaries(t *testing.T) {
	m := mem.New()
	b := NewBuilder("chunks", m, 2)
	var want []Op
	pad := func() { want = append(want, Op{Kind: Compute, Dep: NoDep, N: 2}) }
	const n = 3*maxChunkOps + 12345
	for b.Len() < n {
		i := len(want)
		addr := mem.HeapBase + uint32(i%4096)*4
		switch i % 3 {
		case 0:
			_, idx := b.Load(0x100, addr, NoDep, i%2 == 0)
			want = append(want, Op{Kind: Load, Addr: addr, Dep: NoDep, PC: 0x100, LDS: i%2 == 0})
			pad()
			if idx != int32(i) {
				t.Fatalf("Load index %d, want %d", idx, i)
			}
		case 1:
			idx := b.Store(0x104, addr, uint32(i), int32(i-1))
			want = append(want, Op{Kind: Store, Addr: addr, Val: uint32(i), Dep: int32(i - 1), PC: 0x104})
			pad()
			if idx != int32(i) {
				t.Fatalf("Store index %d, want %d", idx, i)
			}
		default:
			idx := b.Branch(0x108, 0x100, i%4 == 0, NoDep)
			want = append(want, Op{Kind: Branch, Addr: 0x100, Dep: NoDep, PC: 0x108, Taken: i%4 == 0})
			if idx != int32(i) {
				t.Fatalf("Branch index %d, want %d", idx, i)
			}
			b.Compute(MaxBatch + 5)
			want = append(want, Op{Kind: Compute, Dep: NoDep, N: MaxBatch}, Op{Kind: Compute, Dep: NoDep, N: 5})
		}
		if b.Len() != len(want) {
			t.Fatalf("Len = %d after %d ops", b.Len(), len(want))
		}
	}
	tr := b.Trace()
	if len(tr.Ops) != len(want) || cap(tr.Ops) != len(tr.Ops) {
		t.Fatalf("len %d cap %d, want both %d", len(tr.Ops), cap(tr.Ops), len(want))
	}
	for i := range want {
		if tr.Ops[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, tr.Ops[i], want[i])
		}
	}
	if b.Len() != len(want) || b.Trace() != tr {
		t.Fatalf("after Trace: Len %d, want %d; Trace must return the same trace", b.Len(), len(want))
	}
	// The stores were rewound: the image is the pre-run (all-zero) one.
	for i := uint32(0); i < 4096; i++ {
		if v := m.Read32(mem.HeapBase + i*4); v != 0 {
			t.Fatalf("word %d = %#x after Trace, want the pre-run 0", i, v)
		}
	}
}
