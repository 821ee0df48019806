package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestReadUnwrittenIsZero(t *testing.T) {
	m := New()
	if got := m.Read32(HeapBase); got != 0 {
		t.Fatalf("Read32 of unwritten = %#x, want 0", got)
	}
	if got := m.Read8(StackBase); got != 0 {
		t.Fatalf("Read8 of unwritten = %#x, want 0", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New()
	m.Write32(HeapBase+4, 0xdeadbeef)
	if got := m.Read32(HeapBase + 4); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, want 0xdeadbeef", got)
	}
	// Little-endian byte order.
	if got := m.Read8(HeapBase + 4); got != 0xef {
		t.Fatalf("low byte = %#x, want 0xef", got)
	}
	if got := m.Read8(HeapBase + 7); got != 0xde {
		t.Fatalf("high byte = %#x, want 0xde", got)
	}
}

func TestWrite32PageStraddle(t *testing.T) {
	m := New()
	addr := HeapBase + pageSize - 2 // straddles two pages
	m.Write32(addr, 0x11223344)
	if got := m.Read32(addr); got != 0x11223344 {
		t.Fatalf("straddling Read32 = %#x, want 0x11223344", got)
	}
}

func TestWrite32ReadBack(t *testing.T) {
	m := New()
	f := func(off uint16, v uint32) bool {
		addr := HeapBase + uint32(off)*4
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadBlock(t *testing.T) {
	m := New()
	base := HeapBase + 128
	for i := uint32(0); i < 16; i++ {
		m.Write32(base+4*i, 0x1000_0000+i)
	}
	var blk [64]byte
	m.ReadBlock(base+20, blk[:]) // unaligned addr must align down
	for i := uint32(0); i < 16; i++ {
		got := uint32(blk[4*i]) | uint32(blk[4*i+1])<<8 | uint32(blk[4*i+2])<<16 | uint32(blk[4*i+3])<<24
		if got != 0x1000_0000+i {
			t.Fatalf("word %d = %#x, want %#x", i, got, 0x1000_0000+i)
		}
	}
}

func TestReadBlockUnwritten(t *testing.T) {
	m := New()
	blk := make([]byte, 64)
	blk[0] = 0xff
	m.ReadBlock(StackBase+1024, blk)
	for i, b := range blk {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestAllocatorConsecutive(t *testing.T) {
	m := New()
	a := NewAllocator(m, 1<<20, 4)
	p1 := a.Alloc(16)
	p2 := a.Alloc(16)
	if p1 != HeapBase {
		t.Fatalf("first alloc = %#x, want %#x", p1, HeapBase)
	}
	if p2 != p1+16 {
		t.Fatalf("allocations not consecutive: %#x then %#x", p1, p2)
	}
}

func TestAllocatorAlignmentAndGap(t *testing.T) {
	m := New()
	a := NewAllocator(m, 1<<20, 8)
	a.SetGap(4)
	p1 := a.Alloc(12)
	p2 := a.Alloc(12)
	if p1%8 != 0 || p2%8 != 0 {
		t.Fatalf("allocations not 8-aligned: %#x %#x", p1, p2)
	}
	if p2 <= p1+12 {
		t.Fatalf("gap not applied: %#x then %#x", p1, p2)
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on heap exhaustion")
		}
	}()
	a := NewAllocator(New(), 32, 4)
	a.Alloc(64)
}

func TestBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two alignment")
		}
	}()
	NewAllocator(New(), 1024, 3)
}

// TestAllocNoWraparound is the boundary regression for the 64-bit bounds
// check: a size that pushes addr+size past 2^32 must panic, not wrap around
// the address space and "succeed" with an aliased allocation (the old
// uint32 comparison let Alloc(0xFFFF_FFF0) through).
func TestAllocNoWraparound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: allocation wraps the 32-bit address space")
		}
	}()
	a := NewAllocator(New(), StackBase-HeapBase, 4)
	a.Alloc(0xFFFF_FFF0)
}

// TestAllocExactFit verifies the boundary itself is usable: a region can be
// filled to the last byte, and the next allocation fails.
func TestAllocExactFit(t *testing.T) {
	a := NewAllocator(New(), 64, 4)
	if got := a.Alloc(64); got != HeapBase {
		t.Fatalf("exact-fit alloc = %#x, want %#x", got, HeapBase)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic after exhausting the region")
		}
	}()
	a.Alloc(1)
}

// TestNewAllocatorCapacityOverrun verifies an oversized heap fails at
// construction with a clear message instead of wrapping limit past 2^32
// (the old HeapBase+capacity could wrap to a tiny limit) or silently
// overlapping the stack region.
func TestNewAllocatorCapacityOverrun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: capacity overruns the stack region")
		}
	}()
	NewAllocator(New(), 0xF000_0000, 4)
}

func TestClone(t *testing.T) {
	m := New()
	m.Write32(HeapBase, 0x11111111)
	m.Write32(StackBase-64, 0x22222222)
	c := m.Clone()
	if got := c.Read32(HeapBase); got != 0x11111111 {
		t.Fatalf("clone Read32 = %#x, want 0x11111111", got)
	}
	c.Write32(HeapBase, 0x33333333)
	if got := m.Read32(HeapBase); got != 0x11111111 {
		t.Fatalf("mutating clone changed master: %#x", got)
	}
	m.Write32(StackBase-64, 0x44444444)
	if got := c.Read32(StackBase - 64); got != 0x22222222 {
		t.Fatalf("mutating master changed clone: %#x", got)
	}
	if c.Footprint() != m.Footprint() {
		t.Fatalf("footprints differ: %d vs %d", c.Footprint(), m.Footprint())
	}
}

// TestPageCacheSeesLateCreation covers the last-page-cache hazard: a read of
// an unwritten page must not cache the miss, or a later write (which creates
// the page) would be invisible to reads through the stale cache entry.
func TestPageCacheSeesLateCreation(t *testing.T) {
	m := New()
	if got := m.Read8(HeapBase); got != 0 {
		t.Fatalf("unwritten read = %#x", got)
	}
	m.Write8(HeapBase, 0xab)
	if got := m.Read8(HeapBase); got != 0xab {
		t.Fatalf("read after write through cached miss = %#x, want 0xab", got)
	}
	// Alternate between two pages to exercise cache replacement.
	m.Write8(GlobalBase, 0xcd)
	if got := m.Read8(HeapBase); got != 0xab {
		t.Fatalf("page switch lost data: %#x", got)
	}
	if got := m.Read8(GlobalBase); got != 0xcd {
		t.Fatalf("page switch lost data: %#x", got)
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Fatalf("empty footprint = %d, want 0", m.Footprint())
	}
	m.Write8(HeapBase, 1)
	m.Write8(HeapBase+pageSize, 1)
	if m.Footprint() != 2*pageSize {
		t.Fatalf("footprint = %d, want %d", m.Footprint(), 2*pageSize)
	}
}

// TestCloneCopyOnWrite pins the copy-on-write contract: a write through the
// master, a clone, or a sibling clone is visible through none of the
// others, whether it lands on a shared page, a page created after cloning,
// or a page installed with SetPageBytes; Pages and Footprint describe each
// memory's own image.
func TestCloneCopyOnWrite(t *testing.T) {
	m := New()
	a0, a1 := HeapBase, HeapBase+pageSize
	m.Write32(a0, 0x1000)
	m.Write32(a1, 0x1001)
	m.Freeze()
	c1, c2 := m.Clone(), m.Clone()

	// The last-page cache must not let a read of a shared page turn into
	// an in-place write of it.
	if got := c1.Read32(a0); got != 0x1000 {
		t.Fatalf("clone reads %#x, want 0x1000", got)
	}
	c1.Write32(a0, 0x2000)
	c2.Write32(a0+4, 0x3000)
	m.Write32(a1, 0x4001)
	c1.Write32(GlobalBase, 0x5000) // a page the master never had
	c2.SetPageBytes(a1>>pageShift, []byte{0x66})

	check := func(name string, mm *Memory, addr, want uint32) {
		t.Helper()
		if got := mm.Read32(addr); got != want {
			t.Errorf("%s: Read32(%#x) = %#x, want %#x", name, addr, got, want)
		}
	}
	check("master", m, a0, 0x1000)
	check("master", m, a0+4, 0)
	check("master", m, a1, 0x4001)
	check("master", m, GlobalBase, 0)
	check("clone 1", c1, a0, 0x2000)
	check("clone 1", c1, a0+4, 0)
	check("clone 1", c1, a1, 0x1001)
	check("clone 1", c1, GlobalBase, 0x5000)
	check("clone 2", c2, a0, 0x1000)
	check("clone 2", c2, a0+4, 0x3000)
	check("clone 2", c2, a1, 0x66)
	check("clone 2", c2, GlobalBase, 0)

	// A clone of a clone shares the first clone's current image, and the
	// first clone stays writable afterwards without affecting it.
	g := c1.Clone()
	c1.Write32(a0, 0x7000)
	check("grandchild", g, a0, 0x2000)
	check("clone 1", c1, a0, 0x7000)

	if got := m.Pages(); len(got) != 2 || got[0] != a0>>pageShift || got[1] != a1>>pageShift {
		t.Errorf("master pages = %v", got)
	}
	if got := c1.Pages(); len(got) != 3 || got[0] != GlobalBase>>pageShift {
		t.Errorf("clone 1 pages = %v, want the global page first of 3", got)
	}
	if m.Footprint() != 2*pageSize || c1.Footprint() != 3*pageSize || c2.Footprint() != 2*pageSize {
		t.Errorf("footprints master %d clone1 %d clone2 %d", m.Footprint(), c1.Footprint(), c2.Footprint())
	}
	if p := c2.PageBytes(a1 >> pageShift); len(p) != pageSize || p[0] != 0x66 || p[1] != 0 {
		t.Errorf("clone 2 PageBytes of the installed page = % x...", p[:4])
	}
	if p := m.PageBytes(a1 >> pageShift); p[0] != 0x01 || p[1] != 0x40 {
		t.Errorf("master PageBytes after clones wrote = % x...", p[:4])
	}
}

// TestConcurrentClonesOfFrozen exercises the concurrency half of the
// contract under -race: goroutines clone one frozen memory and write their
// clones' shared pages at once.
func TestConcurrentClonesOfFrozen(t *testing.T) {
	m := New()
	for i := uint32(0); i < 8; i++ {
		m.Write32(HeapBase+i*pageSize, i)
	}
	m.Freeze()
	var wg sync.WaitGroup
	for w := uint32(1); w <= 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Clone()
			for i := uint32(0); i < 8; i++ {
				addr := HeapBase + i*pageSize
				if got := c.Read32(addr); got != i {
					t.Errorf("clone %d: page %d reads %#x", w, i, got)
				}
				c.Write32(addr, w<<8|i)
				if got := c.Read32(addr); got != w<<8|i {
					t.Errorf("clone %d: page %d reads back %#x", w, i, got)
				}
			}
		}()
	}
	wg.Wait()
	for i := uint32(0); i < 8; i++ {
		if got := m.Read32(HeapBase + i*pageSize); got != i {
			t.Fatalf("master page %d = %#x after clones wrote", i, got)
		}
	}
}

// BenchmarkClone times cloning a frozen 64-page (4 MiB) image, then writing
// one word in each of 8 pages, the pattern a replay with a few hot store
// pages follows.
func BenchmarkClone(b *testing.B) {
	m := New()
	for i := uint32(0); i < 64; i++ {
		m.Write32(HeapBase+i*pageSize, i)
	}
	m.Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		for k := uint32(0); k < 8; k++ {
			c.Write32(HeapBase+k*pageSize, k)
		}
	}
}
