package cache

import (
	"testing"
	"testing/quick"

	"ldsprefetch/internal/prefetch"
)

func TestBlockAddr(t *testing.T) {
	c := New("l2", 1<<20, 8, 64)
	if got := c.BlockAddr(0x1000_0047); got != 0x1000_0040 {
		t.Fatalf("BlockAddr = %#x, want 0x10000040", got)
	}
	if c.BlockShift() != 6 {
		t.Fatalf("BlockShift = %d, want 6", c.BlockShift())
	}
}

func TestInsertLookup(t *testing.T) {
	c := New("l1", 1<<10, 2, 64)
	line, _, evicted := c.Insert(0x1000_0000)
	if evicted {
		t.Fatal("empty cache must not evict")
	}
	line.PrefSrc = prefetch.SrcStream
	got := c.Lookup(0x1000_0004, true) // same block, different byte
	if got == nil || got.PrefSrc != prefetch.SrcStream {
		t.Fatal("lookup after insert failed or lost metadata")
	}
	if c.Lookup(0x2000_0000, false) != nil {
		t.Fatal("lookup of absent block must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("tiny", 2*64, 2, 64) // one set, two ways
	c.Insert(0x1000_0000)
	c.Insert(0x1000_1000)
	c.Lookup(0x1000_0000, true) // make the first block MRU
	_, victim, had := c.Insert(0x1000_2000)
	if !had {
		t.Fatal("full set must evict")
	}
	if victim.Tag != 0x1000_1000>>6 {
		t.Fatalf("evicted tag %#x, want the LRU block 0x10001000", victim.Tag<<6)
	}
	if c.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions)
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := New("tiny", 2*64, 2, 64)
	l1, _, _ := c.Insert(0x1000_0000)
	l1.Dirty = true
	l2, _, had := c.Insert(0x1000_0000)
	if had {
		t.Fatal("reinsert of present block must not evict")
	}
	if !l2.Dirty {
		t.Fatal("reinsert must preserve line state")
	}
	if c.Evictions != 0 {
		t.Fatal("reinsert must not count an eviction")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("l1", 1<<10, 2, 64)
	l, _, _ := c.Insert(0x1000_0000)
	l.Dirty = true
	old, ok := c.Invalidate(0x1000_0000)
	if !ok || !old.Dirty {
		t.Fatal("invalidate must return the dropped line")
	}
	if c.Lookup(0x1000_0000, false) != nil {
		t.Fatal("block still present after invalidate")
	}
	if _, ok := c.Invalidate(0x1000_0000); ok {
		t.Fatal("second invalidate must report absence")
	}
}

func TestSetIndexingDistributes(t *testing.T) {
	c := New("l2", 1<<16, 1, 64) // direct-mapped, 1024 sets
	// Blocks mapping to different sets must coexist.
	for i := uint32(0); i < 1024; i++ {
		c.Insert(0x1000_0000 + i*64)
	}
	if c.Evictions != 0 {
		t.Fatalf("distinct sets evicted %d times, want 0", c.Evictions)
	}
	for i := uint32(0); i < 1024; i++ {
		if c.Lookup(0x1000_0000+i*64, false) == nil {
			t.Fatalf("block %d missing", i)
		}
	}
}

func TestConflictEviction(t *testing.T) {
	c := New("l2", 1<<16, 1, 64)
	// Same set, different tags (stride = number of sets * block).
	c.Insert(0x1000_0000)
	c.Insert(0x1000_0000 + 1<<16)
	if c.Lookup(0x1000_0000, false) != nil {
		t.Fatal("conflicting block must have been evicted")
	}
}

func TestLookupNeverCorruptsProperty(t *testing.T) {
	c := New("l2", 1<<12, 4, 64)
	inserted := map[uint32]bool{}
	f := func(raw uint16) bool {
		addr := 0x1000_0000 + uint32(raw)*64
		c.Insert(addr)
		inserted[c.BlockAddr(addr)] = true
		// A lookup immediately after insert must hit.
		return c.Lookup(addr, true) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 1000, 3, 64) },
		func() { New("x", 1<<10, 2, 48) },
		func() { New("x", 1<<10, 2, 1) }, // tag+1 must fit 32 bits
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for bad geometry")
				}
			}()
			f()
		}()
	}
}

// xorshift32 is a fixed pseudo-random generator for reproducible streams.
func xorshift32(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// BenchmarkCacheAccess times one demand access against the L2 geometry
// (1 MiB, 8 ways, 64-byte blocks): a touching Lookup, then an Insert on a
// miss. The block stream is fixed and pseudo-random over a 4 MiB region,
// three quarters of it confined to a hot 512 KiB, so hits, misses and LRU
// evictions all occur.
func BenchmarkCacheAccess(b *testing.B) {
	const n = 1 << 16
	addrs := make([]uint32, n)
	x := uint32(1)
	for i := range addrs {
		x = xorshift32(x)
		blk := x & (1<<16 - 1) // 4 MiB of 64-byte blocks
		if x>>30 != 0 {
			blk &= 1<<13 - 1 // hot 512 KiB
		}
		addrs[i] = 0x1000_0000 + blk<<6 + x>>26&0x3c
	}
	c := New("L2", 1<<20, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(n-1)]
		if c.Lookup(a, true) == nil {
			c.Insert(a)
		}
	}
}

// refCache is the previous array-of-Line tag store, kept verbatim as the
// reference model for the packed one: each set is a slice of Lines
// carrying their own valid bit and recency stamp.
type refCache struct {
	sets       [][]refLine
	blockShift uint
	setMask    uint32
	tick       uint64
	Evictions  int64
}

type refLine struct {
	Line
	lru uint64
}

func newRef(sizeBytes, ways, blockSize int) *refCache {
	nsets := sizeBytes / (ways * blockSize)
	c := &refCache{sets: make([][]refLine, nsets), setMask: uint32(nsets - 1)}
	for 1<<c.blockShift != blockSize {
		c.blockShift++
	}
	lines := make([]refLine, nsets*ways)
	for i := range c.sets {
		c.sets[i] = lines[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

func (c *refCache) set(addr uint32) []refLine {
	return c.sets[(addr>>c.blockShift)&c.setMask]
}

func (c *refCache) Lookup(addr uint32, touch bool) *Line {
	tag := addr >> c.blockShift
	set := c.set(addr)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			if touch {
				c.tick++
				set[i].lru = c.tick
			}
			return &set[i].Line
		}
	}
	return nil
}

func (c *refCache) Insert(addr uint32) (*Line, Line, bool) {
	tag := addr >> c.blockShift
	set := c.set(addr)
	victim := &set[0]
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			victim = &set[i]
			c.tick++
			victim.lru = c.tick
			return &victim.Line, Line{}, false
		}
		if !set[i].Valid {
			victim = &set[i]
		} else if victim.Valid && set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	var evicted Line
	had := victim.Valid
	if had {
		evicted = victim.Line
		c.Evictions++
	}
	c.tick++
	*victim = refLine{Line: Line{Tag: tag, Valid: true}, lru: c.tick}
	return &victim.Line, evicted, had
}

func (c *refCache) Invalidate(addr uint32) (Line, bool) {
	if l := c.Lookup(addr, false); l != nil {
		old := *l
		*l = Line{}
		return old, true
	}
	return Line{}, false
}

func (c *refCache) ForEach(f func(*Line)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid {
				f(&set[i].Line)
			}
		}
	}
}

// TestMatchesReferenceModel drives the packed cache and the reference model
// with the same random Lookup/Insert/Invalidate sequences on direct-mapped,
// 4-way and 8-way geometries, writing the same metadata through every
// returned line, and requires identical hits, lines, victims and
// end-of-run ForEach order.
func TestMatchesReferenceModel(t *testing.T) {
	for _, g := range []struct{ size, ways int }{
		{1 << 10, 1}, {1 << 11, 4}, {1 << 12, 8}, {8 * 64, 8},
	} {
		c, ref := New("c", g.size, g.ways, 64), newRef(g.size, g.ways, 64)
		x := uint32(g.size + g.ways)
		stamp := func(a, b *Line, r uint32) {
			if (a == nil) != (b == nil) {
				t.Fatalf("%d-way: hit mismatch", g.ways)
			}
			if a == nil {
				return
			}
			if *a != *b {
				t.Fatalf("%d-way: line %+v, reference %+v", g.ways, *a, *b)
			}
			if r&1 != 0 {
				a.Dirty, b.Dirty = true, true
			}
			if r&2 != 0 {
				a.Used, b.Used = true, true
			}
			src := prefetch.Source(r >> 2 % uint32(prefetch.NumSources))
			a.PrefSrc, b.PrefSrc = src, src
			a.ReadyAt, b.ReadyAt = int64(r>>8), int64(r>>8)
			a.PG, b.PG = prefetch.PGKey(r>>4), prefetch.PGKey(r>>4)
		}
		for step := 0; step < 200000; step++ {
			x = xorshift32(x)
			// A footprint of four times the cache keeps every set full.
			addr := 0x1000_0000 + (x>>8)%uint32(4*g.size)
			switch op := x % 8; {
			case op < 4:
				touch := op != 0
				stamp(c.Lookup(addr, touch), ref.Lookup(addr, touch), x>>3)
			case op < 7:
				l, v, had := c.Insert(addr)
				rl, rv, rhad := ref.Insert(addr)
				if v != rv || had != rhad {
					t.Fatalf("%d-way step %d: victim %+v/%v, reference %+v/%v",
						g.ways, step, v, had, rv, rhad)
				}
				stamp(l, rl, x>>3)
			default:
				old, ok := c.Invalidate(addr)
				rold, rok := ref.Invalidate(addr)
				if old != rold || ok != rok {
					t.Fatalf("%d-way step %d: invalidated %+v/%v, reference %+v/%v",
						g.ways, step, old, ok, rold, rok)
				}
			}
			if c.Evictions != ref.Evictions {
				t.Fatalf("%d-way step %d: Evictions %d, reference %d",
					g.ways, step, c.Evictions, ref.Evictions)
			}
		}
		var got, want []Line
		c.ForEach(func(l *Line) { got = append(got, *l) })
		ref.ForEach(func(l *Line) { want = append(want, *l) })
		if len(got) != len(want) {
			t.Fatalf("%d-way: ForEach visited %d lines, reference %d", g.ways, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d-way: ForEach line %d = %+v, reference %+v", g.ways, i, got[i], want[i])
			}
		}
	}
}
