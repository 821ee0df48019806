package stream

import (
	"testing"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

type sink struct{ reqs []prefetch.Request }

func (s *sink) Issue(r prefetch.Request) { s.reqs = append(s.reqs, r) }

func miss(addr uint32, now int64) memsys.AccessEvent {
	return memsys.AccessEvent{Now: now, Addr: addr, IsLoad: true}
}

func TestAscendingStreamPrefetches(t *testing.T) {
	s := &sink{}
	p := New(32, 6, s)
	// Three consecutive block misses: allocate, train, monitor+request.
	p.OnAccess(miss(0x1000_0000, 0))
	p.OnAccess(miss(0x1000_0040, 10))
	if len(s.reqs) != 0 {
		t.Fatalf("prefetches before confirmation: %d", len(s.reqs))
	}
	p.OnAccess(miss(0x1000_0080, 20))
	if len(s.reqs) == 0 {
		t.Fatal("confirmed stream issued no prefetches")
	}
	for _, r := range s.reqs {
		if r.Addr <= 0x1000_0080 {
			t.Fatalf("prefetch %#x not ahead of demand stream", r.Addr)
		}
		if r.Src != prefetch.SrcStream {
			t.Fatalf("source = %v, want stream", r.Src)
		}
	}
	_, degree := prefetch.StreamParams(prefetch.Aggressive)
	if len(s.reqs) != degree {
		t.Fatalf("issued %d prefetches, want degree %d", len(s.reqs), degree)
	}
}

func TestDescendingStream(t *testing.T) {
	s := &sink{}
	p := New(32, 6, s)
	p.OnAccess(miss(0x1000_0800, 0))
	p.OnAccess(miss(0x1000_07c0, 10))
	p.OnAccess(miss(0x1000_0780, 20))
	if len(s.reqs) == 0 {
		t.Fatal("descending stream issued no prefetches")
	}
	for _, r := range s.reqs {
		if r.Addr >= 0x1000_0780 {
			t.Fatalf("prefetch %#x not below demand stream", r.Addr)
		}
	}
}

func TestAdvanceOnFurtherAccesses(t *testing.T) {
	s := &sink{}
	p := New(32, 6, s)
	for i := uint32(0); i < 20; i++ {
		p.OnAccess(miss(0x1000_0000+i*64, int64(i)*10))
	}
	distance, _ := prefetch.StreamParams(prefetch.Aggressive)
	// The stream must keep issuing as the demand advances, staying within
	// distance of the head.
	last := s.reqs[len(s.reqs)-1]
	head := uint32(0x1000_0000 + 19*64)
	if last.Addr <= head || last.Addr > head+uint32(distance)*64 {
		t.Fatalf("last prefetch %#x out of window (head %#x, distance %d)", last.Addr, head, distance)
	}
	// No duplicates.
	seen := map[uint32]bool{}
	for _, r := range s.reqs {
		if seen[r.Addr] {
			t.Fatalf("duplicate prefetch %#x", r.Addr)
		}
		seen[r.Addr] = true
	}
}

func TestConservativeIssuesFewer(t *testing.T) {
	run := func(level prefetch.AggLevel) int {
		s := &sink{}
		p := New(32, 6, s)
		p.SetLevel(level)
		for i := uint32(0); i < 50; i++ {
			p.OnAccess(miss(0x1000_0000+i*64, int64(i)*10))
		}
		return len(s.reqs)
	}
	agg := run(prefetch.Aggressive)
	cons := run(prefetch.VeryConservative)
	if cons >= agg {
		t.Fatalf("very-conservative issued %d >= aggressive %d", cons, agg)
	}
}

func TestRandomMissesNoPrefetch(t *testing.T) {
	s := &sink{}
	p := New(32, 6, s)
	addrs := []uint32{0x1000_0000, 0x1080_0000, 0x1100_0000, 0x1180_0000, 0x1200_0000}
	for i, a := range addrs {
		p.OnAccess(miss(a, int64(i)*10))
	}
	if len(s.reqs) != 0 {
		t.Fatalf("random misses issued %d prefetches, want 0", len(s.reqs))
	}
}

func TestL1HitsIgnored(t *testing.T) {
	s := &sink{}
	p := New(32, 6, s)
	ev := miss(0x1000_0000, 0)
	ev.L1Hit = true
	for i := 0; i < 10; i++ {
		ev.Addr += 64
		p.OnAccess(ev)
	}
	if len(s.reqs) != 0 {
		t.Fatal("L1 hits must not train the stream prefetcher")
	}
}

func TestDisabledIssuesNothing(t *testing.T) {
	s := &sink{}
	p := New(32, 6, s)
	p.Enabled = false
	for i := uint32(0); i < 10; i++ {
		p.OnAccess(miss(0x1000_0000+i*64, int64(i)))
	}
	if len(s.reqs) != 0 {
		t.Fatal("disabled prefetcher issued requests")
	}
}

func TestThrottleInterface(t *testing.T) {
	p := New(32, 6, &sink{})
	var th prefetch.Throttleable = p
	th.SetLevel(prefetch.AggLevel(9))
	if th.Level() != prefetch.Aggressive {
		t.Fatalf("level = %v, want clamped aggressive", th.Level())
	}
	if p.Name() != "stream" || p.Source() != prefetch.SrcStream {
		t.Fatal("identity mismatch")
	}
}

type discard struct{}

func (discard) Issue(prefetch.Request) {}

// rng is a fixed xorshift32 generator for reproducible access streams.
type rng uint32

func (r *rng) next() uint32 {
	x := uint32(*r)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*r = rng(x)
	return x
}

// BenchmarkStreamOnAccess times the stream prefetcher on a fixed stream of
// L1 misses: twelve interleaved sequential streams (some ascending, some
// descending, each restarting elsewhere after a while) mixed with random
// misses that keep allocating, so all 32 entries stay occupied in every
// state and each access scans a full table.
func BenchmarkStreamOnAccess(b *testing.B) {
	const n = 1 << 14
	evs := make([]memsys.AccessEvent, n)
	var heads [12]uint32
	var dirs [12]uint32
	g := rng(7)
	for i := range heads {
		heads[i] = g.next() & (1<<20 - 1)
		dirs[i] = 1
		if i%3 == 0 {
			dirs[i] = ^uint32(0)
		}
	}
	for i := range evs {
		r := g.next()
		var blk uint32
		if r%4 == 0 {
			blk = r >> 8 & (1<<20 - 1) // random miss
		} else {
			s := r >> 4 % uint32(len(heads))
			if r>>12&63 == 0 {
				heads[s] = g.next() & (1<<20 - 1) // stream restarts
			}
			heads[s] += dirs[s]
			blk = heads[s]
		}
		evs[i] = memsys.AccessEvent{Now: int64(i) * 4, Addr: 0x1000_0000 + blk<<6,
			IsLoad: true, L2Hit: r>>20&3 == 0}
	}
	p := New(32, 6, discard{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnAccess(evs[i&(n-1)])
	}
}

// refOnAccess is the previous OnAccess, kept as the reference model for
// the one-pass table scan: it scans the table once per state, in priority
// order, with refMatch.
func (p *Prefetcher) refOnAccess(ev memsys.AccessEvent) {
	if ev.L1Hit {
		return
	}
	blk := ev.Addr >> p.blockShift
	if e := p.refMatch(blk, monitoring); e != nil {
		p.touch(e)
		if delta(blk, e.lastDemand)*e.dir > 0 {
			e.lastDemand = blk
		}
		p.request(e, ev.Now)
		return
	}
	if !ev.Miss() {
		return
	}
	if e := p.refMatch(blk, training); e != nil {
		p.touch(e)
		d := delta(blk, e.firstBlk)
		if d == 0 {
			return
		}
		dir := int32(1)
		if d < 0 {
			dir = -1
		}
		if dir == e.dir {
			e.state = monitoring
			e.lastDemand = blk
			e.nextPf = addBlk(blk, e.dir)
			p.request(e, ev.Now)
		} else {
			e.dir = dir
		}
		return
	}
	if e := p.refMatch(blk, allocated); e != nil {
		p.touch(e)
		d := delta(blk, e.firstBlk)
		if d == 0 {
			return
		}
		e.state = training
		if d > 0 {
			e.dir = 1
		} else {
			e.dir = -1
		}
		return
	}
	victim := &p.entries[0]
	for i := range p.entries {
		e := &p.entries[i]
		if e.state == invalid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = entry{state: allocated, firstBlk: blk, lastDemand: blk}
	p.touch(victim)
}

func (p *Prefetcher) refMatch(blk uint32, st state) *entry {
	for i := range p.entries {
		e := &p.entries[i]
		if e.state != st {
			continue
		}
		ref := e.firstBlk
		if st == monitoring {
			ref = e.lastDemand
		}
		d := delta(blk, ref)
		if d < 0 {
			d = -d
		}
		if d <= trainWindow {
			return e
		}
	}
	return nil
}

// TestMatchesThreeScanReference feeds the one-pass prefetcher and the
// three-scan reference the same random L1-miss streams — sequential runs in
// both directions, near misses around the ±16-block window edge, random
// jumps, L2 hits and in-flight merges, at every aggressiveness level — and
// requires the same prefetch requests and the same table after every access.
func TestMatchesThreeScanReference(t *testing.T) {
	for seed := uint32(1); seed <= 8; seed++ {
		got, want := &sink{}, &sink{}
		p, ref := New(32, 6, got), New(32, 6, want)
		level := prefetch.AggLevel(seed % 4)
		p.SetLevel(level)
		ref.SetLevel(level)
		g := rng(seed * 2654435761)
		var heads [6]uint32
		for step := 0; step < 50000; step++ {
			r := g.next()
			s := r % uint32(len(heads))
			switch k := r >> 8 % 8; {
			case k == 0:
				heads[s] = g.next() & (1<<18 - 1) // jump
			case k < 5:
				heads[s]++
			case k < 7:
				heads[s]--
			default:
				heads[s] += uint32(int32(g.next()%37) - 18) // around the window edge
			}
			ev := memsys.AccessEvent{Now: int64(step), Addr: 0x1000_0000 + heads[s]<<6 + r>>26,
				IsLoad: true}
			switch r >> 16 % 8 {
			case 0:
				ev.L2Hit = true
			case 1:
				ev.InFlight = true
			case 2:
				ev.L1Hit = true
			}
			p.OnAccess(ev)
			ref.refOnAccess(ev)
			if len(got.reqs) != len(want.reqs) {
				t.Fatalf("seed %d step %d: %d requests, reference %d",
					seed, step, len(got.reqs), len(want.reqs))
			}
			for i := range p.entries {
				if p.entries[i] != ref.entries[i] {
					t.Fatalf("seed %d step %d: entry %d = %+v, reference %+v",
						seed, step, i, p.entries[i], ref.entries[i])
				}
			}
		}
		for i := range got.reqs {
			if got.reqs[i] != want.reqs[i] {
				t.Fatalf("seed %d: request %d = %+v, reference %+v", seed, i, got.reqs[i], want.reqs[i])
			}
		}
		if len(got.reqs) == 0 {
			t.Fatalf("seed %d: no requests issued; the stream exercises nothing", seed)
		}
	}
}
