// Package mem provides the simulated 32-bit virtual memory used by the
// workload programs and the memory-hierarchy simulator.
//
// The memory holds real byte contents, not just an address trace: workload
// programs store 32-bit pointer values into simulated memory, and the
// content-directed prefetcher later scans fetched cache blocks for values
// whose high-order "compare bits" match the block's address. Without real
// contents CDP cannot be simulated faithfully.
//
// The address space is divided into regions chosen so that heap pointers are
// distinguishable by their high-order bits (mirroring how a real 32-bit
// process lays out its address space):
//
//	GlobalBase  0x08000000  globals / static data
//	HeapBase    0x10000000  heap (linked data structures live here)
//	StackBase   0x7ff00000  stack (grows down)
//
// Small integers (node keys, counters) have zero high bytes and therefore
// never alias with heap pointers under an 8-compare-bit matcher.
package mem

import (
	"fmt"
	"sort"
)

// Region base addresses of the simulated address space.
const (
	GlobalBase uint32 = 0x0800_0000
	HeapBase   uint32 = 0x1000_0000
	StackBase  uint32 = 0x7ff0_0000

	pageShift = 16 // 64 KiB pages
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, paged 32-bit byte-addressable memory. The zero value
// is not ready to use; call New.
//
// Clones share pages copy-on-write. Freeze marks every page of a memory
// shared; Clone freezes its source and hands out a memory whose pages are
// the source's shared pages. Whichever memory first writes a shared page
// copies it and writes the copy, so a write through the source or through
// any clone is never visible through another. Cloning a frozen memory does
// not write it, so any number of goroutines may clone one concurrently;
// each clone, like any Memory, is then for one goroutine at a time.
type Memory struct {
	pages map[uint32]pageEntry
	// frozen records that no entry is owned, so Clone need not freeze.
	frozen bool
	// Last-page cache: accesses cluster heavily within a page (pointer
	// chases walk nodes far smaller than the 64 KiB page), so remembering
	// the last resolved page skips the map lookup on the hot path.
	lastPN    uint32
	lastPage  *[pageSize]byte
	lastOwned bool
}

// pageEntry is one page of a Memory. A page that is not owned is shared
// with the memory it was cloned from (or frozen in), and must be copied
// before it is written.
type pageEntry struct {
	p     *[pageSize]byte
	owned bool
}

// noPage is the lastPN sentinel. Page numbers only span addr>>pageShift
// (16 bits), so the all-ones value can never match a real page.
const noPage = ^uint32(0)

// New returns an empty memory. Reads of unwritten locations return zero.
func New() *Memory {
	return &Memory{pages: make(map[uint32]pageEntry), lastPN: noPage}
}

// Freeze marks every page of m shared, so that the next write to any page,
// through m or through a clone of it, copies that page first. A frozen
// memory can be cloned concurrently; workload.BuildShared freezes each
// master image once, then hands every caller a clone.
func (m *Memory) Freeze() {
	if m.frozen {
		return
	}
	//ldslint:ordered marks every entry shared; visiting order is unobservable
	for pn, e := range m.pages {
		if e.owned {
			m.pages[pn] = pageEntry{p: e.p}
		}
	}
	m.lastOwned = false
	m.frozen = true
}

// Clone returns a copy-on-write copy of the memory image: the copy shares
// every page with m and copies a page on its first write to it. Clone
// freezes m first (see Freeze), which writes m unless it is already frozen;
// concurrent clones need a memory frozen beforehand.
func (m *Memory) Clone() *Memory {
	m.Freeze()
	c := &Memory{pages: make(map[uint32]pageEntry, len(m.pages)), frozen: true, lastPN: noPage}
	//ldslint:ordered copies shared entries keyed by page number; insertion order is unobservable
	for pn, e := range m.pages {
		c.pages[pn] = e
	}
	return c
}

// readPage returns page pn for reading, or nil if it was never written.
func (m *Memory) readPage(pn uint32) *[pageSize]byte {
	if pn == m.lastPN {
		return m.lastPage
	}
	e, ok := m.pages[pn]
	if !ok {
		return nil // don't cache misses: the page may be created later
	}
	m.lastPN, m.lastPage, m.lastOwned = pn, e.p, e.owned
	return e.p
}

// writePage returns page pn for writing: an owned page, created zeroed if
// pn was never written and copied if pn is shared.
func (m *Memory) writePage(pn uint32) *[pageSize]byte {
	if pn == m.lastPN && m.lastOwned {
		return m.lastPage
	}
	e := m.pages[pn]
	if !e.owned {
		p := new([pageSize]byte)
		if e.p != nil {
			*p = *e.p
		}
		e = pageEntry{p: p, owned: true}
		m.pages[pn] = e
		m.frozen = false
	}
	m.lastPN, m.lastPage, m.lastOwned = pn, e.p, true
	return e.p
}

// Read8 returns the byte at addr (zero if the page was never written).
func (m *Memory) Read8(addr uint32) byte {
	p := m.readPage(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint32, v byte) {
	m.writePage(addr >> pageShift)[addr&pageMask] = v
}

// Read32 returns the little-endian 32-bit word at addr. The word may span a
// page boundary.
func (m *Memory) Read32(addr uint32) uint32 {
	if addr&pageMask <= pageSize-4 {
		p := m.readPage(addr >> pageShift)
		if p == nil {
			return 0
		}
		o := addr & pageMask
		return uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write32 stores a little-endian 32-bit word at addr.
func (m *Memory) Write32(addr, v uint32) {
	if addr&pageMask <= pageSize-4 {
		p := m.writePage(addr >> pageShift)
		o := addr & pageMask
		p[o] = byte(v)
		p[o+1] = byte(v >> 8)
		p[o+2] = byte(v >> 16)
		p[o+3] = byte(v >> 24)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.Write8(addr+i, byte(v>>(8*i)))
	}
}

// ReadBlock copies blockSize bytes starting at the block-aligned address into
// dst. len(dst) determines the block size and addr is aligned down to it.
func (m *Memory) ReadBlock(addr uint32, dst []byte) {
	n := uint32(len(dst))
	addr &^= n - 1
	// Fast path: block within one page (always true for power-of-two block
	// sizes <= pageSize and aligned addresses).
	p := m.readPage(addr >> pageShift)
	if p == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	o := addr & pageMask
	copy(dst, p[o:o+n])
}

// PageSize is the granularity of the sparse page table, exported for
// serialization code that snapshots and restores whole pages.
const PageSize = pageSize

// Pages returns the numbers of all allocated pages in ascending order.
func (m *Memory) Pages() []uint32 {
	pns := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// PageBytes returns the contents of page pn, or nil if the page was never
// written. The slice aliases the live page, which may be shared with other
// clones: callers must not write it, and must copy it if they outlive the
// next write to this memory.
func (m *Memory) PageBytes(pn uint32) []byte {
	if e, ok := m.pages[pn]; ok {
		return e.p[:]
	}
	return nil
}

// SetPageBytes installs data as the contents of page pn; shorter-than-page
// data is zero-extended (unwritten tails read as zero, as always).
func (m *Memory) SetPageBytes(pn uint32, data []byte) {
	if len(data) > pageSize {
		panic(fmt.Sprintf("mem: %d bytes exceed the %d-byte page", len(data), pageSize))
	}
	p := new([pageSize]byte)
	copy(p[:], data)
	m.pages[pn] = pageEntry{p: p, owned: true}
	m.frozen = false
	m.lastPN = noPage
}

// Footprint returns the number of bytes of allocated (touched) pages.
func (m *Memory) Footprint() int {
	return len(m.pages) * pageSize
}

// Allocator is a bump allocator over the heap region of a Memory. It mimics
// a simple malloc: successive allocations are laid out consecutively (the
// property the paper's pointer-group analysis relies on: "if different nodes
// are allocated consecutively in memory, each pointer field of any other node
// in the same cache block is also at a constant offset"). An optional
// alignment and inter-allocation gap model allocator metadata.
type Allocator struct {
	mem   *Memory
	next  uint32
	limit uint32
	align uint32
	gap   uint32
}

// NewAllocator returns a heap allocator over m starting at HeapBase with the
// given capacity in bytes. align must be a power of two (0 means 4). The heap
// region must fit below StackBase; a capacity that would overrun it (or wrap
// the 32-bit address space) panics immediately rather than letting later
// allocations alias the stack or wrap around to low addresses.
func NewAllocator(m *Memory, capacity uint32, align uint32) *Allocator {
	if align == 0 {
		align = 4
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	limit := uint64(HeapBase) + uint64(capacity)
	if limit > uint64(StackBase) {
		panic(fmt.Sprintf("mem: heap capacity %#x overruns the stack region (limit %#x > StackBase %#x); reduce the workload scale", capacity, limit, StackBase))
	}
	return &Allocator{mem: m, next: HeapBase, limit: uint32(limit), align: align}
}

// SetGap sets the number of pad bytes inserted after every allocation
// (simulating allocator headers). The pad is rounded into alignment.
func (a *Allocator) SetGap(gap uint32) { a.gap = gap }

// Alloc reserves size bytes and returns the address of the allocation.
// It panics if the heap region is exhausted (a programming error in a
// workload generator, not a runtime condition). The bounds check is done in
// 64-bit arithmetic: addr+size near the top of the address space must report
// exhaustion, not wrap past the limit and hand out aliased memory.
func (a *Allocator) Alloc(size uint32) uint32 {
	addr := (uint64(a.next) + uint64(a.align) - 1) &^ (uint64(a.align) - 1)
	if addr+uint64(size) > uint64(a.limit) {
		panic(fmt.Sprintf("mem: heap exhausted (next=%#x size=%d limit=%#x); reduce the workload scale", a.next, size, a.limit))
	}
	next := addr + uint64(size) + uint64(a.gap)
	if next > uint64(a.limit) {
		// The gap pushed past the limit: clamp so a.next itself cannot wrap.
		// Any further non-trivial Alloc still panics above.
		next = uint64(a.limit)
	}
	a.next = uint32(next)
	return uint32(addr)
}

// Used reports how many bytes of heap have been consumed.
func (a *Allocator) Used() uint32 { return a.next - HeapBase }

// Mem returns the underlying memory.
func (a *Allocator) Mem() *Memory { return a.mem }
