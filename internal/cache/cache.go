// Package cache implements the set-associative caches of the simulated
// memory hierarchy: LRU replacement, dirty bits, fill timestamps (so late
// prefetches are modelled), and the per-line prefetch metadata the paper's
// feedback mechanism needs ("the tag entry of each cache block is extended by
// one prefetched bit per prefetcher").
package cache

import (
	"fmt"

	"ldsprefetch/internal/prefetch"
)

// Line is one cache line's tag-store state.
type Line struct {
	// Tag is the block address (addr >> blockShift) stored in this line.
	Tag uint32
	// ReadyAt is the cycle the fill completed; a demand access earlier than
	// this observes the remaining fill latency (late prefetch).
	ReadyAt int64
	// IssuedAt is the cycle the fill request was created; a demand that
	// merges with an in-flight prefetch is promoted to demand priority and
	// completes no later than IssuedAt plus the uncontended memory latency.
	IssuedAt int64
	// PG is the root pointer group the fill is attributed to (CDP fills).
	PG prefetch.PGKey
	// PrefSrc is the prefetcher that filled the line (SrcDemand for demand
	// fills). This implements the paper's per-prefetcher prefetched bits.
	PrefSrc prefetch.Source
	// Depth is the CDP recursion depth of the fill.
	Depth uint8
	// Valid marks the line as holding a block.
	Valid bool
	// Dirty marks the block as modified (eviction causes a writeback).
	Dirty bool
	// Used marks a prefetched line as having been consumed by a demand
	// request. Demand fills are born Used.
	Used bool
}

// Cache is a set-associative cache tag store. It tracks no data contents —
// block data always comes from the simulated memory image, which the replay
// keeps consistent in program order.
//
// The tag store is laid out for the lookup scan: way w of set s is index
// s*ways+w of three parallel arrays. keys holds each way's Tag+1 (0 for an
// invalid way), so a lookup compares one contiguous run of 32-bit words and
// never touches a Line; stamps holds the recency stamps the victim choice
// compares; lines holds the rest of the metadata, reached only on a hit or
// a fill. keys and lines[i].Tag/Valid always agree.
type Cache struct {
	name       string
	ways       int
	keys       []uint32
	stamps     []uint64
	lines      []Line
	blockShift uint
	setMask    uint32
	tick       uint64

	// Evictions counts valid lines displaced (the paper's interval unit).
	Evictions int64
}

// New constructs a cache. sizeBytes, ways, and blockSize must yield a
// power-of-two number of sets, and blockSize must be a power of two of at
// least 2 bytes (so that every tag plus one fits a 32-bit key).
func New(name string, sizeBytes, ways, blockSize int) *Cache {
	if blockSize < 2 || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: block size %d not a power of two >= 2", name, blockSize))
	}
	nsets := sizeBytes / (ways * blockSize)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets (size %d, ways %d, block %d) not a power of two",
			name, nsets, sizeBytes, ways, blockSize))
	}
	shift := uint(0)
	for 1<<shift != blockSize {
		shift++
	}
	return &Cache{
		name:       name,
		ways:       ways,
		keys:       make([]uint32, nsets*ways),
		stamps:     make([]uint64, nsets*ways),
		lines:      make([]Line, nsets*ways),
		blockShift: shift,
		setMask:    uint32(nsets - 1),
	}
}

// BlockShift returns log2 of the block size.
func (c *Cache) BlockShift() uint { return c.blockShift }

// BlockAddr aligns addr down to its block.
func (c *Cache) BlockAddr(addr uint32) uint32 {
	return addr &^ ((1 << c.blockShift) - 1)
}

// slot returns addr's tag and the index of way 0 of its set.
func (c *Cache) slot(addr uint32) (tag uint32, base int) {
	tag = addr >> c.blockShift
	return tag, int(tag&c.setMask) * c.ways
}

// find returns the index of the way holding tag in the set at base, or -1.
func (c *Cache) find(tag uint32, base int) int {
	key := tag + 1
	for w, k := range c.keys[base : base+c.ways] {
		if k == key {
			return base + w
		}
	}
	return -1
}

// Lookup finds the line holding addr. If touch is true a hit refreshes LRU.
// Returns nil on miss.
func (c *Cache) Lookup(addr uint32, touch bool) *Line {
	i := c.find(c.slot(addr))
	if i < 0 {
		return nil
	}
	if touch {
		c.tick++
		c.stamps[i] = c.tick
	}
	return &c.lines[i]
}

// Insert places a block into the cache, evicting the LRU line of the set if
// necessary. It returns the inserted line (for the caller to set metadata)
// and, if a valid line was displaced, a copy of the victim. The victim is
// the set's last invalid way if it has one, else its first least recently
// used way.
func (c *Cache) Insert(addr uint32) (*Line, Line, bool) {
	tag, base := c.slot(addr)
	if i := c.find(tag, base); i >= 0 {
		// Already present (e.g. racing fills); refresh in place.
		c.tick++
		c.stamps[i] = c.tick
		return &c.lines[i], Line{}, false
	}
	keys, stamps := c.keys[base:base+c.ways], c.stamps[base:base+c.ways]
	invalid, lru := -1, 0
	for w, k := range keys {
		if k == 0 {
			invalid = w
		} else if stamps[w] < stamps[lru] {
			lru = w
		}
	}
	v := base + lru
	if invalid >= 0 {
		v = base + invalid
	}
	var evicted Line
	had := c.keys[v] != 0
	if had {
		evicted = c.lines[v]
		c.Evictions++
	}
	c.tick++
	c.keys[v] = tag + 1
	c.stamps[v] = c.tick
	c.lines[v] = Line{Tag: tag, Valid: true}
	return &c.lines[v], evicted, had
}

// Invalidate drops the block holding addr if present and returns a copy.
func (c *Cache) Invalidate(addr uint32) (Line, bool) {
	i := c.find(c.slot(addr))
	if i < 0 {
		return Line{}, false
	}
	old := c.lines[i]
	c.keys[i] = 0
	c.lines[i] = Line{}
	return old, true
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// ForEach calls f for every valid line (end-of-run accounting).
func (c *Cache) ForEach(f func(*Line)) {
	for i, k := range c.keys {
		if k != 0 {
			f(&c.lines[i])
		}
	}
}
