// Package cache implements the set-associative, write-back caches of the
// simulated hierarchy (per-core L1 data caches and the shared L2 of
// Table 1). The caches here are state-only: hit/miss decisions, LRU
// replacement, dirty tracking, and fills. Timing, MSHRs and miss handling
// live in the core model (internal/cpu), which owns the clock.
package cache

import (
	"fmt"
	"math/bits"
)

// line is one cache frame in 16 bytes: the line-aligned address with the
// valid and dirty flags folded into its two low bits (free because a line
// is at least 4 bytes), and the LRU stamp. An empty frame's tag word is
// zero, so even line 0 cannot match it: a lookup compares against the
// address with validBit set.
type line struct {
	tag int64 // line-aligned address | validBit | dirtyBit
	use int64
}

const (
	validBit = 1
	dirtyBit = 2
)

// Stats counts cache events.
type Stats struct {
	Accesses      int64
	Misses        int64
	Evictions     int64
	DirtyEvicts   int64
	PrefetchFills int64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative write-back cache with LRU replacement.
type Cache struct {
	sets      int
	ways      int
	lineBytes int64
	lineShift uint
	data      []line // sets×ways: set i is data[i*ways : (i+1)*ways]
	tick      int64

	// Stats is exported for the experiment harness and tests.
	Stats Stats
}

// New builds a cache of sizeKB kilobytes with the given associativity and
// line size. Geometry must divide evenly into power-of-two sets of lines of
// at least 4 bytes (config.Validate refuses anything else).
func New(sizeKB, ways, lineBytes int) *Cache {
	if lineBytes < 4 {
		panic(fmt.Sprintf("cache: %dB lines leave no room for the flag bits", lineBytes))
	}
	total := sizeKB * 1024
	if total%(ways*lineBytes) != 0 {
		panic(fmt.Sprintf("cache: %dKB not divisible into %d-way sets of %dB lines",
			sizeKB, ways, lineBytes))
	}
	sets := total / (ways * lineBytes)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	c := &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: int64(lineBytes),
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		data:      make([]line, sets*ways),
	}
	return c
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr int64) int64 { return addr &^ (c.lineBytes - 1) }

// lookup returns the set holding addr's line and the way the line is
// resident in, or -1.
func (c *Cache) lookup(addr int64) ([]line, int) {
	la := c.LineAddr(addr)
	i := int((la>>c.lineShift)&int64(c.sets-1)) * c.ways
	set := c.data[i : i+c.ways : i+c.ways]
	want := la | validBit | dirtyBit
	for w := range set {
		if set[w].tag|dirtyBit == want {
			return set, w
		}
	}
	return set, -1
}

// Access looks up addr; on a hit it refreshes LRU state and, for writes,
// sets the dirty bit. It returns whether the access hit.
func (c *Cache) Access(addr int64, write bool) bool {
	c.Stats.Accesses++
	set, w := c.lookup(addr)
	if w < 0 {
		c.Stats.Misses++
		return false
	}
	c.tick++
	set[w].use = c.tick
	if write {
		set[w].tag |= dirtyBit
	}
	return true
}

// Contains reports residency without disturbing LRU or statistics.
func (c *Cache) Contains(addr int64) bool {
	_, w := c.lookup(addr)
	return w >= 0
}

// Victim describes a line displaced by a fill.
type Victim struct {
	Addr  int64
	Dirty bool
	Valid bool
}

// Fill installs the line containing addr (marking it dirty when the fill
// satisfies a store) and returns the displaced victim, if any. Filling an
// already-resident line only refreshes its state.
func (c *Cache) Fill(addr int64, dirty bool) Victim {
	var flags int64 = validBit
	if dirty {
		flags |= dirtyBit
	}
	set, w := c.lookup(addr)
	c.tick++
	if w >= 0 {
		set[w].use = c.tick
		set[w].tag |= flags
		return Victim{}
	}
	victim := 0
	for i := range set {
		if set[i].tag&validBit == 0 {
			victim = i
			goto install
		}
		if set[i].use < set[victim].use {
			victim = i
		}
	}
install:
	out := Victim{}
	if t := set[victim].tag; t&validBit != 0 {
		out = Victim{Addr: t &^ (validBit | dirtyBit), Dirty: t&dirtyBit != 0, Valid: true}
		c.Stats.Evictions++
		if out.Dirty {
			c.Stats.DirtyEvicts++
		}
	}
	set[victim] = line{tag: c.LineAddr(addr) | flags, use: c.tick}
	return out
}

// FillPrefetch installs a line fetched by a (software) prefetch; identical
// to Fill but counted separately.
func (c *Cache) FillPrefetch(addr int64) Victim {
	c.Stats.PrefetchFills++
	return c.Fill(addr, false)
}

// Invalidate drops the line containing addr if resident, returning its
// dirty state (the caller is responsible for any writeback).
func (c *Cache) Invalidate(addr int64) (wasDirty, wasPresent bool) {
	set, w := c.lookup(addr)
	if w < 0 {
		return false, false
	}
	wasDirty = set[w].tag&dirtyBit != 0
	set[w].tag = 0
	return wasDirty, true
}

// Sets and Ways expose the geometry.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

// Occupancy returns the number of valid lines (test helper).
func (c *Cache) Occupancy() int {
	n := 0
	for _, l := range c.data {
		if l.tag&validBit != 0 {
			n++
		}
	}
	return n
}
