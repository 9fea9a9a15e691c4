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

type line struct {
	tag   int64 // line-aligned address
	valid bool
	dirty bool
	use   int64
}

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
// line size. Geometry must divide evenly into power-of-two sets.
func New(sizeKB, ways, lineBytes int) *Cache {
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

func (c *Cache) set(lineAddr int64) []line {
	i := int((lineAddr>>c.lineShift)&int64(c.sets-1)) * c.ways
	return c.data[i : i+c.ways : i+c.ways]
}

// Access looks up addr; on a hit it refreshes LRU state and, for writes,
// sets the dirty bit. It returns whether the access hit.
func (c *Cache) Access(addr int64, write bool) bool {
	c.Stats.Accesses++
	la := c.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			c.tick++
			set[i].use = c.tick
			if write {
				set[i].dirty = true
			}
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Contains reports residency without disturbing LRU or statistics.
func (c *Cache) Contains(addr int64) bool {
	la := c.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return true
		}
	}
	return false
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
	la := c.LineAddr(addr)
	set := c.set(la)
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].use = c.tick
			if dirty {
				set[i].dirty = true
			}
			return Victim{}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto install
		}
		if set[i].use < set[victim].use {
			victim = i
		}
	}
install:
	out := Victim{}
	if set[victim].valid {
		out = Victim{Addr: set[victim].tag, Dirty: set[victim].dirty, Valid: true}
		c.Stats.Evictions++
		if out.Dirty {
			c.Stats.DirtyEvicts++
		}
	}
	set[victim] = line{tag: la, valid: true, dirty: dirty, use: c.tick}
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
	la := c.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].valid = false
			return set[i].dirty, true
		}
	}
	return false, false
}

// Sets and Ways expose the geometry.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

// Occupancy returns the number of valid lines (test helper).
func (c *Cache) Occupancy() int {
	n := 0
	for _, l := range c.data {
		if l.valid {
			n++
		}
	}
	return n
}
