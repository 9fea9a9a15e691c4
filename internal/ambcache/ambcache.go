// Package ambcache implements the AMB prefetch buffer of Section 3.2: a
// small SRAM cache attached to each Advanced Memory Buffer, whose tags and
// status bits live in a "prefetch information table" at the memory
// controller. The default configuration holds 64 cachelines of 64 bytes
// (4 KB), fully associative, with FIFO replacement — LRU is unsuitable
// because a block that hits is now resident in the processor cache and will
// not be re-referenced soon.
//
// Every lookup, install and invalidation costs O(1), whatever the
// associativity: an open-addressed hash index finds a resident line, a
// per-set list kept in replacement order names the victim, and a per-set
// bitmap names the lowest free way.
package ambcache

import (
	"fmt"
	"math/bits"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
)

// none marks the end of a replacement-order list.
const none = -1

// entry is one way. Whether it is valid lives in Cache.free.
type entry struct {
	addr int64 // line-aligned address
	// fill is when a prefetched line still in transit lands in the AMB;
	// zero once it has landed (or was installed already resident).
	fill       clock.Time
	prev, next int32 // neighbours in the set's replacement order
}

// order is one set's valid entries, oldest (the next victim) first: by
// insertion under FIFO, by last touch under LRU.
type order struct {
	head, tail int32
}

// Stats counts the events that define prefetch coverage and efficiency
// (Figure 8): coverage = hits/reads, efficiency = hits/prefetched blocks.
type Stats struct {
	// Reads is the number of demand reads presented to the tag table.
	Reads int64
	// Hits is the number of demand reads served from the AMB cache.
	Hits int64
	// Prefetched is the number of non-demanded blocks stored in the cache.
	Prefetched int64
	// Evictions counts FIFO/LRU replacements of valid entries.
	Evictions int64
	// Invalidations counts entries dropped because of writes.
	Invalidations int64
	// Scrubs counts entries dropped because a soft error poisoned them
	// (fault injection); the demand access proceeds as a miss.
	Scrubs int64
}

// Coverage returns hits/reads, or 0 when no reads occurred.
func (s Stats) Coverage() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads)
}

// Efficiency returns hits/prefetched, or 0 when nothing was prefetched.
func (s Stats) Efficiency() float64 {
	if s.Prefetched == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Prefetched)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Hits += other.Hits
	s.Prefetched += other.Prefetched
	s.Evictions += other.Evictions
	s.Invalidations += other.Invalidations
	s.Scrubs += other.Scrubs
}

// Fill is a prefetched line still in transit to its AMB.
type Fill struct {
	Line int64
	At   clock.Time
}

// Cache models one AMB's prefetch buffer. The simulator keeps the instance
// at the memory controller, mirroring the paper's split where the
// controller holds tags and the AMB holds data; the AMB-side data array has
// no independent behaviour to model.
//
// Every method taking (lineAddr, localID) requires localID to be the
// line's DIMM-local line ID (addrmap.Mapper.LocalLineID), which selects the
// set; a line is found only in the set its localID names.
type Cache struct {
	sets int
	ways int
	repl config.Replacement
	// entries holds set s's ways at [s*ways, (s+1)*ways).
	entries []entry
	orders  []order
	// free has a set bit for every invalid way, words per set at a time.
	free  []uint64
	words int
	// index maps a valid entry's line to its position in entries (stored
	// +1, so zero is an empty slot): linear probing over a power-of-two
	// table at least four times the capacity, with backward-shift
	// deletion.
	index []int32
	shift uint // 64 - log2(len(index)): hash bits select the home slot

	// Stats are exported for the experiment harness.
	Stats Stats
}

// New builds an AMB cache of capacity lines with the given associativity
// (config.FullAssoc for fully associative) and replacement policy.
func New(lines, assoc int, repl config.Replacement) *Cache {
	if lines < 1 {
		panic("ambcache: capacity must be at least one line")
	}
	ways := assoc
	if assoc == config.FullAssoc || assoc >= lines {
		ways = lines
	}
	if lines%ways != 0 {
		panic(fmt.Sprintf("ambcache: %d lines not divisible by %d ways", lines, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("ambcache: set count %d not a power of two", sets))
	}
	// At most a quarter of the index is in use, which keeps probe runs
	// short under FIFO's churn.
	slots := 1 << bits.Len(uint(4*lines-1)) // smallest power of two >= 4*lines
	c := &Cache{
		sets:    sets,
		ways:    ways,
		repl:    repl,
		entries: make([]entry, lines),
		orders:  make([]order, sets),
		words:   (ways + 63) / 64,
		index:   make([]int32, slots),
		shift:   uint(64 - bits.TrailingZeros(uint(slots))),
	}
	c.free = make([]uint64, sets*c.words)
	c.resetSets()
	return c
}

// setIndex maps a caller-provided index key to a set. The key must be the
// DIMM-local line ID (addrmap.Mapper.LocalLineID), not the raw address:
// interleaving makes the channel/DIMM bits of raw addresses constant per
// AMB, which would alias every entry into a fraction of the sets.
func (c *Cache) setIndex(localID int64) int {
	return int(localID & int64(c.sets-1))
}

// Lines returns the total capacity in cachelines.
func (c *Cache) Lines() int { return c.sets * c.ways }

// Ways returns the associativity actually in effect.
func (c *Cache) Ways() int { return c.ways }

// home returns the index slot where the probe for lineAddr starts
// (Fibonacci hashing: the top bits of the product).
func (c *Cache) home(lineAddr int64) int {
	return int(uint64(lineAddr) * 0x9E3779B97F4A7C15 >> c.shift)
}

// find returns the index slot and entry position of lineAddr in set, or
// position none when the line is not resident there.
func (c *Cache) find(lineAddr int64, set int) (slot int, pos int32) {
	mask := len(c.index) - 1
	base := set * c.ways
	for slot = c.home(lineAddr); c.index[slot] != 0; slot = (slot + 1) & mask {
		p := c.index[slot] - 1
		if c.entries[p].addr == lineAddr && uint(int(p)-base) < uint(c.ways) {
			return slot, p
		}
	}
	return slot, none
}

// slotOf returns the index slot holding entry p.
func (c *Cache) slotOf(p int32) int {
	mask := len(c.index) - 1
	slot := c.home(c.entries[p].addr)
	for c.index[slot] != p+1 {
		slot = (slot + 1) & mask
	}
	return slot
}

// freeSlot returns the first empty index slot on lineAddr's probe path.
func (c *Cache) freeSlot(lineAddr int64) int {
	mask := len(c.index) - 1
	slot := c.home(lineAddr)
	for c.index[slot] != 0 {
		slot = (slot + 1) & mask
	}
	return slot
}

// unindex empties slot, shifting later entries of its probe run back so
// that every remaining line stays reachable from its home slot.
func (c *Cache) unindex(slot int) {
	mask := len(c.index) - 1
	for next := (slot + 1) & mask; c.index[next] != 0; next = (next + 1) & mask {
		// The entry at next may fill the hole only if the hole lies on
		// its probe path, i.e. its home is no later than the hole.
		if (next-c.home(c.entries[c.index[next]-1].addr))&mask >= (next-slot)&mask {
			c.index[slot] = c.index[next]
			slot = next
		}
	}
	c.index[slot] = 0
}

// LookupRead checks the tag table for a demand read and counts it toward
// coverage statistics. On a hit it returns when the line lands in the AMB
// if its prefetch is still in transit, or zero if it is there already.
// On a hit, FIFO keeps the insertion order (the block stays until
// replaced); LRU refreshes recency.
func (c *Cache) LookupRead(lineAddr, localID int64) (fillAt clock.Time, hit bool) {
	c.Stats.Reads++
	set := c.setIndex(localID)
	_, p := c.find(lineAddr, set)
	if p == none {
		return 0, false
	}
	c.Stats.Hits++
	c.touch(set, p)
	return c.entries[p].fill, true
}

// Contains reports residency without touching statistics or recency.
func (c *Cache) Contains(lineAddr, localID int64) bool {
	_, p := c.find(lineAddr, c.setIndex(localID))
	return p != none
}

// touch records a use of entry p of set: under LRU, a move to the young
// end of the replacement order.
func (c *Cache) touch(set int, p int32) {
	if c.repl == config.LRU && c.orders[set].tail != p {
		c.unlink(set, p)
		c.link(set, p)
	}
}

// InsertPrefetch stores a prefetched (non-demanded) block that is resident
// at once, evicting by the configured policy if the set is full. It returns
// the evicted line address and whether an eviction occurred. Inserting an
// already-resident line is a no-op refresh that also ends any pending fill.
func (c *Cache) InsertPrefetch(lineAddr, localID int64) (evicted int64, wasEvicted bool) {
	return c.InsertPrefetchAt(lineAddr, localID, 0)
}

// InsertPrefetchAt is InsertPrefetch for a block still in transit: the line
// counts as resident (a demand read for it hits) but lands at fillAt, which
// LookupRead reports until Housekeep passes it. A zero fillAt installs the
// line as already landed. Reinserting a resident line replaces its fill
// time.
func (c *Cache) InsertPrefetchAt(lineAddr, localID int64, fillAt clock.Time) (evicted int64, wasEvicted bool) {
	c.Stats.Prefetched++
	set := c.setIndex(localID)
	slot, p := c.find(lineAddr, set)
	if p != none {
		c.touch(set, p)
		c.entries[p].fill = fillAt
		return 0, false
	}
	if way, ok := c.freeWay(set); ok {
		p = int32(set*c.ways + way)
		c.setFree(p, false)
	} else {
		p = c.orders[set].head
		evicted, wasEvicted = c.entries[p].addr, true
		c.Stats.Evictions++
		c.unlink(set, p)
		c.unindex(c.slotOf(p))
		// The shift may have opened a slot earlier in lineAddr's probe run.
		slot = c.freeSlot(lineAddr)
	}
	c.entries[p] = entry{addr: lineAddr, fill: fillAt}
	c.index[slot] = p + 1
	c.link(set, p)
	return evicted, wasEvicted
}

// setFree marks entry p invalid (free) or valid.
func (c *Cache) setFree(p int32, free bool) {
	set, way := int(p)/c.ways, int(p)%c.ways
	if free {
		c.free[set*c.words+way/64] |= 1 << (way % 64)
	} else {
		c.free[set*c.words+way/64] &^= 1 << (way % 64)
	}
}

// freeWay returns the lowest invalid way of set.
func (c *Cache) freeWay(set int) (int, bool) {
	for w, word := range c.free[set*c.words : (set+1)*c.words] {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// link appends entry p at the young end of set's replacement order.
func (c *Cache) link(set int, p int32) {
	o := &c.orders[set]
	if o.tail != none {
		c.entries[o.tail].next = p
	} else {
		o.head = p
	}
	c.entries[p].prev, c.entries[p].next = o.tail, none
	o.tail = p
}

// unlink removes entry p from set's replacement order.
func (c *Cache) unlink(set int, p int32) {
	o := &c.orders[set]
	e := &c.entries[p]
	if e.prev == none {
		o.head = e.next
	} else {
		c.entries[e.prev].next = e.next
	}
	if e.next == none {
		o.tail = e.prev
	} else {
		c.entries[e.next].prev = e.prev
	}
}

// drop removes lineAddr from the table if resident, reporting whether it
// was.
func (c *Cache) drop(lineAddr, localID int64) bool {
	set := c.setIndex(localID)
	slot, p := c.find(lineAddr, set)
	if p == none {
		return false
	}
	c.unindex(slot)
	c.unlink(set, p)
	c.setFree(p, true)
	c.entries[p].fill = 0
	return true
}

// Invalidate drops the line if present (the design invalidates on writes so
// the AMB never serves stale data). It reports whether the line was
// resident.
func (c *Cache) Invalidate(lineAddr, localID int64) bool {
	if !c.drop(lineAddr, localID) {
		return false
	}
	c.Stats.Invalidations++
	return true
}

// Scrub drops the line because a soft error poisoned it: the controller
// discards its tag so the demand access refetches from DRAM. Distinct from
// Invalidate only in accounting — scrubs measure fault-induced losses, not
// coherence traffic. It reports whether the line was resident.
func (c *Cache) Scrub(lineAddr, localID int64) bool {
	if !c.drop(lineAddr, localID) {
		return false
	}
	c.Stats.Scrubs++
	return true
}

// Housekeep ends every pending fill at or before horizon: those lines have
// landed. Fill times are compared only against later demand times, so this
// changes no timing; it keeps the set of pending fills free of history.
func (c *Cache) Housekeep(horizon clock.Time) {
	for i := range c.entries {
		if e := &c.entries[i]; e.fill != 0 && e.fill <= horizon {
			e.fill = 0
		}
	}
}

// AppendFills appends every pending fill to dst, in entry order, and
// returns the extended slice.
func (c *Cache) AppendFills(dst []Fill) []Fill {
	for i := range c.entries {
		if e := &c.entries[i]; e.fill != 0 {
			dst = append(dst, Fill{Line: e.addr, At: e.fill})
		}
	}
	return dst
}

// Occupancy returns the number of valid entries (useful for tests and
// debugging).
func (c *Cache) Occupancy() int {
	n := c.Lines()
	for _, w := range c.free {
		n -= bits.OnesCount64(w)
	}
	return n
}

// Reset clears all entries and statistics.
func (c *Cache) Reset() {
	clear(c.entries)
	clear(c.index)
	c.resetSets()
	c.Stats = Stats{}
}

// resetSets empties every set's replacement order and marks all its ways
// free.
func (c *Cache) resetSets() {
	for s := range c.orders {
		c.orders[s] = order{head: none, tail: none}
		for w := 0; w < c.words; w++ {
			n := min(c.ways-w*64, 64)
			c.free[s*c.words+w] = ^uint64(0) >> (64 - n)
		}
	}
}
