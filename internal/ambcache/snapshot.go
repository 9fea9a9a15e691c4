package ambcache

import (
	"fbdsim/internal/config"
	"fbdsim/internal/snapshot"
)

// Snapshot serializes the prefetch buffer's mutable state: every tag
// entry, the insertion/recency tick, and the coverage statistics.
// Geometry and replacement policy are construction-derived and not
// written; neither are the index, the replacement orders and the free-way
// bitmaps, which Restore derives from the entries. Pending fill times are
// the channel's to write (see AppendFills).
func (c *Cache) Snapshot(e *snapshot.Encoder) {
	e.Int(c.sets)
	e.Int(c.ways)
	for p, en := range c.entries {
		e.I64(en.addr)
		e.Bool(c.valid(p))
		e.I64(en.seq)
		e.I64(en.use)
	}
	e.I64(c.tick)
	e.I64(c.Stats.Reads)
	e.I64(c.Stats.Hits)
	e.I64(c.Stats.Prefetched)
	e.I64(c.Stats.Evictions)
	e.I64(c.Stats.Invalidations)
	e.I64(c.Stats.Scrubs)
}

// Restore overwrites the buffer's mutable state from d, leaving no fill
// pending. The geometry must match the constructed cache.
func (c *Cache) Restore(d *snapshot.Decoder) {
	if sets, ways := d.Int(), d.Int(); sets != c.sets || ways != c.ways {
		d.Fail("ambcache: snapshot geometry %dx%d, machine %dx%d", sets, ways, c.sets, c.ways)
		return
	}
	clear(c.index)
	c.resetSets()
	for p := range c.entries {
		addr, valid := d.I64(), d.Bool()
		c.entries[p] = entry{addr: addr, seq: d.I64(), use: d.I64()}
		if !valid {
			continue
		}
		set := p / c.ways
		slot, q := c.find(addr, set)
		if q != none {
			d.Fail("ambcache: snapshot holds line %#x twice", addr)
			return
		}
		c.index[slot] = int32(p + 1)
		c.setFree(int32(p), false)
		c.linkOrdered(set, int32(p))
	}
	c.tick = d.I64()
	c.Stats = Stats{
		Reads:         d.I64(),
		Hits:          d.I64(),
		Prefetched:    d.I64(),
		Evictions:     d.I64(),
		Invalidations: d.I64(),
		Scrubs:        d.I64(),
	}
}

// linkOrdered inserts entry p into set's replacement order after every
// entry whose order tick is no larger, so that restoring the ways in
// ascending order breaks ties by way, as the victim choice did.
func (c *Cache) linkOrdered(set int, p int32) {
	k := c.orderTick(p)
	at := c.orders[set].tail
	for at != none && c.orderTick(at) > k {
		at = c.entries[at].prev
	}
	c.linkAfter(set, at, p)
}

// orderTick is the tick the replacement policy orders entry p by.
func (c *Cache) orderTick(p int32) int64 {
	if c.repl == config.LRU {
		return c.entries[p].use
	}
	return c.entries[p].seq
}
