package fbdchan

import (
	"cmp"
	"slices"

	"fbdsim/internal/ambcache"
	"fbdsim/internal/clock"
	"fbdsim/internal/snapshot"
)

// Snapshot serializes the channel's mutable state: link and DIMM-bus
// timelines, bank FSMs, AMB caches, the prefetches still in transit and the
// accumulated counters. Geometry and timing are construction-derived and
// not written. The fault injector is owned (and serialized) by the
// controller, which shares it across channels.
func (c *Channel) Snapshot(e *snapshot.Encoder) {
	c.south.Snapshot(e)
	c.north.Snapshot(e)
	e.Int(len(c.dimmBus))
	for _, b := range c.dimmBus {
		b.Snapshot(e)
	}
	e.Int(len(c.dimms))
	for _, d := range c.dimms {
		d.Snapshot(e)
	}
	e.Bool(c.ambs != nil)
	for _, a := range c.ambs {
		a.Snapshot(e)
	}
	// Pending fills are written in line order, across all AMBs.
	var fills []ambcache.Fill
	for _, a := range c.ambs {
		fills = a.AppendFills(fills)
	}
	slices.SortFunc(fills, func(a, b ambcache.Fill) int { return cmp.Compare(a.Line, b.Line) })
	e.Int(len(fills))
	for _, f := range fills {
		e.I64(f.Line)
		e.I64(int64(f.At))
	}
	c.Counters.Snapshot(e)
	e.I64(c.Links.BytesNorth)
	e.I64(c.Links.BytesSouth)
	e.I64(c.BankConflicts)
	e.I64(int64(c.lastCmdAt))
	e.I64(int64(c.lastServiceAt))
}

// Restore overwrites the channel's mutable state from d. Structural counts
// must match the constructed configuration.
func (c *Channel) Restore(d *snapshot.Decoder) {
	c.south.Restore(d)
	c.north.Restore(d)
	if n := d.Int(); n != len(c.dimmBus) {
		d.Fail("fbdchan: snapshot has %d DIMM buses, machine has %d", n, len(c.dimmBus))
		return
	}
	for _, b := range c.dimmBus {
		b.Restore(d)
	}
	if n := d.Int(); n != len(c.dimms) {
		d.Fail("fbdchan: snapshot has %d DIMMs, machine has %d", n, len(c.dimms))
		return
	}
	for _, dimm := range c.dimms {
		dimm.Restore(d)
	}
	if haveAMB := d.Bool(); haveAMB != (c.ambs != nil) {
		d.Fail("fbdchan: snapshot AMB caches %v, machine %v", haveAMB, c.ambs != nil)
		return
	}
	for _, a := range c.ambs {
		a.Restore(d)
	}
	// A pending fill belongs to a resident line: the caches restored just
	// above must hold every one.
	n := d.Count(16)
	for i := 0; i < n; i++ {
		line, at := d.I64(), clock.Time(d.I64())
		if c.ambs == nil || line < 0 ||
			!c.ambs[c.mapper.Map(line).DIMM].SetFill(line, c.mapper.LocalLineID(line), at) {
			d.Fail("fbdchan: snapshot has a pending fill for line %#x, which is not resident in its AMB cache", line)
			return
		}
	}
	c.Counters.Restore(d)
	c.Links = LinkStats{BytesNorth: d.I64(), BytesSouth: d.I64()}
	c.BankConflicts = d.I64()
	c.lastCmdAt = clock.Time(d.I64())
	c.lastServiceAt = clock.Time(d.I64())
}
