package fbdchan

// Functional-warming twins of ScheduleRead/ScheduleWrite: they mirror the
// AMB prefetch-cache tag effects of an access — lookup bookkeeping, group
// fills, write invalidations — without reserving link or bus timelines,
// advancing bank state, or drawing from the fault injector. The sampling
// tier uses them to keep AMB caches warm across functionally-executed spans
// so the first measured cycles after a span see representative hit rates.

// FunctionalRead mirrors a demand read's AMB-cache effects. On a miss with
// prefetching enabled the K-1 companion lines of the group are installed
// immediately (a timed group fetch would land them a few bursts later; with
// the clock frozen "immediately" is the faithful limit).
func (c *Channel) FunctionalRead(addr int64) {
	if !c.cfg.AMBPrefetch {
		return
	}
	loc := c.mapper.Map(addr)
	line := c.mapper.LineAddr(addr)
	amb := c.ambs[loc.DIMM]
	if _, hit := amb.LookupRead(line, c.mapper.LocalLineID(line)); hit {
		return
	}
	c.group = c.mapper.AppendGroup(c.group[:0], addr)
	for _, la := range c.group[1:] {
		amb.InsertPrefetch(la, c.mapper.LocalLineID(la)) // resident as of now
	}
}

// FunctionalWrite mirrors a write's AMB-cache effect: under the paper's
// write-invalidate design the cached copy is dropped so the AMB never
// serves stale data.
func (c *Channel) FunctionalWrite(addr int64) {
	if !c.cfg.AMBPrefetch || c.cfg.AMBWriteUpdate {
		return
	}
	loc := c.mapper.Map(addr)
	line := c.mapper.LineAddr(addr)
	c.ambs[loc.DIMM].Invalidate(line, c.mapper.LocalLineID(line))
}
