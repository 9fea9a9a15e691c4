package memctrl

// FunctionalRead propagates the state effects of a demand read of addr in
// functional-warming mode: no queueing, no timing, no statistics beyond
// what the channel's own tag bookkeeping records. Only FB-DIMM channels
// carry warm state below the controller (AMB prefetch caches); DDR2
// channels are stateless at this level, so the call is a no-op for them.
func (c *Controller) FunctionalRead(addr int64) {
	ch := c.mapper.Channel(addr)
	if ch < len(c.fbd) && c.fbd[ch] != nil {
		c.fbd[ch].FunctionalRead(addr)
	}
}

// FunctionalWrite propagates the state effects of a write (a writeback or
// dirty eviction) in functional-warming mode; see FunctionalRead.
func (c *Controller) FunctionalWrite(addr int64) {
	ch := c.mapper.Channel(addr)
	if ch < len(c.fbd) && c.fbd[ch] != nil {
		c.fbd[ch].FunctionalWrite(addr)
	}
}
