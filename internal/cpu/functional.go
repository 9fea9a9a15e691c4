package cpu

import "fbdsim/internal/trace"

// This file is the functional-warming mode of the core model: the sampling
// tier (internal/sample) alternates detailed measured windows with long
// functionally-executed spans, so caches, the AMB prefetch caches and the
// hardware prefetcher stay warm while the channel and DRAM timing models are
// bypassed entirely. A functional span does not advance the simulated clock
// and does not touch the ROB, the load/store queues, the MSHRs or the
// memory-controller queues — in-flight detailed state stays valid and
// completes normally when detailed stepping resumes. Only two things change:
// the trace-stream position (the same instructions a detailed run would
// execute, in the same order) and the cache/prefetcher tag state those
// instructions would leave behind.

// FunctionalAdvance commits n instructions from the core's trace stream
// without timing: gap instructions are counted, memory operations execute
// their cache-state effects instantly through the hierarchy's functional
// path. The dispatch-stream cursor (cur/gapLeft/opPending) stays coherent,
// so a later detailed Tick resumes from the exact stream position.
func (c *Core) FunctionalAdvance(n int64) {
	c.kept = 0 // the dispatch cursor moves outside Tick
	for n > 0 {
		if c.gapLeft > 0 {
			d := int64(c.gapLeft)
			if d > n {
				d = n
			}
			c.gapLeft -= int(d)
			c.Committed += d
			n -= d
			continue
		}
		if !c.opPending {
			c.fetchNext()
			continue
		}
		switch c.cur.Op {
		case trace.Load:
			c.hier.FunctionalAccess(c.id, c.cur.Addr, false)
		case trace.Store:
			c.hier.FunctionalAccess(c.id, c.cur.Addr, true)
		case trace.Prefetch:
			if c.cfg.SoftwarePrefetch {
				c.hier.FunctionalPrefetch(c.id, c.cur.Addr)
			}
		}
		c.opPending = false
		c.Committed++
		n--
	}
}

// FunctionalAccess performs one load (store=false) or store (store=true) in
// functional-warming mode: cache lookups and fills happen instantly, misses
// propagate their tag effects down to the memory model's functional path,
// and nothing is timed or queued. Lines with an in-flight detailed miss are
// skipped — the pending completion will install them.
func (h *Hierarchy) FunctionalAccess(core int, addr int64, store bool) {
	if h.l1[core].Access(addr, store) {
		return
	}
	line := h.l2.LineAddr(addr)
	if h.mshrs.find(line) != none {
		return
	}
	if h.l2.Access(addr, store) {
		h.functionalFillL1(core, addr, store)
		return
	}
	h.DemandMisses++
	h.mem.FunctionalRead(line)
	if v := h.l2.Fill(line, store); v.Valid && v.Dirty {
		h.mem.FunctionalWrite(v.Addr)
		h.WBCount++
	}
	h.functionalFillL1(core, addr, store)
	if h.hwpf != nil {
		for _, a := range h.hwpf.OnMiss(line) {
			h.functionalPrefetchLine(a, &h.HWPrefetches)
		}
	}
}

// FunctionalPrefetch is the functional twin of Prefetch (software prefetch
// hints during a functional span).
func (h *Hierarchy) FunctionalPrefetch(core int, addr int64) {
	h.functionalPrefetchLine(addr, &h.SWPrefetches)
}

// functionalPrefetchLine installs a prefetched line instantly, mirroring
// prefetchLine minus the MSHR/issue machinery (functional spans have no
// resource limits to model).
func (h *Hierarchy) functionalPrefetchLine(addr int64, counter *int64) {
	line := h.l2.LineAddr(addr)
	if h.mshrs.find(line) != none {
		return
	}
	if h.l2.Contains(addr) {
		return
	}
	*counter++
	h.mem.FunctionalRead(line)
	if v := h.l2.FillPrefetch(line); v.Valid && v.Dirty {
		h.mem.FunctionalWrite(v.Addr)
		h.WBCount++
	}
}

// functionalFillL1 mirrors fillL1 but routes dirty L2 victims straight to
// the memory model's functional write path instead of the timed writeback
// queue.
func (h *Hierarchy) functionalFillL1(core int, addr int64, dirty bool) {
	v := h.l1[core].Fill(addr, dirty)
	if v.Valid && v.Dirty {
		lv := h.l2.Fill(v.Addr, true)
		if lv.Valid && lv.Dirty {
			h.mem.FunctionalWrite(lv.Addr)
			h.WBCount++
		}
	}
}
