// Package cpu implements the mechanistic out-of-order core model of
// Table 1 and the cache hierarchy connecting the cores to the memory
// controller. The model is in the USIMM tradition: instructions occupy ROB
// slots and commit in order up to the issue width; loads issue their cache
// access at dispatch and block commit at the ROB head until data returns;
// stores allocate store-queue entries and never block commit; MSHR and
// queue limits bound memory-level parallelism. This reproduces the
// latency/bandwidth/MLP feedback the paper's results rest on without
// simulating instruction semantics.
package cpu

import (
	"fbdsim/internal/cache"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/hwprefetch"
	"fbdsim/internal/memctrl"
	"fbdsim/internal/memreq"
)

// waiter is one completion subscription on a missEntry. Production waiters
// are plain data — a core's ROB slot (loads) or store queue (ringIdx < 0) —
// so subscribing allocates no closure; fn is the closure escape hatch the
// closure-based Load/Store test seam uses (nil in production).
type waiter struct {
	core    int
	ringIdx int   // ROB ring slot of a load waiter; -1 for a store waiter
	seq     int64 // the load's dispatch sequence number (dependence tracking)
	fn      func(doneCycle int64)
}

// missEntry tracks one outstanding L2 miss (one cacheline) and everyone
// waiting for it. Requests to the same line coalesce into one entry, as
// MSHRs do.
type missEntry struct {
	line    int64
	core    int
	dirty   bool       // a store (RFO) is among the requesters
	sw      bool       // purely a software prefetch (no waiters)
	issued  bool       // accepted by the memory controller
	created clock.Time // MSHR allocation time, kept across Enqueue retries
	waiters []waiter
}

// wbEntry is a dirty victim line awaiting controller space, with the time
// the eviction produced it (the memtrace "created" stamp).
type wbEntry struct {
	addr    int64
	created clock.Time
}

// Hierarchy owns the shared L2, the per-core L1 data caches, the MSHR
// bookkeeping, and the writeback path. It is single-threaded: the system
// loop drives it.
type Hierarchy struct {
	cfg *config.CPU
	l1  []*cache.Cache
	l2  *cache.Cache
	mem *memctrl.Controller

	// cores indexes the registered cores by id — the delivery targets of
	// typed waiters (NewCore self-registers).
	cores []*Core

	outstanding map[int64]*missEntry
	unissued    []*missEntry // created but not yet accepted by the controller
	writebacks  []wbEntry    // dirty victim lines awaiting controller space
	wbHead      int          // first un-drained writeback (the rest were sent)

	// pool recycles memory transactions and entryFree recycles MSHR
	// records, so the steady-state miss path allocates nothing. onReadDone
	// and onWriteDone are the two completion callbacks shared by every
	// request (built once in NewHierarchy, so issuing a request allocates
	// no closure).
	pool        memreq.Pool
	entryFree   []*missEntry
	onReadDone  func(*memreq.Request)
	onWriteDone func(*memreq.Request)

	// hwpf is the optional stream prefetcher trained by demand L2 misses.
	hwpf *hwprefetch.Prefetcher

	l2MSHRInUse int
	reqID       int64
	now         clock.Time // time of the current cycle, set by Tick

	// Stats.
	DemandMisses int64 // L2 demand (load/store) misses sent to memory
	SWPrefetches int64 // software prefetches sent to memory
	HWPrefetches int64 // hardware (stream) prefetches sent to memory
	WBCount      int64 // writebacks sent to memory
	DroppedPF    int64 // prefetches dropped for lack of resources
}

// NewHierarchy builds the hierarchy for cores cores sharing one L2 in
// front of mem.
func NewHierarchy(cfg *config.CPU, cores int, mem *memctrl.Controller) *Hierarchy {
	h := &Hierarchy{
		cfg:         cfg,
		l2:          cache.New(cfg.L2KB, cfg.L2Assoc, cfg.LineBytes),
		mem:         mem,
		outstanding: make(map[int64]*missEntry),
	}
	h.l1 = make([]*cache.Cache, cores)
	for i := range h.l1 {
		h.l1[i] = cache.New(cfg.L1DataKB, cfg.L1Assoc, cfg.LineBytes)
	}
	if cfg.HardwarePrefetch {
		pc := hwprefetch.DefaultConfig()
		if cfg.HWPrefetchStreams > 0 {
			pc.Streams = cfg.HWPrefetchStreams
		}
		if cfg.HWPrefetchDegree > 0 {
			pc.Degree = cfg.HWPrefetchDegree
		}
		h.hwpf = hwprefetch.New(pc, cfg.LineBytes)
	}
	// A read completion resolves its MSHR entry through the outstanding
	// map (the request address is the entry's line), so one callback
	// serves every read ever issued.
	h.onReadDone = func(r *memreq.Request) {
		e := h.outstanding[r.Addr]
		done := r.Done
		h.pool.Put(r)
		h.complete(e, done)
	}
	h.onWriteDone = func(r *memreq.Request) { h.pool.Put(r) }
	return h
}

// HWPrefetcher exposes the hardware prefetcher for statistics (nil when
// disabled).
func (h *Hierarchy) HWPrefetcher() *hwprefetch.Prefetcher { return h.hwpf }

// L2 exposes the shared cache for statistics.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// PrewarmL2 fills every L2 frame with placeholder lines, dirtyFrac of them
// dirty. Short simulations then start from a realistic steady state — every
// demand fill causes an eviction, and dirty evictions generate writeback
// traffic from the first measured cycle instead of only after the multi-
// million-instruction ramp a 4 MB cache would otherwise need. Placeholder
// addresses live far above any core's address space so they never hit.
func (h *Hierarchy) PrewarmL2(dirtyFrac float64) {
	const base = int64(1) << 60
	sets, ways := h.l2.Sets(), h.l2.Ways()
	line := int64(h.cfg.LineBytes)
	mark := int(dirtyFrac * float64(ways))
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			addr := base + (int64(w)*int64(sets)+int64(s))*line
			h.l2.Fill(addr, w < mark)
		}
	}
	// Prewarm fills are bookkeeping, not measured behaviour.
	h.l2.Stats = cache.Stats{}
}

// L1 exposes core i's data cache for statistics.
func (h *Hierarchy) L1(i int) *cache.Cache { return h.l1[i] }

// OutstandingMisses returns the number of L2 misses in flight.
func (h *Hierarchy) OutstandingMisses() int { return len(h.outstanding) }

// registerCore records c as the delivery target for waiters carrying its
// id (NewCore calls it).
func (h *Hierarchy) registerCore(c *Core) {
	for len(h.cores) <= c.id {
		h.cores = append(h.cores, nil)
	}
	h.cores[c.id] = c
}

// deliver routes one completion to its waiter: the test-seam closure when
// present, otherwise the registered core's typed sink.
func (h *Hierarchy) deliver(w waiter, ready int64) {
	if w.fn != nil {
		w.fn(ready)
		return
	}
	c := h.cores[w.core]
	if w.ringIdx < 0 {
		c.storeDone()
	} else {
		c.loadDone(w.ringIdx, w.seq, ready)
	}
}

// Load performs core's load of addr at cycle. On success it returns true
// and guarantees onDone will be called exactly once with the data-ready
// cycle. It returns false when an L2 MSHR is unavailable; the core retries
// next cycle. Cores use LoadROB (typed, serializable waiters); this
// closure form is the direct-drive seam tests use.
func (h *Hierarchy) Load(core int, addr int64, cycle int64, onDone func(int64)) bool {
	return h.load(core, addr, cycle, waiter{core: core, fn: onDone})
}

// LoadROB is Load for a dispatched core load: the waiter is the core's ROB
// ring slot plus dispatch sequence number — plain data, so an in-flight
// miss serializes.
func (h *Hierarchy) LoadROB(core int, addr int64, cycle int64, ringIdx int, seq int64) bool {
	return h.load(core, addr, cycle, waiter{core: core, ringIdx: ringIdx, seq: seq})
}

func (h *Hierarchy) load(core int, addr int64, cycle int64, w waiter) bool {
	if h.l1[core].Access(addr, false) {
		h.deliver(w, cycle+int64(h.cfg.L1HitCycles))
		return true
	}
	line := h.l2.LineAddr(addr)
	if e, ok := h.outstanding[line]; ok {
		e.waiters = append(e.waiters, w)
		e.sw = false
		if e.core != core {
			e.core = core // fill the most recent requester's L1 too
		}
		return true
	}
	if h.l2.Access(addr, false) {
		h.fillL1(core, addr, false)
		h.deliver(w, cycle+int64(h.cfg.L2HitCycles))
		return true
	}
	return h.startMiss(core, line, false, false, w)
}

// Store performs core's store of addr (write-allocate). onDone fires when
// the store-queue entry can be released (line owned locally). Cores use
// StoreSQ; this closure form is the test seam.
func (h *Hierarchy) Store(core int, addr int64, cycle int64, onDone func(int64)) bool {
	return h.store(core, addr, cycle, waiter{core: core, ringIdx: -1, fn: onDone})
}

// StoreSQ is Store for a dispatched core store; completion releases the
// core's store-queue entry through its typed sink.
func (h *Hierarchy) StoreSQ(core int, addr int64, cycle int64) bool {
	return h.store(core, addr, cycle, waiter{core: core, ringIdx: -1})
}

func (h *Hierarchy) store(core int, addr int64, cycle int64, w waiter) bool {
	if h.l1[core].Access(addr, true) {
		h.deliver(w, cycle+int64(h.cfg.L1HitCycles))
		return true
	}
	line := h.l2.LineAddr(addr)
	if e, ok := h.outstanding[line]; ok {
		e.dirty = true
		e.sw = false
		e.waiters = append(e.waiters, w)
		return true
	}
	if h.l2.Access(addr, true) {
		h.fillL1(core, addr, true)
		h.deliver(w, cycle+int64(h.cfg.L2HitCycles))
		return true
	}
	return h.startMiss(core, line, true, false, w)
}

// Prefetch executes a software prefetch: it warms the L2 without blocking
// anything. Short of resources it is silently dropped, as hardware does.
func (h *Hierarchy) Prefetch(core int, addr int64, cycle int64) {
	h.prefetchLine(core, addr, &h.SWPrefetches)
}

// prefetchLine issues a non-binding L2 fill for addr, counting it against
// counter. Duplicate, resident or resource-starved prefetches drop.
func (h *Hierarchy) prefetchLine(core int, addr int64, counter *int64) {
	line := h.l2.LineAddr(addr)
	if _, ok := h.outstanding[line]; ok {
		return
	}
	if h.l2.Contains(addr) {
		return
	}
	if h.l2MSHRInUse >= h.cfg.L2MSHRs {
		h.DroppedPF++
		return
	}
	e := h.newEntry(line, core, false, true)
	h.outstanding[line] = e
	h.l2MSHRInUse++
	*counter++
	if !h.issue(e) {
		h.unissued = append(h.unissued, e)
	}
}

// trainHW feeds the hardware prefetcher with a demand miss and issues
// whatever it wants fetched.
func (h *Hierarchy) trainHW(core int, line int64) {
	if h.hwpf == nil {
		return
	}
	for _, a := range h.hwpf.OnMiss(line) {
		h.prefetchLine(core, a, &h.HWPrefetches)
	}
}

// startMiss allocates the MSHR and memory request for a demand miss.
func (h *Hierarchy) startMiss(core int, line int64, dirty, sw bool, w waiter) bool {
	if h.l2MSHRInUse >= h.cfg.L2MSHRs {
		return false
	}
	e := h.newEntry(line, core, dirty, sw)
	e.waiters = append(e.waiters, w)
	h.outstanding[line] = e
	h.l2MSHRInUse++
	h.DemandMisses++
	if !h.issue(e) {
		h.unissued = append(h.unissued, e)
	}
	h.trainHW(core, line)
	return true
}

// newEntry allocates an MSHR record stamped with the current time, reusing
// a freed one (and its waiters backing array) when available.
func (h *Hierarchy) newEntry(line int64, core int, dirty, sw bool) *missEntry {
	if n := len(h.entryFree); n > 0 {
		e := h.entryFree[n-1]
		h.entryFree = h.entryFree[:n-1]
		*e = missEntry{line: line, core: core, dirty: dirty, sw: sw, created: h.now, waiters: e.waiters[:0]}
		return e
	}
	return &missEntry{line: line, core: core, dirty: dirty, sw: sw, created: h.now}
}

// freeEntry recycles a completed MSHR record. Waiter records are cleared
// so the free list cannot pin dead closures.
func (h *Hierarchy) freeEntry(e *missEntry) {
	for i := range e.waiters {
		e.waiters[i] = waiter{}
	}
	h.entryFree = append(h.entryFree, e)
}

// issue hands the miss to the memory controller; false means the
// transaction buffer was full and the entry stays on the unissued list.
func (h *Hierarchy) issue(e *missEntry) bool {
	h.reqID++
	req := h.pool.Get()
	req.ID = h.reqID
	req.Addr = e.line
	req.Kind = memreq.Read
	req.Core = e.core
	req.SWPrefetch = e.sw
	req.Created = e.created
	req.OnDone = h.onReadDone
	if !h.mem.Enqueue(req, h.now) {
		h.pool.Put(req)
		return false
	}
	e.issued = true
	return true
}

// complete fills the caches and releases waiters when memory data returns.
func (h *Hierarchy) complete(e *missEntry, at clock.Time) {
	doneCycle := clock.CyclesCeil(at)
	delete(h.outstanding, e.line)
	h.l2MSHRInUse--

	var victim cache.Victim
	if e.sw {
		victim = h.l2.FillPrefetch(e.line)
	} else {
		victim = h.l2.Fill(e.line, e.dirty)
		h.fillL1(e.core, e.line, e.dirty)
	}
	if victim.Valid && victim.Dirty {
		h.writeback(victim.Addr)
	}
	ready := doneCycle + int64(h.cfg.L2HitCycles)
	for _, w := range e.waiters {
		h.deliver(w, ready)
	}
	h.freeEntry(e)
}

func (h *Hierarchy) fillL1(core int, addr int64, dirty bool) {
	v := h.l1[core].Fill(addr, dirty)
	if v.Valid && v.Dirty {
		// Dirty L1 victim folds back into the L2.
		lv := h.l2.Fill(v.Addr, true)
		if lv.Valid && lv.Dirty {
			h.writeback(lv.Addr)
		}
	}
}

// writeback queues a dirty line for memory.
func (h *Hierarchy) writeback(line int64) {
	h.writebacks = append(h.writebacks, wbEntry{addr: line, created: h.now})
}

// Tick retries unissued misses and pending writebacks; the system loop
// calls it every CPU cycle with the current time.
func (h *Hierarchy) Tick(cycle int64, now clock.Time) {
	h.now = now
	// Retry unissued demand misses first: they block cores.
	n := 0
	for _, e := range h.unissued {
		if !e.issued && !h.issue(e) {
			h.unissued[n] = e
			n++
		}
	}
	h.unissued = h.unissued[:n]

	for h.wbHead < len(h.writebacks) {
		h.reqID++
		wb := h.writebacks[h.wbHead]
		req := h.pool.Get()
		req.ID = h.reqID
		req.Addr = wb.addr
		req.Kind = memreq.Write
		req.Created = wb.created
		req.OnDone = h.onWriteDone
		if !h.mem.Enqueue(req, now) {
			h.pool.Put(req)
			break
		}
		h.WBCount++
		h.wbHead++
	}
	if h.wbHead > 0 && h.wbHead == len(h.writebacks) {
		h.writebacks = h.writebacks[:0]
		h.wbHead = 0
	}
}

// SetNow pins the hierarchy's notion of "now". The fast-forward loop calls
// it before a controller tick that follows a skipped stretch: in the
// reference loop h.now still holds the previous cycle's time at that point
// (Hierarchy.Tick runs after Controller.Tick), and writebacks created by
// completion callbacks inside the controller tick inherit that stamp.
// Reproducing it keeps memtrace output bit-identical.
func (h *Hierarchy) SetNow(now clock.Time) {
	if now < 0 {
		now = 0
	}
	h.now = now
}

// Quiescent reports whether a Tick right now would be a no-op: no unissued
// miss or pending writeback that the controller would currently accept.
// Entries blocked on a full controller queue do not count — the queue only
// drains inside a controller tick, and the controller's own next-event
// query schedules that.
func (h *Hierarchy) Quiescent() bool {
	for _, e := range h.unissued {
		if h.mem.CanAccept(e.line, memreq.Read) {
			return false
		}
	}
	if h.wbHead < len(h.writebacks) && h.mem.CanAccept(h.writebacks[h.wbHead].addr, memreq.Write) {
		return false
	}
	return true
}

// canAccept is the side-effect-free twin of Load/Store: would the access
// succeed this cycle? Hits, coalescing with an outstanding miss, and free
// MSHRs all accept; only MSHR exhaustion refuses. It must never return
// false when Load/Store would succeed (the fast-forward contract); false
// positives merely cost an executed cycle.
func (h *Hierarchy) canAccept(core int, addr int64) bool {
	if h.l1[core].Contains(addr) {
		return true
	}
	line := h.l2.LineAddr(addr)
	if _, ok := h.outstanding[line]; ok {
		return true
	}
	if h.l2.Contains(addr) {
		return true
	}
	return h.l2MSHRInUse < h.cfg.L2MSHRs
}

// CanAcceptLoad reports whether a load of addr by core would be accepted
// this cycle (no side effects).
func (h *Hierarchy) CanAcceptLoad(core int, addr int64) bool { return h.canAccept(core, addr) }

// CanAcceptStore reports whether a store of addr by core would be accepted
// this cycle (no side effects).
func (h *Hierarchy) CanAcceptStore(core int, addr int64) bool { return h.canAccept(core, addr) }

// ReplayBlockedProbes credits the cache statistics of n failed dispatch
// probes by core: each cycle the reference loop spends in the
// MSHR-exhaustion retry state performs one missing L1 lookup and one
// missing L2 lookup (no LRU or other state is touched on a miss), so the
// fast-forward loop adds the counts in bulk for the cycles it skips.
func (h *Hierarchy) ReplayBlockedProbes(core int, n int64) {
	h.l1[core].Stats.Accesses += n
	h.l1[core].Stats.Misses += n
	h.l2.Stats.Accesses += n
	h.l2.Stats.Misses += n
}
