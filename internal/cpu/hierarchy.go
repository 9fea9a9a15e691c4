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
	"fmt"

	"fbdsim/internal/cache"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/hwprefetch"
	"fbdsim/internal/memctrl"
	"fbdsim/internal/memreq"
)

// waiter is one completion subscription on an MSHR. Production waiters
// are plain data — a core's ROB slot (loads) or store queue (ringIdx < 0) —
// so subscribing allocates no closure; fn is the closure escape hatch the
// closure-based Load/Store test seam uses (nil in production).
type waiter struct {
	core    int
	ringIdx int   // ROB ring slot of a load waiter; -1 for a store waiter
	seq     int64 // the load's dispatch sequence number (dependence tracking)
	fn      func(doneCycle int64)
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

	mshrs      mshrFile
	unissued   []int32   // MSHR slots not yet accepted by the controller, oldest first
	writebacks []wbEntry // dirty victim lines awaiting controller space
	wbHead     int       // first un-drained writeback (the rest were sent)

	// pool recycles writeback transactions; reads travel in their MSHR
	// slot's request. onReadDone and onWriteDone are the two completion
	// callbacks shared by every request (built once in NewHierarchy, so
	// issuing a request allocates no closure).
	pool        memreq.Pool
	onReadDone  func(*memreq.Request)
	onWriteDone func(*memreq.Request)

	// hwpf is the optional stream prefetcher trained by demand L2 misses.
	hwpf *hwprefetch.Prefetcher

	reqID int64
	now   clock.Time // time of the current cycle, set by Tick

	// Stats.
	DemandMisses int64 // L2 demand (load/store) misses sent to memory
	SWPrefetches int64 // software prefetches sent to memory
	HWPrefetches int64 // hardware (stream) prefetches sent to memory
	WBCount      int64 // writebacks sent to memory
	DroppedPF    int64 // prefetches dropped for lack of resources
}

// NewHierarchy builds the hierarchy for cores cores sharing one L2 in
// front of mem. Everything a run's misses and writebacks use is sized here:
// the MSHR file with room for one waiter per load- and store-queue entry,
// the writeback pool for full controller write queues, and the
// controller's completion heap for a read per MSHR.
func NewHierarchy(cfg *config.CPU, cores int, mem *memctrl.Controller) *Hierarchy {
	h := &Hierarchy{
		cfg:      cfg,
		l2:       cache.New(cfg.L2KB, cfg.L2Assoc, cfg.LineBytes),
		mem:      mem,
		mshrs:    newMSHRFile(cfg.L2MSHRs, cores*(cfg.LQEntries+cfg.SQEntries)),
		unissued: make([]int32, 0, cfg.L2MSHRs),
		// A victim per MSHR; the bench workloads keep at most five waiting.
		writebacks: make([]wbEntry, 0, cfg.L2MSHRs),
	}
	h.pool.Grow(mem.WriteRoom())
	mem.ReserveReads(cfg.L2MSHRs)
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
	// A read completion finds its MSHR slot through the line index (the
	// request address is the slot's line), so one callback serves every
	// read ever issued.
	h.onReadDone = func(r *memreq.Request) {
		s := h.mshrs.find(r.Addr)
		if s == none || &h.mshrs.slots[s].req != r {
			panic(fmt.Sprintf("cpu: read %d completed for line %#x, which has no busy MSHR slot issuing it", r.ID, r.Addr))
		}
		h.complete(s, r.Done)
	}
	h.onWriteDone = func(r *memreq.Request) { h.pool.Put(r) }
	return h
}

// HWPrefetcher exposes the hardware prefetcher for statistics (nil when
// disabled).
func (h *Hierarchy) HWPrefetcher() *hwprefetch.Prefetcher { return h.hwpf }

// L2 exposes the shared cache for statistics.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// PrewarmL2 fills every L2 frame with placeholder lines, the first
// int(dirtyFrac·ways) ways of each set dirty (the dirty share is rounded
// down per set). Short simulations then start from a realistic steady
// state — every demand fill causes an eviction, and dirty evictions
// generate writeback traffic from the first measured cycle instead of only
// after the multi-million-instruction ramp a 4 MB cache would otherwise
// need. Placeholder addresses live far above any core's address space so
// they never hit.
func (h *Hierarchy) PrewarmL2(dirtyFrac float64) {
	h.l2.Prewarm(1<<60, dirtyFrac)
}

// L1 exposes core i's data cache for statistics.
func (h *Hierarchy) L1(i int) *cache.Cache { return h.l1[i] }

// OutstandingMisses returns the number of L2 misses in flight.
func (h *Hierarchy) OutstandingMisses() int { return h.mshrs.inUse() }

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
// next cycle. Cores use LoadROB, whose waiter allocates no closure; this
// closure form is the direct-drive seam tests use.
func (h *Hierarchy) Load(core int, addr int64, cycle int64, onDone func(int64)) bool {
	return h.load(core, addr, cycle, waiter{core: core, fn: onDone})
}

// LoadROB is Load for a dispatched core load: the waiter is the core's ROB
// ring slot plus dispatch sequence number — plain data, so subscribing to
// a miss allocates no closure.
func (h *Hierarchy) LoadROB(core int, addr int64, cycle int64, ringIdx int, seq int64) bool {
	return h.load(core, addr, cycle, waiter{core: core, ringIdx: ringIdx, seq: seq})
}

func (h *Hierarchy) load(core int, addr int64, cycle int64, w waiter) bool {
	if h.l1[core].Access(addr, false) {
		h.deliver(w, cycle+int64(h.cfg.L1HitCycles))
		return true
	}
	line := h.l2.LineAddr(addr)
	if s := h.mshrs.find(line); s != none {
		h.mshrs.addWaiter(s, w)
		m := &h.mshrs.slots[s]
		m.sw = false
		m.core = core // fill the most recent requester's L1 too
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
	if s := h.mshrs.find(line); s != none {
		m := &h.mshrs.slots[s]
		m.dirty = true
		m.sw = false
		h.mshrs.addWaiter(s, w)
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
	if h.mshrs.find(line) != none {
		return
	}
	if h.l2.Contains(addr) {
		return
	}
	if h.mshrs.full() {
		h.DroppedPF++
		return
	}
	s := h.mshrs.alloc(line, core, false, true, h.now)
	*counter++
	if !h.issue(s) {
		h.unissued = append(h.unissued, s)
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

// startMiss allocates the MSHR slot for a demand miss and sends its read.
func (h *Hierarchy) startMiss(core int, line int64, dirty, sw bool, w waiter) bool {
	if h.mshrs.full() {
		return false
	}
	s := h.mshrs.alloc(line, core, dirty, sw, h.now)
	h.mshrs.addWaiter(s, w)
	h.DemandMisses++
	if !h.issue(s) {
		h.unissued = append(h.unissued, s)
	}
	h.trainHW(core, line)
	return true
}

// issue hands slot s's miss to the memory controller in the slot's own
// request; false means the transaction buffer was full and the slot stays
// on the unissued list.
func (h *Hierarchy) issue(s int32) bool {
	h.reqID++
	m := &h.mshrs.slots[s]
	m.req = memreq.Request{
		ID:         h.reqID,
		Addr:       m.line,
		Kind:       memreq.Read,
		Core:       m.core,
		SWPrefetch: m.sw,
		Created:    m.created,
		OnDone:     h.onReadDone,
	}
	return h.mem.Enqueue(&m.req, h.now)
}

// complete frees slot s, fills the caches and releases its waiters, in
// arrival order, when memory data returns.
func (h *Hierarchy) complete(s int32, at clock.Time) {
	doneCycle := clock.CyclesCeil(at)
	m := &h.mshrs.slots[s]
	line, core, dirty, sw, next := m.line, m.core, m.dirty, m.sw, m.first
	h.mshrs.release(s)

	var victim cache.Victim
	if sw {
		victim = h.l2.FillPrefetch(line)
	} else {
		victim = h.l2.Fill(line, dirty)
		h.fillL1(core, line, dirty)
	}
	if victim.Valid && victim.Dirty {
		h.writeback(victim.Addr)
	}
	ready := doneCycle + int64(h.cfg.L2HitCycles)
	for next != none {
		l := h.mshrs.links[next]
		h.mshrs.freeLink(next)
		h.deliver(l.w, ready)
		next = l.next
	}
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
	for _, s := range h.unissued {
		if !h.issue(s) {
			h.unissued[n] = s
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
	for _, s := range h.unissued {
		if h.mem.CanAccept(h.mshrs.slots[s].line, memreq.Read) {
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
	if h.mshrs.find(line) != none {
		return true
	}
	if h.l2.Contains(addr) {
		return true
	}
	return !h.mshrs.full()
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
