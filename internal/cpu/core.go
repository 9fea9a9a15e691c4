package cpu

import (
	"fmt"

	"fbdsim/internal/config"
	"fbdsim/internal/trace"
)

// robItem is one reorder-buffer record: a run of freely-committing
// instructions (gapBefore) optionally followed by one load that must wait
// for its data. Stores and prefetches commit freely and are folded into the
// gap; only loads can stall the ROB head.
type robItem struct {
	gapBefore int
	hasOp     bool
	done      bool
	doneCycle int64
}

// Core is one out-of-order processor core running a trace.
type Core struct {
	cfg  *config.CPU
	id   int
	gen  trace.Generator
	hier *Hierarchy

	// ROB as a ring of robItems; items never move, so callbacks may hold
	// indices.
	ring     []robItem
	head, n  int
	robCount int // instructions currently in the ROB

	lqInUse int
	sqInUse int

	// Dispatch stream state.
	cur       trace.Item
	gapLeft   int
	opPending bool // cur's op has not been dispatched yet

	// Dependent loads (Item.Dep) wait for their producer's data. Each
	// dispatched load gets the next loadSeq; lastLoadDone reports whether
	// the load carrying lastLoadSeq has completed. Plain data (rather than
	// a shared *bool flipped by a closure), so tracking a dependence
	// allocates nothing.
	loadSeq      int64
	lastLoadSeq  int64
	lastLoadDone bool

	// kept is the NextEventCycle answer the core keeps while it is blocked
	// on its own state (0 when it keeps none): until the cycle it names,
	// only a load or store completion can change what Tick would do, and
	// loadDone and storeDone drop it, as do Tick and FunctionalAdvance.
	kept int64

	// Committed is the cumulative number of committed instructions.
	Committed int64
}

// NewCore builds core id fed by gen and backed by hier.
func NewCore(cfg *config.CPU, id int, gen trace.Generator, hier *Hierarchy) *Core {
	c := &Core{
		cfg:          cfg,
		id:           id,
		gen:          gen,
		hier:         hier,
		ring:         make([]robItem, cfg.ROBEntries+2),
		lastLoadDone: true, // no producer load outstanding yet
	}
	hier.registerCore(c)
	c.fetchNext()
	return c
}

func (c *Core) fetchNext() {
	c.gen.Next(&c.cur)
	c.gapLeft = c.cur.Gap
	c.opPending = true
}

// wrap maps a ring index in [0, 2*len(c.ring)) into the ring with a
// compare instead of %.
func (c *Core) wrap(i int) int {
	if i >= len(c.ring) {
		i -= len(c.ring)
	}
	return i
}

func (c *Core) tailIndex() int { return c.wrap(c.head + c.n - 1) }

// addGap appends d freely-committing instructions to the ROB tail.
func (c *Core) addGap(d int) {
	if c.n > 0 {
		t := &c.ring[c.tailIndex()]
		if !t.hasOp {
			t.gapBefore += d
			c.robCount += d
			return
		}
	}
	c.push(robItem{gapBefore: d})
	c.robCount += d
}

// addLoad appends a load record and returns its ring index for the
// completion callback.
func (c *Core) addLoad() int {
	if c.n > 0 {
		t := c.tailIndex()
		if !c.ring[t].hasOp {
			c.ring[t].hasOp = true
			c.ring[t].done = false
			c.robCount++
			return t
		}
	}
	c.push(robItem{hasOp: true})
	c.robCount++
	return c.tailIndex()
}

func (c *Core) push(it robItem) {
	if c.n == len(c.ring) {
		panic(fmt.Sprintf("cpu: core %d ROB ring overflow", c.id))
	}
	c.ring[c.wrap(c.head+c.n)] = it
	c.n++
}

// Tick advances the core one CPU cycle: in-order commit from the ROB head,
// then dispatch of new instructions while resources allow.
func (c *Core) Tick(cycle int64) {
	c.kept = 0
	c.commit(cycle)
	c.dispatch(cycle)
}

// waitsExternal is the NextEventCycle sentinel for "blocked until a memory
// completion callback fires". Completions only fire inside controller
// ticks, which the system loop schedules from the controller's own
// next-event query, so a core reporting waitsExternal never needs a wakeup
// of its own.
const waitsExternal = int64(1)<<62 - 1

// NextEventCycle reports the earliest cycle at or after next whose Tick
// could change core state, assuming no memory completion callback fires
// before then. It returns next itself when the core can make progress
// immediately, the ROB head's data-ready cycle when commit is the only
// thing pending, and waitsExternal when the core is fully blocked on the
// memory system. The estimate is conservative: it may return an earlier
// cycle than the true next event (costing a wasted tick), never a later
// one — that is the contract that keeps the fast-forward loop bit-identical
// to the reference loop.
//
// An answer after next is kept while the core is blocked on its own state
// (RetryProbesCache false): later queries return it without looking again,
// and Kept exposes it so the fast-forward loop can skip the core's ticks
// before it.
func (c *Core) NextEventCycle(next int64) int64 {
	if c.kept > 0 && c.kept >= next {
		return c.kept
	}
	w := c.nextEvent(next)
	if w > next && !c.RetryProbesCache() {
		c.kept = w
	}
	return w
}

// Kept returns the NextEventCycle answer the core keeps, or 0 when it keeps
// none. A Tick before the kept cycle would change nothing.
func (c *Core) Kept() int64 { return c.kept }

// nextEvent computes NextEventCycle's answer.
func (c *Core) nextEvent(next int64) int64 {
	wake := waitsExternal
	if c.n > 0 {
		it := &c.ring[c.head]
		if it.gapBefore > 0 || !it.hasOp {
			return next // free-committing instructions (or an empty record) at the head
		}
		if it.done {
			if it.doneCycle <= next {
				return next // head load's data is ready: commit proceeds
			}
			wake = it.doneCycle
		}
	}
	if c.robCount < c.cfg.ROBEntries {
		if c.gapLeft > 0 || !c.opPending {
			return next // plain instructions still to dispatch
		}
		if c.canDispatchOp() {
			return next
		}
	}
	return wake
}

// canDispatchOp mirrors dispatchOp's resource checks without side effects.
// It must never report false when dispatchOp would succeed (that would let
// the system skip a dispatch); reporting true when dispatchOp would fail
// merely costs an extra executed cycle.
func (c *Core) canDispatchOp() bool {
	switch c.cur.Op {
	case trace.Load:
		if c.lqInUse >= c.cfg.LQEntries {
			return false
		}
		if c.cur.Dep && !c.lastLoadDone {
			return false
		}
		return c.hier.CanAcceptLoad(c.id, c.cur.Addr)
	case trace.Store:
		if c.sqInUse >= c.cfg.SQEntries {
			return false
		}
		return c.hier.CanAcceptStore(c.id, c.cur.Addr)
	default: // a prefetch (or its NOP stand-in) always dispatches
		return true
	}
}

// RetryProbesCache reports whether the core is blocked in the one dispatch
// state that touches the cache hierarchy every cycle: an op that clears the
// queue and dependence checks but is refused by the hierarchy (MSHR
// exhaustion). The reference loop pays a failed L1 and L2 lookup — and
// their statistics — for each such cycle; the fast-forward loop replays
// those counts in bulk via Hierarchy.ReplayBlockedProbes. Only meaningful
// when NextEventCycle did not report immediate progress.
func (c *Core) RetryProbesCache() bool {
	if c.robCount >= c.cfg.ROBEntries || c.gapLeft > 0 || !c.opPending {
		return false
	}
	switch c.cur.Op {
	case trace.Load:
		if c.lqInUse >= c.cfg.LQEntries {
			return false
		}
		return !(c.cur.Dep && !c.lastLoadDone)
	case trace.Store:
		return c.sqInUse < c.cfg.SQEntries
	default:
		return false
	}
}

func (c *Core) commit(cycle int64) {
	budget := c.cfg.IssueWidth
	for budget > 0 && c.n > 0 {
		it := &c.ring[c.head]
		if it.gapBefore > 0 {
			d := it.gapBefore
			if d > budget {
				d = budget
			}
			it.gapBefore -= d
			c.robCount -= d
			c.Committed += int64(d)
			budget -= d
			if budget == 0 {
				break
			}
		}
		if !it.hasOp {
			c.head = c.wrap(c.head + 1)
			c.n--
			continue
		}
		if !it.done || it.doneCycle > cycle {
			break // load at head still waiting for data
		}
		c.robCount--
		c.Committed++
		c.lqInUse--
		budget--
		c.head = c.wrap(c.head + 1)
		c.n--
	}
}

func (c *Core) dispatch(cycle int64) {
	budget := c.cfg.IssueWidth
	for budget > 0 && c.robCount < c.cfg.ROBEntries {
		if c.gapLeft > 0 {
			d := c.gapLeft
			if d > budget {
				d = budget
			}
			if room := c.cfg.ROBEntries - c.robCount; d > room {
				d = room
			}
			c.addGap(d)
			c.gapLeft -= d
			budget -= d
			continue
		}
		if !c.opPending {
			c.fetchNext()
			continue
		}
		if !c.dispatchOp(cycle) {
			return // resource-blocked; retry next cycle
		}
		budget--
		c.opPending = false
		c.fetchNext()
	}
}

// dispatchOp issues the current memory operation; false means a structural
// resource (LQ, SQ, MSHR) is unavailable this cycle.
func (c *Core) dispatchOp(cycle int64) bool {
	switch c.cur.Op {
	case trace.Load:
		if c.lqInUse >= c.cfg.LQEntries {
			return false
		}
		if c.cur.Dep && !c.lastLoadDone {
			return false // producer load still outstanding
		}
		idx := c.addLoad()
		c.loadSeq++
		// Arm the dependence tracker before issuing: a hit completes
		// synchronously inside LoadROB and must find its own seq armed.
		prevSeq, prevDone := c.lastLoadSeq, c.lastLoadDone
		c.lastLoadSeq, c.lastLoadDone = c.loadSeq, false
		if !c.hier.LoadROB(c.id, c.cur.Addr, cycle, idx, c.loadSeq) {
			// Roll the speculative ROB entry back; no MSHR was free.
			c.unwindLoad(idx)
			c.loadSeq--
			c.lastLoadSeq, c.lastLoadDone = prevSeq, prevDone
			return false
		}
		c.lqInUse++
		return true

	case trace.Store:
		if c.sqInUse >= c.cfg.SQEntries {
			return false
		}
		if !c.hier.StoreSQ(c.id, c.cur.Addr, cycle) {
			return false
		}
		c.sqInUse++
		c.addGap(1) // stores commit without blocking
		return true

	case trace.Prefetch:
		if c.cfg.SoftwarePrefetch {
			c.hier.Prefetch(c.id, c.cur.Addr, cycle)
		}
		c.addGap(1) // a prefetch (or its NOP stand-in) commits freely
		return true

	default:
		panic(fmt.Sprintf("cpu: unknown op %v", c.cur.Op))
	}
}

// loadDone is the hierarchy's completion sink for a dispatched load: the
// data for the load in ring slot idx (dispatch sequence seq) is ready at
// cycle ready. Called synchronously for cache hits, from a miss entry's
// waiter list otherwise.
func (c *Core) loadDone(idx int, seq int64, ready int64) {
	c.kept = 0
	c.ring[idx].done = true
	c.ring[idx].doneCycle = ready
	if seq == c.lastLoadSeq {
		c.lastLoadDone = true
	}
}

// storeDone releases the store-queue entry of a completed store.
func (c *Core) storeDone() {
	c.kept = 0
	c.sqInUse--
}

// unwindLoad removes the just-added load record (it must be the tail).
func (c *Core) unwindLoad(idx int) {
	if idx != c.tailIndex() || !c.ring[idx].hasOp {
		panic("cpu: unwind of non-tail load")
	}
	c.ring[idx].hasOp = false
	c.robCount--
	if c.ring[idx].gapBefore == 0 {
		c.n--
	}
}

// ROBOccupancy reports instructions currently in flight (diagnostics).
func (c *Core) ROBOccupancy() int { return c.robCount }

// LQInUse and SQInUse expose queue occupancy for tests.
func (c *Core) LQInUse() int { return c.lqInUse }
func (c *Core) SQInUse() int { return c.sqInUse }
