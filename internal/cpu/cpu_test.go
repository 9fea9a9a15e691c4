package cpu

import (
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/memctrl"
	"fbdsim/internal/trace"
)

// script replays a fixed item sequence, then repeats its last item forever.
type script struct {
	items []trace.Item
	pos   int
}

func (s *script) Next(it *trace.Item) {
	if s.pos < len(s.items) {
		*it = s.items[s.pos]
		s.pos++
		return
	}
	*it = s.items[len(s.items)-1]
}

// loop cycles through items forever.
type loop struct {
	items []trace.Item
	pos   int
}

func (l *loop) Next(it *trace.Item) {
	*it = l.items[l.pos%len(l.items)]
	l.pos++
}

// rig wires one or more cores to a real memory controller.
type rig struct {
	cfg   config.Config
	ctrl  *memctrl.Controller
	hier  *Hierarchy
	cores []*Core
	cycle int64
	ratio int64
}

func newRig(t *testing.T, gens []trace.Generator, mutate func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Default()
	cfg.CPU.Cores = len(gens)
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	r := &rig{cfg: cfg, ratio: int64(clock.CPUCyclesPerTCK(cfg.Mem.DataRate))}
	r.ctrl = memctrl.New(&r.cfg.Mem)
	r.hier = NewHierarchy(&r.cfg.CPU, len(gens), r.ctrl)
	for i, g := range gens {
		r.cores = append(r.cores, NewCore(&r.cfg.CPU, i, g, r.hier))
	}
	return r
}

func (r *rig) step(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		now := clock.Time(r.cycle) * clock.CPUCycle
		if r.cycle%r.ratio == 0 {
			r.ctrl.Tick(now)
		}
		r.hier.Tick(r.cycle, now)
		for _, c := range r.cores {
			c.Tick(r.cycle)
		}
		r.cycle++
	}
}

// TestComputeBoundIPC: with no memory operations beyond an L1-resident
// address, the core sustains nearly the full issue width.
func TestComputeBoundIPC(t *testing.T) {
	gen := &loop{items: []trace.Item{{Gap: 63, Op: trace.Load, Addr: 0}}}
	r := newRig(t, []trace.Generator{gen}, nil)
	r.step(500) // absorb the single cold miss
	start := r.cores[0].Committed
	r.step(2000)
	ipc := float64(r.cores[0].Committed-start) / 2000
	if ipc < 7.5 {
		t.Errorf("compute-bound IPC = %.2f, want near issue width 8", ipc)
	}
}

// TestLoadMissBlocksCommit: a single missing load stalls the core for the
// full memory latency.
func TestLoadMissBlocksCommit(t *testing.T) {
	gen := &script{items: []trace.Item{
		{Gap: 0, Op: trace.Load, Addr: 1 << 30},
		{Gap: 1 << 30, Op: trace.Load, Addr: 0}, // effectively: compute forever
	}}
	r := newRig(t, []trace.Generator{gen}, nil)
	r.step(4)
	if r.cores[0].Committed != 0 {
		t.Fatalf("committed %d before miss returned", r.cores[0].Committed)
	}
	// Miss latency is ~63ns + L2 fill = ~78ns ≈ 315 cycles.
	r.step(400)
	if r.cores[0].Committed == 0 {
		t.Fatal("core never unblocked")
	}
}

// TestMLPOverlapsIndependentMisses: N independent misses complete in far
// less than N serial latencies.
func TestMLPOverlapsIndependentMisses(t *testing.T) {
	var items []trace.Item
	for i := 1; i <= 8; i++ {
		// Consecutive lines spread across channels/DIMMs/banks under
		// cacheline interleaving: genuinely independent resources.
		items = append(items, trace.Item{Gap: 0, Op: trace.Load, Addr: int64(i) * 64})
	}
	items = append(items, trace.Item{Gap: 1 << 30, Op: trace.Load, Addr: 1 << 40})
	r := newRig(t, []trace.Generator{&script{items: items}}, nil)
	// Serial would need 8 x ~300 = 2400 cycles; overlap finishes well under.
	r.step(1200)
	if got := r.cores[0].Committed; got < 9 {
		t.Errorf("committed %d; independent misses did not overlap", got)
	}
}

// TestDependentLoadsSerialize: the same misses with Dep set take roughly N
// serial latencies.
func TestDependentLoadsSerialize(t *testing.T) {
	mk := func(dep bool) *script {
		var items []trace.Item
		for i := 1; i <= 4; i++ {
			items = append(items, trace.Item{Op: trace.Load, Addr: int64(i) * 64, Dep: dep && i > 1})
		}
		items = append(items, trace.Item{Gap: 1 << 30, Op: trace.Load, Addr: 1 << 40})
		return &script{items: items}
	}
	indep := newRig(t, []trace.Generator{mk(false)}, nil)
	dep := newRig(t, []trace.Generator{mk(true)}, nil)

	cyclesTo := func(r *rig, n int64) int64 {
		for r.cycle < 100000 {
			r.step(50)
			if r.cores[0].Committed >= n {
				return r.cycle
			}
		}
		t.Fatal("never committed enough")
		return 0
	}
	ci := cyclesTo(indep, 5)
	cd := cyclesTo(dep, 5)
	if cd < ci*2 {
		t.Errorf("dependent chain (%d cycles) should be far slower than independent (%d)", cd, ci)
	}
}

// TestLQLimit: outstanding loads never exceed the load-queue size.
func TestLQLimit(t *testing.T) {
	var items []trace.Item
	for i := 0; i < 200; i++ {
		items = append(items, trace.Item{Op: trace.Load, Addr: int64(i) * 4096})
	}
	r := newRig(t, []trace.Generator{&script{items: items}}, func(c *config.Config) {
		c.CPU.LQEntries = 8
	})
	for i := 0; i < 100; i++ {
		r.step(10)
		if got := r.cores[0].LQInUse(); got > 8 {
			t.Fatalf("LQ occupancy %d exceeds limit", got)
		}
	}
}

// TestSQLimit: outstanding stores never exceed the store-queue size, and
// stores do not block commit once accepted.
func TestSQLimit(t *testing.T) {
	var items []trace.Item
	for i := 0; i < 200; i++ {
		items = append(items, trace.Item{Op: trace.Store, Addr: int64(i) * 4096})
	}
	r := newRig(t, []trace.Generator{&script{items: items}}, func(c *config.Config) {
		c.CPU.SQEntries = 8
	})
	for i := 0; i < 200; i++ {
		r.step(10)
		if got := r.cores[0].SQInUse(); got > 8 {
			t.Fatalf("SQ occupancy %d exceeds limit", got)
		}
	}
	if r.cores[0].Committed == 0 {
		t.Error("stores must commit without blocking")
	}
}

// TestKeptAnswerDroppedByCompletion: a core blocked on its own full load
// or store queue keeps its NextEventCycle answer, and the completion that
// frees the queue drops it with no Tick in between, as when the
// fast-forward loop skips the core's ticks.
func TestKeptAnswerDroppedByCompletion(t *testing.T) {
	for _, op := range []trace.Op{trace.Load, trace.Store} {
		var items []trace.Item
		for i := 1; i <= 4; i++ {
			items = append(items, trace.Item{Op: op, Addr: int64(i) << 20})
		}
		r := newRig(t, []trace.Generator{&script{items: items}}, func(c *config.Config) {
			c.CPU.LQEntries, c.CPU.SQEntries = 1, 1
		})
		c := r.cores[0]
		r.step(2)
		if w := c.NextEventCycle(r.cycle); w != waitsExternal || c.Kept() != w {
			t.Fatalf("%v: blocked core answers %d and keeps %d, want both %d", op, w, c.Kept(), waitsExternal)
		}
		for c.Kept() != 0 {
			if r.cycle > 5_000 {
				t.Fatalf("%v: no completion dropped the kept answer by cycle %d", op, r.cycle)
			}
			now := clock.Time(r.cycle) * clock.CPUCycle
			if r.cycle%r.ratio == 0 {
				r.ctrl.Tick(now)
			}
			r.hier.Tick(r.cycle, now)
			r.cycle++
		}
		if w := c.NextEventCycle(r.cycle); w >= waitsExternal {
			t.Fatalf("%v: after its completion the core still waits for memory", op)
		}
	}
}

// TestROBNeverOverflows across a mixed workload.
func TestROBNeverOverflows(t *testing.T) {
	p, err := trace.ProfileFor("swim")
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewSynthetic(p, 0, 42)
	r := newRig(t, []trace.Generator{gen}, nil)
	for i := 0; i < 300; i++ {
		r.step(20)
		if got := r.cores[0].ROBOccupancy(); got > r.cfg.CPU.ROBEntries {
			t.Fatalf("ROB occupancy %d exceeds %d", got, r.cfg.CPU.ROBEntries)
		}
	}
}

// ------------------------------------------------------------- hierarchy

// TestHierarchyHitLatencies checks the L1 and L2 hit paths.
func TestHierarchyHitLatencies(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier

	var ready int64 = -1
	// Cold: miss (returns true, completes later).
	if !h.Load(0, 0, 0, func(c int64) { ready = c }) {
		t.Fatal("load rejected")
	}
	r.step(500)
	if ready < 0 {
		t.Fatal("miss never completed")
	}

	// Now L1-resident.
	ready = -1
	h.Load(0, 0, r.cycle, func(c int64) { ready = c })
	if ready != r.cycle+3 {
		t.Errorf("L1 hit ready at %d, want cycle+3", ready-r.cycle)
	}

	// Evict from L1 only: a second line in the same L1 set... simpler:
	// use a fresh address that is L2-resident after prefetch.
	h.Prefetch(0, 1<<20, r.cycle)
	r.step(500)
	ready = -1
	h.Load(0, 1<<20, r.cycle, func(c int64) { ready = c })
	if ready != r.cycle+15 {
		t.Errorf("L2 hit ready at +%d, want +15", ready-r.cycle)
	}
}

// TestMSHRCoalescing: loads to one line share a single memory request.
func TestMSHRCoalescing(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier
	done := 0
	for i := 0; i < 4; i++ {
		if !h.Load(0, int64(i*8), 0, func(int64) { done++ }) {
			t.Fatalf("load %d rejected", i)
		}
	}
	if h.OutstandingMisses() != 1 {
		t.Errorf("outstanding = %d, want 1 (coalesced)", h.OutstandingMisses())
	}
	if h.DemandMisses != 1 {
		t.Errorf("demand misses = %d", h.DemandMisses)
	}
	r.step(500)
	if done != 4 {
		t.Errorf("waiters completed = %d, want 4", done)
	}
}

// TestMSHRLimit: the hierarchy refuses new misses at the L2 MSHR cap.
func TestMSHRLimit(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}},
		func(c *config.Config) { c.CPU.L2MSHRs = 4 })
	h := r.hier
	for i := 0; i < 4; i++ {
		if !h.Load(0, int64(i)*4096, 0, func(int64) {}) {
			t.Fatalf("load %d rejected below cap", i)
		}
	}
	if h.Load(0, 99*4096, 0, func(int64) {}) {
		t.Error("load accepted beyond MSHR cap")
	}
	// Prefetches are dropped, not rejected.
	h.Prefetch(0, 98*4096, 0)
	if h.DroppedPF != 1 {
		t.Errorf("dropped prefetches = %d", h.DroppedPF)
	}
	// After completion the MSHR frees up.
	r.step(1000)
	if !h.Load(0, 99*4096, r.cycle, func(int64) {}) {
		t.Error("load rejected after MSHRs freed")
	}
}

// TestStoreRFOAndWriteback: a store miss fetches the line (read), dirties
// it, and its eventual eviction writes back to memory.
func TestStoreRFOAndWriteback(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier
	h.PrewarmL2(1.0) // every frame dirty: first eviction writes back

	freed := false
	if !h.Store(0, 0, 0, func(int64) { freed = true }) {
		t.Fatal("store rejected")
	}
	r.step(600)
	if !freed {
		t.Fatal("store never released its queue entry")
	}
	// The fill evicted a dirty prewarm line → one memory write (plus the
	// RFO read).
	if h.WBCount != 1 {
		t.Errorf("writebacks = %d, want 1", h.WBCount)
	}
	if got := r.ctrl.Stats.Reads; got != 1 {
		t.Errorf("memory reads = %d, want 1 (the RFO)", got)
	}
	r.step(2000)
	if got := r.ctrl.Stats.Writes; got != 1 {
		t.Errorf("memory writes = %d, want 1", got)
	}
}

// TestPrewarmL2FillsEveryFrame.
func TestPrewarmL2FillsEveryFrame(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier
	h.PrewarmL2(0.5)
	l2 := h.L2()
	if got, want := l2.Occupancy(), l2.Sets()*l2.Ways(); got != want {
		t.Errorf("prewarm occupancy = %d, want %d", got, want)
	}
	if l2.Stats.Accesses != 0 {
		t.Error("prewarm must not count as accesses")
	}
}

// TestSoftwarePrefetchWarmsL2: after a prefetch completes, the demand load
// is an L2 hit.
func TestSoftwarePrefetchWarmsL2(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier
	h.Prefetch(0, 4096, 0)
	if h.SWPrefetches != 1 {
		t.Fatalf("prefetches issued = %d", h.SWPrefetches)
	}
	r.step(600)
	ready := int64(-1)
	h.Load(0, 4096, r.cycle, func(c int64) { ready = c })
	if ready != r.cycle+15 {
		t.Errorf("post-prefetch load ready at +%d, want L2 hit (+15)", ready-r.cycle)
	}
	if h.DemandMisses != 0 {
		t.Errorf("demand misses = %d, want 0", h.DemandMisses)
	}
}

// TestPrefetchDeduplication: prefetching an outstanding or resident line is
// a no-op.
func TestPrefetchDeduplication(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier
	h.Prefetch(0, 0, 0)
	h.Prefetch(0, 0, 0) // outstanding: dropped silently
	if h.SWPrefetches != 1 {
		t.Errorf("prefetches = %d, want 1", h.SWPrefetches)
	}
	r.step(600)
	h.Prefetch(0, 0, r.cycle) // resident: no-op
	if h.SWPrefetches != 1 {
		t.Errorf("prefetches = %d after resident prefetch", h.SWPrefetches)
	}
}

// TestMultiCoreSharedL2: one core's fill serves another core's... actually
// address spaces are disjoint in real workloads; here we check two cores
// make independent progress on a shared hierarchy.
func TestMultiCoreProgress(t *testing.T) {
	mk := func() trace.Generator {
		return &loop{items: []trace.Item{{Gap: 20, Op: trace.Load, Addr: 0}}}
	}
	r := newRig(t, []trace.Generator{mk(), mk(), mk(), mk()}, nil)
	r.step(3000)
	for i, c := range r.cores {
		if c.Committed == 0 {
			t.Errorf("core %d made no progress", i)
		}
	}
}

// TestL1DirtyEvictionFoldsIntoL2: a dirty line displaced from an L1 is
// written back into the L2 (and from there eventually to memory), never
// silently dropped.
func TestL1DirtyEvictionFoldsIntoL2(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier
	l1 := h.L1(0)

	// Dirty a line in L1 set 0, then displace it with conflicting fills.
	done := false
	if !h.Store(0, 0, 0, func(int64) { done = true }) {
		t.Fatal("store rejected")
	}
	r.step(600)
	if !done || !l1.Contains(0) {
		t.Fatal("store line not resident in L1")
	}
	setStride := int64(l1.Sets() * 64)
	for i := int64(1); i <= int64(l1.Ways()); i++ {
		if !h.Load(0, i*setStride, r.cycle, func(int64) {}) {
			t.Fatal("conflict load rejected")
		}
		r.step(600)
	}
	if l1.Contains(0) {
		t.Fatal("conflict fills failed to evict the dirty line")
	}
	// The dirty data survives in the L2 (the fold-back path).
	if !h.L2().Contains(0) {
		t.Fatal("dirty L1 victim lost: not in L2")
	}
	ready := int64(-1)
	h.Load(0, 0, r.cycle, func(c int64) { ready = c })
	if ready != r.cycle+15 {
		t.Errorf("reload ready at +%d, want L2 hit (+15)", ready-r.cycle)
	}
}

// TestHWPrefetcherAccessorNil: the accessor reports absence when disabled.
func TestHWPrefetcherAccessor(t *testing.T) {
	off := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1, Op: trace.Load, Addr: 0}}}}, nil)
	if off.hier.HWPrefetcher() != nil {
		t.Error("prefetcher present while disabled")
	}
	on := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1, Op: trace.Load, Addr: 0}}}},
		func(c *config.Config) { c.CPU.HardwarePrefetch = true })
	if on.hier.HWPrefetcher() == nil {
		t.Error("prefetcher missing while enabled")
	}
}
