package cpu

import (
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/memctrl"
)

// missPath drives demand misses through Hierarchy.Load into a real memory
// controller on the fbd-ap machine, as a memory-bound core does: each miss
// is followed by a load of another word of its line, which joins its MSHR,
// and when every MSHR is busy the controller and the hierarchy tick at the
// memory clock until a miss completes and frees one. The L2 starts
// prewarmed as in a simulated system, so fills evict dirty lines and
// writebacks flow too.
type missPath struct {
	ctrl   *memctrl.Controller
	hier   *Hierarchy
	ratio  int64
	cycle  int64
	rng    uint64
	onDone func(int64)
}

func newMissPath() *missPath {
	cfg := config.WithAMBPrefetch(config.Default())
	m := &missPath{
		ctrl:   memctrl.New(&cfg.Mem),
		ratio:  int64(clock.CPUCyclesPerTCK(cfg.Mem.DataRate)),
		rng:    88172645463325252,
		onDone: func(int64) {},
	}
	m.hier = NewHierarchy(&cfg.CPU, 1, m.ctrl)
	m.hier.PrewarmL2(0.35)
	return m
}

// tick advances the controller and the hierarchy one memory clock.
func (m *missPath) tick() {
	now := clock.Time(m.cycle) * clock.CPUCycle
	m.ctrl.Tick(now)
	m.hier.Tick(m.cycle, now)
	m.cycle += m.ratio
}

// miss loads a random line of a 1 GiB space, ticking until an MSHR takes
// it, and then a second word of the line.
func (m *missPath) miss() {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	addr := int64(m.rng%(1<<24)) * 64
	for !m.hier.Load(0, addr, m.cycle, m.onDone) {
		m.tick()
	}
	m.hier.Load(0, addr+8, m.cycle, m.onDone)
}

// BenchmarkMissPath times one L2 demand miss with every MSHR busy: the
// hierarchy's MSHR bookkeeping, the controller's queue, schedule and
// completion, the channel and DRAM booking, and the cache fills with their
// writebacks.
func BenchmarkMissPath(b *testing.B) {
	m := newMissPath()
	for range 2000 {
		m.miss()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		m.miss()
	}
}

// TestMissPathAllocatesNothing: once the channel timelines have grown to
// their working size, demand misses with every MSHR busy, their writebacks
// and their completions allocate nothing.
func TestMissPathAllocatesNothing(t *testing.T) {
	m := newMissPath()
	for range 2000 {
		m.miss()
	}
	if n := testing.AllocsPerRun(500, m.miss); n != 0 {
		t.Errorf("a demand miss allocates %v times, want 0", n)
	}
	if m.hier.WBCount == 0 || m.hier.OutstandingMisses() != m.hier.cfg.L2MSHRs {
		t.Errorf("%d writebacks, %d misses in flight; the test wants writebacks and every MSHR busy",
			m.hier.WBCount, m.hier.OutstandingMisses())
	}
}
