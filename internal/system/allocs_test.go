//go:build !race

// The race detector allocates on its own account, so the counts below hold
// only without it.

package system

import (
	"runtime"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/workload"
)

// TestRunAllocationsBounded: everything a run's misses, writebacks and
// controller queues use is built with the machine, so Run on the writes-8c
// fbd-ap machine (Table 3 mix 8C-2) allocates a fixed handful of objects,
// the same at a small budget and at four times it:
//
//   - the Results and the two snapshots they are measured between: per-core
//     slices, latency histograms and the warm-up snapshot itself (8
//     objects measured, 16 allowed);
//   - the growth of the channel link and DIMM-bus timelines (south, north
//     and one per DIMM on each channel) from the 64 intervals they start
//     with to their most between two prunes, measured at 514–701 intervals:
//     append doubles a timeline to 128, 256 and 512 intervals and then
//     grows it about 1.6× to 832, at most four growths each.
func TestRunAllocationsBounded(t *testing.T) {
	wl, err := workload.Lookup("8C-2")
	if err != nil {
		t.Fatal(err)
	}
	for _, insts := range []int64{20_000, 80_000} {
		cfg := config.WithAMBPrefetch(config.Default())
		cfg.MaxInsts, cfg.WarmupInsts = insts, insts/10
		s, err := New(cfg, wl.Benchmarks)
		if err != nil {
			t.Fatal(err)
		}
		timelines := cfg.Mem.LogicalChannels * (2 + cfg.Mem.DIMMsPerChannel)
		bound := uint64(16 + 4*timelines)

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > bound {
			t.Errorf("%d instructions per core: Run allocated %d objects, want at most %d", insts, n, bound)
		}
	}
}
