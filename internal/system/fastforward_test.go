package system

import (
	"context"
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/workload"
)

// equivBudgets keeps the equivalence runs short: the point is covering the
// skip/replay machinery across configurations, not simulating far.
func equivBudgets(cfg *config.Config) {
	cfg.WarmupInsts = 3_000
	cfg.MaxInsts = 12_000
}

// runOnce builds a fresh System for cfg and runs it with the requested
// loop. Both loops must start from identical machines, so each run gets
// its own System.
func runOnce(t *testing.T, cfg config.Config, benchmarks []string, reference bool) Results {
	t.Helper()
	s, err := New(cfg, benchmarks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SetReferenceLoop(reference)
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run (reference=%v): %v", reference, err)
	}
	return res
}

// TestFastLoopBitIdentical is the property test backing the event-driven
// loop: across interconnects, AMB prefetching, seeds, fault injection and
// memtrace recording, the fast loop's Results must DeepEqual the reference
// loop's — every counter, histogram bucket, latency percentile, trace
// event and epoch row, not just the headline IPC.
func TestFastLoopBitIdentical(t *testing.T) {
	benchmarks := []string{"mcf", "art"}
	modes := []struct {
		name string
		cfg  func() config.Config
	}{
		{"ddr2", config.DDR2Baseline},
		{"fbd", config.Default},
		{"fbd-ap", func() config.Config { return config.WithAMBPrefetch(config.Default()) }},
	}
	for _, mode := range modes {
		for _, seed := range []int64{1, 7} {
			for _, withFault := range []bool{false, true} {
				for _, withTrace := range []bool{false, true} {
					name := fmt.Sprintf("%s/seed%d/fault=%v/trace=%v", mode.name, seed, withFault, withTrace)
					t.Run(name, func(t *testing.T) {
						cfg := mode.cfg()
						equivBudgets(&cfg)
						cfg.Seed = seed
						if withFault {
							cfg.Fault = equivFaults(seed)
						}
						if withTrace {
							equivTrace(&cfg)
						}
						ref := runOnce(t, cfg, benchmarks, true)
						fast := runOnce(t, cfg, benchmarks, false)
						if !reflect.DeepEqual(ref, fast) {
							t.Fatalf("fast loop diverged from reference loop\nreference: %+v\nfast:      %+v", ref, fast)
						}
					})
				}
			}
		}
	}
	// Eight cores, most of them blocked on their own state at a time:
	// per-core skipping under fault retries and memtrace sampling.
	t.Run("fbd-ap/8C-2/seed1/fault=true/trace=true", func(t *testing.T) {
		wl, err := workload.Lookup("8C-2")
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.WithAMBPrefetch(config.Default())
		equivBudgets(&cfg)
		cfg.WarmupInsts = 50_000 // past the cold start
		cfg.Fault = equivFaults(cfg.Seed)
		equivTrace(&cfg)
		ref := runOnce(t, cfg, wl.Benchmarks, true)
		fast := runOnce(t, cfg, wl.Benchmarks, false)
		if ref.Faults.Retries == 0 {
			t.Fatalf("no fault retries in the measured window: %+v", ref.Faults)
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Fatalf("fast loop diverged from reference loop\nreference: %+v\nfast:      %+v", ref, fast)
		}
	})
}

// equivFaults is the fault injection the equivalence runs turn on: link
// CRC errors both ways, AMB soft errors and one degraded DIMM.
func equivFaults(seed int64) config.Fault {
	return config.Fault{
		Enabled:          true,
		Seed:             seed + 100,
		SouthErrorRate:   0.002,
		NorthErrorRate:   0.002,
		AMBSoftErrorRate: 0.001,
		DegradedChannel:  0,
		DegradedDIMM:     1,
		DeadBank:         -1,
	}
}

// equivTrace turns memtrace recording on for an equivalence run.
func equivTrace(cfg *config.Config) {
	cfg.Trace.Enabled = true
}

// TestFastLoopBitIdenticalComputeHeavy covers the opposite regime: cores
// that rarely miss, where skips are driven by head-of-ROB load latency
// rather than MSHR exhaustion.
func TestFastLoopBitIdenticalComputeHeavy(t *testing.T) {
	cfg := config.Default()
	equivBudgets(&cfg)
	benchmarks := []string{"wupwise", "lucas"}
	ref := runOnce(t, cfg, benchmarks, true)
	fast := runOnce(t, cfg, benchmarks, false)
	if !reflect.DeepEqual(ref, fast) {
		t.Fatalf("fast loop diverged from reference loop\nreference: %+v\nfast:      %+v", ref, fast)
	}
}

// TestFastLoopBitIdenticalWriteDrain covers a write-heavy 8-core mix whose
// channels enter write-drain mode and empty their write queues. The drain
// flag is cleared only inside a controller tick, so the fast loop must not
// skip the tick on which a drained channel would leave drain mode;
// otherwise a later write goes out under drain policy and the Results
// diverge from the reference loop.
func TestFastLoopBitIdenticalWriteDrain(t *testing.T) {
	wl, err := workload.Lookup("8C-2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.WithAMBPrefetch(config.Default())
	cfg.Seed = 2
	cfg.WarmupInsts = 200_000
	cfg.MaxInsts = 20_000
	ref := runOnce(t, cfg, wl.Benchmarks, true)
	fast := runOnce(t, cfg, wl.Benchmarks, false)
	if !reflect.DeepEqual(ref, fast) {
		t.Fatalf("fast loop diverged from reference loop\nreference: %+v\nfast:      %+v", ref, fast)
	}
}

// TestFastLoopCancellationLatency is the regression test for the
// cancellation contract: the fast loop checks ctx at every executed check
// boundary and once per skip, so a cancelled run must return promptly even
// though fast-forwarding covers simulated time in large jumps.
func TestFastLoopCancellationLatency(t *testing.T) {
	cfg := config.Default()
	cfg.WarmupInsts = 1_000_000
	cfg.MaxInsts = 50_000_000 // far more than the test will simulate
	s, err := New(cfg, []string{"mcf", "art"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.RunContext(ctx)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	// The reference loop's contract is "within milliseconds"; allow slack
	// for loaded CI machines but fail on anything suggesting the fast loop
	// ran a full budget past cancellation.
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v, want well under 1s", elapsed)
	}
}

// TestProgressBoundScalesWithConfig pins the satellite fix: the wedge
// guard derives from the configuration, so a config with a slower worst
// case (fault retries enabled) gets a larger bound, and every bound keeps
// the old 500-cycles-per-instruction floor.
func TestProgressBoundScalesWithConfig(t *testing.T) {
	cfg := config.Default()
	cfg.WarmupInsts, cfg.MaxInsts = 1_000, 2_000
	s, err := New(cfg, []string{"mcf"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	plain := s.progressBound(cfg.WarmupInsts + cfg.MaxInsts)
	if min := (cfg.WarmupInsts+cfg.MaxInsts)*500 + 1_000_000; plain < min {
		t.Fatalf("progressBound %d below reference floor %d", plain, min)
	}

	cfg.Fault = config.Fault{Enabled: true, Seed: 1, DegradedDIMM: -1, DeadBank: -1}
	sf, err := New(cfg, []string{"mcf"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if withFault := sf.progressBound(cfg.WarmupInsts + cfg.MaxInsts); withFault <= plain {
		t.Fatalf("progressBound with fault retries %d, want > %d (retry delay must widen the bound)", withFault, plain)
	}
}

// BenchmarkNextEventCycle measures the fast-forward query on an 8C-2
// machine parked at the end of a window past its warm-up: the hierarchy's
// quiescence check, each core's answer and the controller's next event.
func BenchmarkNextEventCycle(b *testing.B) {
	wl, err := workload.Lookup("8C-2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.WithAMBPrefetch(config.Default())
	cfg.WarmupInsts, cfg.MaxInsts = 200_000, 20_000
	s, err := New(cfg, wl.Benchmarks)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	cycle := s.Cycle()
	nextTick := (cycle + s.ratio - 1) / s.ratio * s.ratio
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycleSink = s.nextEventCycle(cycle, nextTick)
	}
}

var cycleSink int64

// BenchmarkNew measures building the writes-8c machine of the benchmark
// (fbd-ap, Table 3 mix 8C-2): the controller, the caches with the
// prewarmed L2, and eight trace generators and cores. Each build starts
// from a collected heap with its free memory returned to the OS, as in a
// fresh process, so it pays the page faults of its first touch.
func BenchmarkNew(b *testing.B) {
	wl, err := workload.Lookup("8C-2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.WithAMBPrefetch(config.Default())
	cfg.WarmupInsts, cfg.MaxInsts = 300_000, 3_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		debug.FreeOSMemory()
		b.StartTimer()
		if _, err := New(cfg, wl.Benchmarks); err != nil {
			b.Fatal(err)
		}
	}
}
