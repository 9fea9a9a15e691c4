package fbdsim

import (
	"context"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := WithAMBPrefetch(Default())
	cfg.MaxInsts = 60_000
	cfg.WarmupInsts = 8_000
	res, err := Run(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIPC() <= 0 {
		t.Error("no progress through the public API")
	}
	if res.AMB.Hits == 0 {
		t.Error("AMB prefetching did not engage")
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 12 {
		t.Fatalf("benchmarks = %d, want 12", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate benchmark %q", n)
		}
		seen[n] = true
	}
	for _, n := range []string{"swim", "vpr", "vortex"} {
		if !seen[n] {
			t.Errorf("missing %q", n)
		}
	}
}

func TestWorkloadLists(t *testing.T) {
	if got := len(Workloads()); got != 27 {
		t.Errorf("workloads = %d, want 12 single + 15 mixes", got)
	}
	if got := len(MulticoreWorkloads()); got != 15 {
		t.Errorf("multicore workloads = %d, want 15", got)
	}
}

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": Default(),
		"ddr2":    DDR2Baseline(),
		"ap":      WithAMBPrefetch(Default()),
		"apfl":    WithFullLatencyHits(Default()),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSMTSpeedupExported(t *testing.T) {
	if got := SMTSpeedup([]float64{1, 1}, []float64{2, 2}); got != 1.0 {
		t.Errorf("SMTSpeedup = %g", got)
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	cfg := Default()
	cfg.MaxInsts = 1000
	if _, err := Run(context.Background(), cfg, []string{"crafty"}); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestLoadConfigPublicAPI(t *testing.T) {
	path := t.TempDir() + "/cfg.json"
	orig := WithAMBPrefetch(Default())
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mem.AMBPrefetch {
		t.Error("loaded config lost AMB prefetching")
	}
}

func TestAllProgramsIncludesExcluded(t *testing.T) {
	all := AllPrograms()
	if len(all) != 14 {
		t.Fatalf("AllPrograms = %d, want 14", len(all))
	}
	found := map[string]bool{}
	for _, n := range all {
		found[n] = true
	}
	if !found["art"] || !found["mcf"] {
		t.Error("art and mcf must be available")
	}
}

// TestRunOptions exercises the functional-options surface: each option
// must actually reach the simulator.
func TestRunOptions(t *testing.T) {
	cfg := Default()
	cfg.MaxInsts = 30_000
	cfg.WarmupInsts = 4_000
	bench := []string{"swim"}

	var calls int
	var lastCommitted int64
	res, err := Run(context.Background(), cfg, bench,
		WithTrace(TraceConfig{MaxEvents: 128}),
		WithFault(FaultConfig{DegradedDIMM: -1, DeadBank: -1, SouthErrorRate: 0.02, Seed: 3}),
		WithProgress(func(p Progress) {
			calls++
			lastCommitted = p.Committed
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Error("WithTrace did not enable the recorder")
	}
	if res.Faults.SouthFrameErrors == 0 {
		t.Error("WithFault did not enable the injector")
	}
	if calls == 0 || lastCommitted == 0 {
		t.Errorf("WithProgress delivered %d calls, last committed %d", calls, lastCommitted)
	}
}
