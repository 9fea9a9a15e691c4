package system

import (
	"context"
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
)

// traceTestConfig returns a short-run configuration with tracing enabled.
func traceTestConfig(base config.Config, seed int64) config.Config {
	base.MaxInsts = 30_000
	base.WarmupInsts = 5_000
	base.Seed = seed
	base.Trace.Enabled = true
	return base
}

// TestStageLatenciesSumToEndToEnd is the per-request breakdown invariant
// of the memtrace recorder, checked property-style over short random
// workloads on the baseline FB-DIMM, the AMB-prefetch system, and the
// DDR2 baseline: every completed request's stage latencies sum exactly to
// its end-to-end latency, and no stage is negative.
func TestStageLatenciesSumToEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		base config.Config
	}{
		{"fbd", config.Default()},
		{"fbd-ap", config.WithAMBPrefetch(config.Default())},
		{"ddr2", config.DDR2Baseline()},
	}
	benches := [][]string{{"swim"}, {"mcf", "applu"}}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				for _, b := range benches {
					res, err := RunWorkload(context.Background(), traceTestConfig(tc.base, seed), b)
					if err != nil {
						t.Fatalf("seed %d %v: %v", seed, b, err)
					}
					if res.Trace == nil {
						t.Fatal("Trace.Enabled run must produce a trace summary")
					}
					evs := res.Trace.TraceEvents
					if len(evs) == 0 {
						t.Fatalf("seed %d %v: no trace events", seed, b)
					}
					hits := 0
					for _, ev := range evs {
						bd := ev.Breakdown()
						var sum clock.Time
						for s, d := range bd {
							if d < 0 {
								t.Fatalf("request %d: negative stage %d: %v", ev.ID, s, d)
							}
							sum += d
						}
						if sum != ev.EndToEnd() {
							t.Fatalf("request %d: stages sum to %v, end-to-end is %v (%+v)",
								ev.ID, sum, ev.EndToEnd(), ev)
						}
						if ev.AMBHit {
							hits++
						}
					}
					if tc.name == "fbd-ap" && res.AMBHits > 0 && hits == 0 {
						t.Errorf("seed %d %v: results report %d AMB hits but no traced event carries the flag",
							seed, b, res.AMBHits)
					}
				}
			}
		})
	}
}

// TestTraceDisabledByDefault pins the no-cost default: without
// Trace.Enabled, Results carries no trace summary.
func TestTraceDisabledByDefault(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 5_000
	cfg.WarmupInsts = 1_000
	res, err := RunWorkload(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("tracing off must leave Results.Trace nil")
	}
}

// TestTraceEpochConsistency checks the time-series against the scalar
// results: epoch read counts sum to the reported read total, and each
// epoch's per-stage means sum to its average latency.
func TestTraceEpochConsistency(t *testing.T) {
	cfg := traceTestConfig(config.WithAMBPrefetch(config.Default()), 1)
	res, err := RunWorkload(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil || len(tr.Epochs) == 0 {
		t.Fatal("expected a trace with epochs")
	}
	var reads int64
	for _, ep := range tr.Epochs {
		reads += ep.Reads
		var stages float64
		for _, m := range ep.StageMeanNS {
			stages += m
		}
		diff := stages - ep.AvgReadLatencyNS
		if diff < 0 {
			diff = -diff
		}
		if ep.Reads > 0 && diff > 1e-9 {
			t.Errorf("epoch at %vns: stage means sum %v != avg latency %v", ep.StartNS, stages, ep.AvgReadLatencyNS)
		}
	}
	if reads != tr.Reads {
		t.Errorf("epoch reads sum %d != summary reads %d", reads, tr.Reads)
	}
	// Results.Reads counts issue events in the window while the trace
	// counts completions; they differ only by the in-flight population at
	// the two window boundaries.
	diff := tr.Reads - res.Reads
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(cfg.Mem.QueueEntries*cfg.Mem.LogicalChannels) {
		t.Errorf("trace reads %d too far from results reads %d", tr.Reads, res.Reads)
	}
}
