package analytic

import (
	"context"
	"math"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

func TestIdleLatencies(t *testing.T) {
	// The unloaded path latencies must reproduce the paper's Figure 4
	// numbers for the default FB-DIMM configuration: ~63 ns for a DRAM
	// read, ~33 ns for an AMB-cache hit.
	var c Calibration
	c.deriveChannelTerms(config.WithAMBPrefetch(config.Default()))
	if math.Abs(c.IdleMissNS-63) > 3 {
		t.Errorf("idle miss latency %.1f ns, want ~63 ns", c.IdleMissNS)
	}
	if math.Abs(c.IdleHitNS-33) > 3 {
		t.Errorf("idle AMB-hit latency %.1f ns, want ~33 ns", c.IdleHitNS)
	}
	// Without AMB prefetching (or with full-latency hits) there is no
	// short path.
	c.deriveChannelTerms(config.Default())
	if c.IdleHitNS != c.IdleMissNS {
		t.Errorf("FBD baseline hit latency %.1f != miss %.1f", c.IdleHitNS, c.IdleMissNS)
	}
	c.deriveChannelTerms(config.WithFullLatencyHits(config.Default()))
	if c.IdleHitNS != c.IdleMissNS {
		t.Errorf("FBD-APFL hit latency %.1f != miss %.1f", c.IdleHitNS, c.IdleMissNS)
	}
}

func TestMD1(t *testing.T) {
	s := 9.6 // one 64B line at 6.67 GB/s
	if w := mD1Wait(0, s); w != 0 {
		t.Errorf("idle queue wait %v, want 0", w)
	}
	// W(0.5) = 0.5*s/(2*0.5) = s/2.
	if w := mD1Wait(0.5, s); math.Abs(w-s/2) > 1e-9 {
		t.Errorf("W(0.5) = %v, want %v", w, s/2)
	}
	// Monotone in rho, finite at saturation.
	if w1, w2 := mD1Wait(0.5, s), mD1Wait(0.9, s); w2 <= w1 {
		t.Errorf("wait not monotone: W(0.9)=%v <= W(0.5)=%v", w2, w1)
	}
	if w := mD1Wait(2.0, s); math.IsInf(w, 0) || math.IsNaN(w) || w < 0 {
		t.Errorf("overloaded wait %v not finite", w)
	}
	// Quantiles: zero below the idle atom, increasing above it.
	if q := mD1Quantile(0.3, s, 0.5); q != 0 {
		t.Errorf("p50 at rho=0.3 = %v, want 0 (idle atom)", q)
	}
	q90, q99 := mD1Quantile(0.5, s, 0.90), mD1Quantile(0.5, s, 0.99)
	if !(q99 > q90 && q90 > 0) {
		t.Errorf("tail quantiles not increasing: p90 %v p99 %v", q90, q99)
	}
}

func TestCalibrateAndEstimate(t *testing.T) {
	ResetCache()
	cfg := config.WithAMBPrefetch(config.Default())
	cfg.MaxInsts = 1_000_000
	cfg.WarmupInsts = 100_000
	ctx := context.Background()

	cal, err := Calibrate(ctx, cfg, []string{"swim"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cal.ProbeIPC <= 0 || cal.ReadsPerInst <= 0 {
		t.Fatalf("degenerate calibration: %+v", cal)
	}
	if cal.AMBHitRate <= 0.3 || cal.AMBHitRate > 1 {
		t.Errorf("AMB hit rate %.3f implausible for FBD-AP/swim", cal.AMBHitRate)
	}

	// The query itself must be sub-10ms (the acceptance bound); give it a
	// generous margin below that to keep slow CI honest.
	start := time.Now()
	r := cal.Estimate(cfg)
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("Estimate took %v, want < 10ms", d)
	}
	if r.Estimate == nil || r.Estimate.Tier != "analytic" {
		t.Fatalf("Estimate results missing analytic tier marker: %+v", r.Estimate)
	}
	if r.Estimate.Calibration != cal.Key {
		t.Errorf("estimate calibration key %q != %q", r.Estimate.Calibration, cal.Key)
	}
	// Results shape: budget-scaled instruction counts, positive rates.
	if got := r.Committed[0]; got != cfg.MaxInsts {
		t.Errorf("single-core committed %d, want the %d budget", got, cfg.MaxInsts)
	}
	if r.TotalIPC() <= 0 || r.Cycles <= 0 || r.Reads <= 0 {
		t.Errorf("implausible estimate: ipc %v cycles %d reads %d", r.TotalIPC(), r.Cycles, r.Reads)
	}
	if r.AvgReadLatencyNS < cal.IdleHitNS || r.AvgReadLatencyNS > 10*cal.IdleMissNS {
		t.Errorf("estimated latency %.1f ns outside sane range", r.AvgReadLatencyNS)
	}
	if !(r.P99LatencyNS >= r.P90LatencyNS && r.P90LatencyNS >= r.P50LatencyNS) {
		t.Errorf("percentiles not ordered: p50 %.1f p90 %.1f p99 %.1f", r.P50LatencyNS, r.P90LatencyNS, r.P99LatencyNS)
	}

	// Calibration is memoized: a second call for a different budget of the
	// same (config, workload) returns the identical object.
	cfg2 := cfg
	cfg2.MaxInsts = 5_000_000
	cal2, err := Calibrate(ctx, cfg2, []string{"swim"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cal2 != cal {
		t.Error("calibration not memoized across budgets")
	}
	// Estimates scale with the budget.
	r2 := cal2.Estimate(cfg2)
	if r2.Committed[0] != cfg2.MaxInsts {
		t.Errorf("budget-5M committed %d", r2.Committed[0])
	}
	// Budget-invariant up to the integer rounding of cycles and committed
	// counts.
	if math.Abs(r2.TotalIPC()-r.TotalIPC()) > 1e-4 {
		t.Errorf("IPC should be budget-invariant: %v vs %v", r2.TotalIPC(), r.TotalIPC())
	}
}

func TestEstimateAccuracyCoarse(t *testing.T) {
	// The analytic tier is a triage tool, not a replacement: its IPC
	// should land within ~15% of cycle-accurate on a seed workload (the
	// probe provides the throughput; the model the latency shape).
	if testing.Short() {
		t.Skip("full run for comparison is not short")
	}
	ResetCache()
	cfg := config.Default()
	cfg.MaxInsts = 600_000
	cfg.WarmupInsts = 60_000
	r, err := Run(context.Background(), cfg, []string{"swim"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := system.RunWorkload(context.Background(), cfg, []string{"swim"}, system.Options{})
	if err != nil {
		t.Fatal(err)
	}
	errPct := 100 * math.Abs(r.TotalIPC()-full.TotalIPC()) / full.TotalIPC()
	t.Logf("analytic IPC %.4f vs full %.4f (err %.1f%%), latency %.1f vs %.1f ns",
		r.TotalIPC(), full.TotalIPC(), errPct, r.AvgReadLatencyNS, full.AvgReadLatencyNS)
	if errPct > 15 {
		t.Errorf("analytic IPC error %.1f%% > 15%%", errPct)
	}
	if lat := math.Abs(r.AvgReadLatencyNS-full.AvgReadLatencyNS) / full.AvgReadLatencyNS; lat > 0.4 {
		t.Errorf("analytic latency off by %.0f%%", 100*lat)
	}
}
