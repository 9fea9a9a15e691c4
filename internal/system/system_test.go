package system

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"fbdsim/internal/config"
)

// quick returns a small-budget config for fast end-to-end runs.
func quickCfg(base config.Config) config.Config {
	base.MaxInsts = 120_000
	base.WarmupInsts = 15_000
	return base
}

func TestRunSingleCore(t *testing.T) {
	r, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 1 || len(r.IPC) != 1 {
		t.Fatalf("results shape: %+v", r)
	}
	if r.IPC[0] <= 0 || r.IPC[0] > 8 {
		t.Errorf("IPC = %g out of range", r.IPC[0])
	}
	if r.Committed[0] < 120_000 {
		t.Errorf("committed = %d, want >= MaxInsts", r.Committed[0])
	}
	if r.Reads == 0 || r.Writes == 0 {
		t.Errorf("no memory traffic: %d reads %d writes", r.Reads, r.Writes)
	}
	if r.AvgReadLatencyNS < 63 {
		t.Errorf("avg latency %.1f below the idle minimum", r.AvgReadLatencyNS)
	}
	if r.UtilizedBandwidthGBs <= 0 {
		t.Error("no bandwidth recorded")
	}
	if r.DRAM.ACT == 0 || r.DRAM.PRE == 0 {
		t.Error("no DRAM operations counted")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := RunWorkload(context.Background(), quickCfg(config.Default()), nil); err == nil {
		t.Error("empty benchmark list must fail")
	}
	if _, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"doom"}); err == nil ||
		!strings.Contains(err.Error(), "doom") {
		t.Errorf("unknown benchmark error = %v", err)
	}
	bad := quickCfg(config.Default())
	bad.Mem.DataRate = 123
	if _, err := RunWorkload(context.Background(), bad, []string{"swim"}); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickCfg(config.WithAMBPrefetch(config.Default()))
	a, err := RunWorkload(context.Background(), cfg, []string{"mgrid", "vpr"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(context.Background(), cfg, []string{"mgrid", "vpr"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 2
	c, err := RunWorkload(context.Background(), cfg, []string{"mgrid", "vpr"})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.IPC, c.IPC) {
		t.Error("different seeds produced identical IPCs")
	}
}

// TestClosePageACTPREPairs: under close-page auto-precharge every
// activation precharges, so the counts match.
func TestClosePageACTPREPairs(t *testing.T) {
	r, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"applu"})
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAM.ACT != r.DRAM.PRE {
		t.Errorf("ACT %d != PRE %d under close-page", r.DRAM.ACT, r.DRAM.PRE)
	}
}

// TestAMBPrefetchImprovesStreamingWorkload: the headline claim on its most
// favourable input.
func TestAMBPrefetchImprovesStreamingWorkload(t *testing.T) {
	base, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := RunWorkload(context.Background(), quickCfg(config.WithAMBPrefetch(config.Default())), []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if ap.IPC[0] <= base.IPC[0] {
		t.Errorf("AMB prefetch did not help swim: %g vs %g", ap.IPC[0], base.IPC[0])
	}
	if ap.AvgReadLatencyNS >= base.AvgReadLatencyNS {
		t.Errorf("latency did not drop: %.1f vs %.1f", ap.AvgReadLatencyNS, base.AvgReadLatencyNS)
	}
	if ap.DRAM.ACT >= base.DRAM.ACT {
		t.Errorf("activations did not drop: %d vs %d", ap.DRAM.ACT, base.DRAM.ACT)
	}
	if ap.AMB.Hits == 0 || ap.AMBHits != ap.AMB.Hits {
		t.Errorf("AMB hit accounting inconsistent: %d vs %d", ap.AMBHits, ap.AMB.Hits)
	}
	if c := ap.AMB.Coverage(); c < 0.3 || c > 0.75 {
		t.Errorf("swim coverage = %.2f, want within (0.3, K-1/K]", c)
	}
}

// TestCoverageBound: coverage can never exceed the theoretical (K-1)/K.
func TestCoverageBound(t *testing.T) {
	for _, k := range []int{2, 4} {
		cfg := quickCfg(config.WithAMBPrefetch(config.Default()))
		cfg.Mem.RegionLines = k
		r, err := RunWorkload(context.Background(), cfg, []string{"swim"})
		if err != nil {
			t.Fatal(err)
		}
		bound := float64(k-1) / float64(k)
		if got := r.AMB.Coverage(); got > bound {
			t.Errorf("K=%d coverage %.3f exceeds bound %.3f", k, got, bound)
		}
	}
}

// TestMultiCoreResults: every core progresses; aggregate counters are
// consistent.
func TestMultiCoreResults(t *testing.T) {
	r, err := RunWorkload(context.Background(), quickCfg(config.Default()),
		[]string{"wupwise", "swim", "mgrid", "applu"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 4 {
		t.Fatalf("cores = %d", r.Cores)
	}
	for i, ipc := range r.IPC {
		if ipc <= 0 {
			t.Errorf("core %d (%s) IPC = %g", i, r.Benchmarks[i], ipc)
		}
	}
	if r.TotalIPC() <= r.IPC[0] {
		t.Error("TotalIPC must sum cores")
	}
	if r.L2Accesses == 0 || r.L2Misses == 0 || r.L2Misses > r.L2Accesses {
		t.Errorf("L2 stats inconsistent: %d/%d", r.L2Misses, r.L2Accesses)
	}
	if rate := r.L2MissRate(); rate <= 0 || rate >= 1 {
		t.Errorf("L2 miss rate = %g", rate)
	}
	if r.DemandMisses == 0 || r.SWPrefetches == 0 || r.Writebacks == 0 {
		t.Errorf("hierarchy counters: %d demand, %d swpf, %d wb",
			r.DemandMisses, r.SWPrefetches, r.Writebacks)
	}
}

// TestSoftwarePrefetchToggle: turning SP off removes prefetch traffic and
// costs performance on prefetch-friendly code.
func TestSoftwarePrefetchToggle(t *testing.T) {
	on, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(config.Default())
	cfg.CPU.SoftwarePrefetch = false
	off, err := RunWorkload(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if off.SWPrefetches != 0 {
		t.Errorf("SP disabled but %d prefetches issued", off.SWPrefetches)
	}
	if on.SWPrefetches == 0 {
		t.Error("SP enabled but no prefetches issued")
	}
	if off.IPC[0] >= on.IPC[0] {
		t.Errorf("software prefetching should help swim: %g (off) vs %g (on)",
			off.IPC[0], on.IPC[0])
	}
}

// TestDDR2VsFBDIMMIdleLatency: the systems' average latencies reflect their
// idle latency ordering on a light workload.
func TestDDR2VsFBDIMMLatencyOrdering(t *testing.T) {
	ddr, err := RunWorkload(context.Background(), quickCfg(config.DDR2Baseline()), []string{"parser"})
	if err != nil {
		t.Fatal(err)
	}
	fbd, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"parser"})
	if err != nil {
		t.Fatal(err)
	}
	if fbd.AvgReadLatencyNS <= ddr.AvgReadLatencyNS {
		t.Errorf("light load: FBD latency %.1f should exceed DDR2 %.1f",
			fbd.AvgReadLatencyNS, ddr.AvgReadLatencyNS)
	}
}

// TestAPFLSitsBetween: the Figure 9 arm orders FBD <= APFL <= AP on a
// streaming workload.
func TestAPFLSitsBetween(t *testing.T) {
	run := func(cfg config.Config) float64 {
		r, err := RunWorkload(context.Background(), quickCfg(cfg), []string{"swim", "applu"})
		if err != nil {
			t.Fatal(err)
		}
		return r.TotalIPC()
	}
	fbd := run(config.Default())
	apfl := run(config.WithFullLatencyHits(config.Default()))
	ap := run(config.WithAMBPrefetch(config.Default()))
	if fbd >= apfl || fbd >= ap {
		t.Errorf("prefetching arms must beat the baseline: FBD %.3f, APFL %.3f, AP %.3f",
			fbd, apfl, ap)
	}
	// AP additionally cuts hit latency; allow a small noise band since the
	// two runs' schedules diverge completely after the first hit.
	if ap < apfl*0.97 {
		t.Errorf("AP (%.3f) far below APFL (%.3f); latency benefit inverted", ap, apfl)
	}
}

// TestVRLRuns: variable read latency completes and does not hurt.
func TestVRLRuns(t *testing.T) {
	cfg := quickCfg(config.WithAMBPrefetch(config.Default()))
	cfg.Mem.VRL = true
	r, err := RunWorkload(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC[0] <= 0 {
		t.Error("VRL run made no progress")
	}
}

// TestPageInterleaveOpenPageRuns: the open-page configuration is exercised
// end to end.
func TestPageInterleaveOpenPageRuns(t *testing.T) {
	cfg := quickCfg(config.Default())
	cfg.Mem.Interleave = config.PageInterleave
	cfg.Mem.PageMode = config.OpenPage
	r, err := RunWorkload(context.Background(), cfg, []string{"applu"})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC[0] <= 0 {
		t.Error("open-page run made no progress")
	}
	// Open-page with spatial locality performs fewer ACTs than columns.
	if r.DRAM.ACT >= r.DRAM.Columns() {
		t.Errorf("open page: ACT %d should be below columns %d", r.DRAM.ACT, r.DRAM.Columns())
	}
}

// TestAPWithPageInterleave: the paper's alternative AP mode (Figure 2,
// right) works too.
func TestAPWithPageInterleave(t *testing.T) {
	cfg := quickCfg(config.WithAMBPrefetch(config.Default()))
	cfg.Mem.Interleave = config.PageInterleave
	cfg.Mem.PageMode = config.OpenPage
	r, err := RunWorkload(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if r.AMB.Hits == 0 {
		t.Error("page-interleave AP produced no hits")
	}
}

// TestHardwarePrefetchExtension: the stream prefetcher engages on a
// streaming workload and improves it when software prefetching is off.
func TestHardwarePrefetchExtension(t *testing.T) {
	base := quickCfg(config.Default())
	base.CPU.SoftwarePrefetch = false
	off, err := RunWorkload(context.Background(), base, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	hw := base
	hw.CPU.HardwarePrefetch = true
	on, err := RunWorkload(context.Background(), hw, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if off.HWPrefetches != 0 {
		t.Errorf("HW prefetches issued while disabled: %d", off.HWPrefetches)
	}
	if on.HWPrefetches == 0 {
		t.Fatal("HW prefetcher never engaged")
	}
	if on.IPC[0] <= off.IPC[0] {
		t.Errorf("HW prefetching should help swim without SP: %g vs %g", on.IPC[0], off.IPC[0])
	}
}

// TestRefreshExtension: enabling refresh costs a little performance, never
// a lot, and the run completes.
func TestRefreshExtension(t *testing.T) {
	base := quickCfg(config.Default())
	off, err := RunWorkload(context.Background(), base, []string{"applu"})
	if err != nil {
		t.Fatal(err)
	}
	ref := base
	ref.Mem.RefreshEnabled = true
	on, err := RunWorkload(context.Background(), ref, []string{"applu"})
	if err != nil {
		t.Fatal(err)
	}
	ratio := on.IPC[0] / off.IPC[0]
	if ratio > 1.05 || ratio < 0.90 {
		t.Errorf("refresh changed IPC by %.1f%%, want a small cost", (ratio-1)*100)
	}
}

// TestLatencyPercentilesOrdered: the histogram wiring produces a sane
// distribution.
func TestLatencyPercentilesOrdered(t *testing.T) {
	r, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if r.LatencyHist == nil || r.LatencyHist.Count() == 0 {
		t.Fatal("no latency histogram")
	}
	if !(r.P50LatencyNS <= r.P90LatencyNS && r.P90LatencyNS <= r.P99LatencyNS &&
		r.P99LatencyNS <= r.MaxLatencyNS) {
		t.Errorf("percentiles out of order: %v %v %v %v",
			r.P50LatencyNS, r.P90LatencyNS, r.P99LatencyNS, r.MaxLatencyNS)
	}
	if r.P50LatencyNS < 50 {
		t.Errorf("p50 %.1fns below idle latency", r.P50LatencyNS)
	}
	// Histogram counts completed reads; Reads counts issued reads. The
	// difference is the handful in flight across the warmup boundary.
	if diff := r.LatencyHist.Count() - r.Reads; diff < -100 || diff > 100 {
		t.Errorf("histogram n=%d vs reads %d", r.LatencyHist.Count(), r.Reads)
	}
}

// TestAMBPrefetchReducesBankConflicts measures the Section 5.2 mechanism
// directly: the AMB cache absorbs reads that would otherwise conflict in
// the DRAM banks.
func TestAMBPrefetchReducesBankConflicts(t *testing.T) {
	base, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"swim", "applu"})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := RunWorkload(context.Background(), quickCfg(config.WithAMBPrefetch(config.Default())), []string{"swim", "applu"})
	if err != nil {
		t.Fatal(err)
	}
	if base.BankConflicts == 0 {
		t.Fatal("baseline shows no bank conflicts; instrumentation broken")
	}
	if ap.BankConflicts >= base.BankConflicts {
		t.Errorf("AP did not reduce bank conflicts: %d vs %d", ap.BankConflicts, base.BankConflicts)
	}
}

// TestLinkUtilizationSane: utilizations are fractions, and AMB prefetching
// raises read-link utilization on a bandwidth-hungry mix (Figure 10's
// mechanism).
func TestLinkUtilizationSane(t *testing.T) {
	base, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"swim", "applu"})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := RunWorkload(context.Background(), quickCfg(config.WithAMBPrefetch(config.Default())), []string{"swim", "applu"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Results{base, ap} {
		if r.ReadLinkUtilization <= 0 || r.ReadLinkUtilization > 1.01 {
			t.Errorf("read-link utilization %f out of range", r.ReadLinkUtilization)
		}
		if r.WriteLinkUtilization <= 0 || r.WriteLinkUtilization > 1.01 {
			t.Errorf("write-link utilization %f out of range", r.WriteLinkUtilization)
		}
	}
	if ap.ReadLinkUtilization <= base.ReadLinkUtilization {
		t.Errorf("AP should raise read-link utilization: %f vs %f",
			ap.ReadLinkUtilization, base.ReadLinkUtilization)
	}
}

// TestArtCacheCliff reproduces the Section 4.2 footnote that justified
// excluding art: its working set fits a 4 MB L2 but thrashes a 1 MB one,
// so the L2 miss rate collapses/explodes across the cliff.
func TestArtCacheCliff(t *testing.T) {
	run := func(l2KB int) Results {
		cfg := config.Default()
		cfg.CPU.L2KB = l2KB
		cfg.MaxInsts = 400_000 // long enough to loop over art's footprint
		cfg.WarmupInsts = 250_000
		r, err := RunWorkload(context.Background(), cfg, []string{"art"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	big := run(4096)
	small := run(1024)
	if small.L2MissRate() < big.L2MissRate()*1.5 {
		t.Errorf("art cliff missing: miss rate %.3f @1MB vs %.3f @4MB",
			small.L2MissRate(), big.L2MissRate())
	}
}

// TestMcfLowIPC reproduces the other §4.2 exclusion: mcf's dependent
// pointer chasing yields by far the lowest IPC of any program.
func TestMcfLowIPC(t *testing.T) {
	mcf, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	swim, err := RunWorkload(context.Background(), quickCfg(config.Default()), []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if mcf.IPC[0] >= swim.IPC[0]*0.6 {
		t.Errorf("mcf IPC %.3f not clearly below swim %.3f", mcf.IPC[0], swim.IPC[0])
	}
}

func TestRunContextCancellation(t *testing.T) {
	// A budget no test machine finishes in the test's lifetime.
	cfg := config.Default()
	cfg.MaxInsts = 500_000_000
	cfg.WarmupInsts = 0

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunWorkload(ctx, cfg, []string{"swim"})
		done <- err
	}()
	// Let the simulation get going, then cancel and time the stop.
	time.Sleep(20 * time.Millisecond)
	begin := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled simulation did not stop")
	}
	if elapsed := time.Since(begin); elapsed > 100*time.Millisecond {
		t.Errorf("cancellation latency %v, want < 100ms (cycle-batch granularity)", elapsed)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWorkload(ctx, quickCfg(config.Default()), []string{"swim"}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled context: err = %v, want Canceled", err)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := quickCfg(config.Default())
	s, err := New(cfg, []string{"vpr"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(context.Background(), cfg, []string{"vpr"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IPC[0] != b.IPC[0] {
		t.Error("RunWorkload(Background) must be identical to Run")
	}
}
