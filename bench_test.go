package fbdsim

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index). Each benchmark
// runs its experiment on the reduced workload set with small instruction
// budgets and reports the figure's headline quantities as custom metrics,
// so `go test -bench=.` both times the simulator and reproduces the
// result shapes. For full-fidelity tables use:
//
//	go run ./cmd/paperexp -all
//
// A shared Runner memoizes simulations across benchmarks (the FBD baseline,
// for instance, feeds Figures 4, 7, 9, 10, 12 and 13), mirroring how the
// figures share runs in the paper.

import (
	"context"
	"sync"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/exp"
	"fbdsim/internal/system"
	"fbdsim/internal/trace"
	"fbdsim/internal/workload"
)

var (
	benchRunnerOnce sync.Once
	benchRunnerVal  *exp.Runner
)

func benchRunner() *exp.Runner {
	benchRunnerOnce.Do(func() {
		benchRunnerVal = exp.NewRunner(exp.Options{
			MaxInsts:    80_000,
			WarmupInsts: 10_000,
			Workloads:   exp.QuickWorkloads(),
		})
	})
	return benchRunnerVal
}

// skipIfShort guards the simulation-heavy benchmarks so a `-short` CI run
// (which compiles and smoke-runs benchmarks with -bench) stays fast.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("simulation-heavy benchmark; skipped in -short")
	}
}

// BenchmarkTable1Config exercises the Table 1 configuration path:
// construction plus validation of every preset.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range []Config{Default(), DDR2Baseline(), WithAMBPrefetch(Default())} {
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Timing drives a DRAM bank through the full Table 2
// command sequence (ACT, RD, PRE at their earliest legal times).
func BenchmarkTable2Timing(b *testing.B) {
	l, err := exp.MeasureIdleLatencies()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(l.FBDMiss.Nanoseconds(), "fbd-idle-ns")
	for i := 0; i < b.N; i++ {
		if _, err := exp.MeasureIdleLatencies(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Workloads measures trace generation for every benchmark
// of the Table 3 mixes.
func BenchmarkTable3Workloads(b *testing.B) {
	gens := make([]*trace.Synthetic, 0, 12)
	for _, name := range trace.BenchmarkNames() {
		p, err := trace.ProfileFor(name)
		if err != nil {
			b.Fatal(err)
		}
		gens = append(gens, trace.NewSynthetic(p, 0, 1))
	}
	var it trace.Item
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gens {
			g.Next(&it)
		}
	}
}

// BenchmarkV1IdleLatency regenerates the 63/33/51 ns idle-latency identity.
func BenchmarkV1IdleLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := exp.MeasureIdleLatencies()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(l.FBDMiss.Nanoseconds(), "miss-ns")
		b.ReportMetric(l.AMBHit.Nanoseconds(), "hit-ns")
		b.ReportMetric(l.DDR2.Nanoseconds(), "ddr2-ns")
	}
}

// BenchmarkFigure4 regenerates the DDR2-vs-FB-DIMM comparison.
func BenchmarkFigure4(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure4(r)
		if err != nil {
			b.Fatal(err)
		}
		if g, ok := d.AvgGainPct[8]; ok {
			b.ReportMetric(g, "fbd-gain%@8C")
		}
		if g, ok := d.AvgGainPct[1]; ok {
			b.ReportMetric(g, "fbd-gain%@1C")
		}
	}
}

// BenchmarkFigure5 regenerates the bandwidth/latency scatter.
func BenchmarkFigure5(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure5(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.AvgBW["8C/FBD"], "fbd-GB/s@8C")
		b.ReportMetric(d.AvgLat["8C/FBD"], "fbd-ns@8C")
	}
}

// BenchmarkFigure6 regenerates the data-rate / channel-count sweep.
func BenchmarkFigure6(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure6(r)
		if err != nil {
			b.Fatal(err)
		}
		// Channel scaling at 8 cores, 667 MT/s: 1 -> 4 logical channels.
		var one, four float64
		for _, row := range d.Rows {
			if row.Cores == 8 && row.RateMTs == 667 {
				switch row.Channels {
				case 1:
					one = row.FBD
				case 4:
					four = row.FBD
				}
			}
		}
		if one > 0 {
			b.ReportMetric((four/one-1)*100, "ch1to4-gain%@8C")
		}
	}
}

// BenchmarkFigure7 regenerates the headline AMB-prefetching speedups.
func BenchmarkFigure7(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure7(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, cores := range []int{1, 4, 8} {
			if g, ok := d.AvgGainPct[cores]; ok {
				b.ReportMetric(g, "ap-gain%@"+string(rune('0'+cores))+"C")
			}
		}
	}
}

// BenchmarkFigure8 regenerates prefetch coverage and efficiency.
func BenchmarkFigure8(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure8(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range d.Rows {
			if row.Variant.Label == "#CL=4 (default)" {
				b.ReportMetric(row.Coverage, "coverage@K4")
				b.ReportMetric(row.Efficiency, "efficiency@K4")
			}
		}
	}
}

// BenchmarkFigure9 regenerates the gain decomposition.
func BenchmarkFigure9(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure9(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range d.Rows {
			if row.Cores == 8 {
				b.ReportMetric(row.BandwidthGainPct, "bw-gain%@8C")
				b.ReportMetric(row.LatencyGainPct, "lat-gain%@8C")
			}
		}
	}
}

// BenchmarkFigure10 regenerates the FBD vs FBD-AP bandwidth/latency pairs.
func BenchmarkFigure10(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure10(r)
		if err != nil {
			b.Fatal(err)
		}
		var bwGain, latCut float64
		for _, row := range d.Rows {
			bwGain += row.APBW/row.FBDBW - 1
			latCut += 1 - row.APLat/row.FBDLat
		}
		n := float64(len(d.Rows))
		b.ReportMetric(bwGain/n*100, "bw-gain%")
		b.ReportMetric(latCut/n*100, "lat-cut%")
	}
}

// BenchmarkFigure11 regenerates the sensitivity sweep.
func BenchmarkFigure11(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure11(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range d.Rows {
			if row.Cores == 8 && row.Variant.Label == "2-way" {
				b.ReportMetric(row.Normalized*100, "2way-vs-full%@8C")
			}
		}
	}
}

// BenchmarkFigure12 regenerates the AP/SP complementarity comparison.
func BenchmarkFigure12(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure12(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range d.Rows {
			if row.Cores == 8 {
				b.ReportMetric(row.AP, "ap@8C")
				b.ReportMetric(row.SP, "sp@8C")
				b.ReportMetric(row.APSP, "ap+sp@8C")
			}
		}
	}
}

// BenchmarkFigure13 regenerates the power study.
func BenchmarkFigure13(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.Figure13(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range d.Rows {
			if row.Cores == 1 && row.Variant.Label == "#CL=4" {
				b.ReportMetric((1-row.PowerRatio)*100, "saving%@1C-K4")
			}
			if row.Cores == 8 && row.Variant.Label == "#CL=8" {
				b.ReportMetric((1-row.PowerRatio)*100, "saving%@8C-K8")
			}
		}
	}
}

// ---------------------------------------------------------------- ablations

// benchSpeedup runs one workload under cfg and reports total IPC.
func benchSpeedup(b *testing.B, cfg Config, names []string) float64 {
	b.Helper()
	r := benchRunner()
	res, err := r.Run(cfg, names)
	if err != nil {
		b.Fatal(err)
	}
	return res.TotalIPC()
}

var ablationMix = []string{"wupwise", "swim", "mgrid", "applu"}

// BenchmarkAblationInterleaving compares the multi-cacheline interleaving
// the design requires against page-interleaved AP (the Figure 2 variants).
func BenchmarkAblationInterleaving(b *testing.B) {
	skipIfShort(b)
	multi := WithAMBPrefetch(Default())
	page := WithAMBPrefetch(Default())
	page.Mem.Interleave = PageInterleave
	page.Mem.PageMode = OpenPage
	for i := 0; i < b.N; i++ {
		m := benchSpeedup(b, multi, ablationMix)
		p := benchSpeedup(b, page, ablationMix)
		b.ReportMetric(m, "multiCL-IPC")
		b.ReportMetric(p, "page-IPC")
	}
}

// BenchmarkAblationReplacement compares FIFO (the paper's choice) against
// LRU for the AMB cache.
func BenchmarkAblationReplacement(b *testing.B) {
	skipIfShort(b)
	fifo := WithAMBPrefetch(Default())
	lru := WithAMBPrefetch(Default())
	lru.Mem.AMBReplacement = LRU
	for i := 0; i < b.N; i++ {
		f := benchSpeedup(b, fifo, ablationMix)
		l := benchSpeedup(b, lru, ablationMix)
		b.ReportMetric(f, "fifo-IPC")
		b.ReportMetric(l, "lru-IPC")
	}
}

// BenchmarkAblationVRL checks the paper's claim that variable read latency
// barely changes the AP gain.
func BenchmarkAblationVRL(b *testing.B) {
	skipIfShort(b)
	off := WithAMBPrefetch(Default())
	on := WithAMBPrefetch(Default())
	on.Mem.VRL = true
	for i := 0; i < b.N; i++ {
		o := benchSpeedup(b, off, ablationMix)
		v := benchSpeedup(b, on, ablationMix)
		b.ReportMetric(o, "novrl-IPC")
		b.ReportMetric(v, "vrl-IPC")
	}
}

// BenchmarkAblationWritePolicy compares invalidate-on-write (the design)
// against the write-update alternative.
func BenchmarkAblationWritePolicy(b *testing.B) {
	skipIfShort(b)
	inv := WithAMBPrefetch(Default())
	upd := WithAMBPrefetch(Default())
	upd.Mem.AMBWriteUpdate = true
	for i := 0; i < b.N; i++ {
		iv := benchSpeedup(b, inv, ablationMix)
		up := benchSpeedup(b, upd, ablationMix)
		b.ReportMetric(iv, "invalidate-IPC")
		b.ReportMetric(up, "update-IPC")
	}
}

// BenchmarkSimulatorThroughput measures raw engine speed: simulated
// instructions per wall-clock second on the default 4-core configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	skipIfShort(b)
	cfg := config.Default()
	cfg.MaxInsts = 50_000
	cfg.WarmupInsts = 5_000
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1) // defeat nothing; runs are independent anyway
		res, err := system.RunWorkload(context.Background(), cfg, ablationMix, system.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Committed {
			insts += c
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(insts)/sec, "insts/s")
	}
}

// BenchmarkWorkloadSMTSpeedup runs the Section 4.2 metric end to end for a
// Table 3 mix.
func BenchmarkWorkloadSMTSpeedup(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	w, err := workload.Lookup("4C-1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s, err := r.Speedup(config.WithAMBPrefetch(config.Default()), w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s, "smt-speedup")
	}
}

// BenchmarkExtensionHWPrefetch regenerates E1: the Section 5.4 conjecture
// that AMB prefetching composes with hardware prefetching.
func BenchmarkExtensionHWPrefetch(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.ExtensionHWPrefetch(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range d.Rows {
			if row.Cores == 1 {
				b.ReportMetric(row.AP, "ap@1C")
				b.ReportMetric(row.HP, "hp@1C")
				b.ReportMetric(row.APHP, "ap+hp@1C")
			}
		}
	}
}

// BenchmarkAblationRefresh regenerates E2: the cost of DRAM refresh the
// paper's evaluation ignores.
func BenchmarkAblationRefresh(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.ExtensionRefresh(r)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range d.Rows {
			if row.CostPct > worst {
				worst = row.CostPct
			}
		}
		b.ReportMetric(worst, "worst-cost%")
	}
}

// BenchmarkExtensionPermutation regenerates E3: permutation-based
// interleaving (the paper's reference [26]) vs AMB prefetching as
// bank-conflict mitigations.
func BenchmarkExtensionPermutation(b *testing.B) {
	skipIfShort(b)
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		d, err := exp.ExtensionPermutation(r)
		if err != nil {
			b.Fatal(err)
		}
		var fbd, ap float64
		var n int
		for _, row := range d.Rows {
			switch row.System {
			case "FBD":
				fbd += row.ConflictsPerKRead
				n++
			case "FBD-AP":
				ap += row.ConflictsPerKRead
			}
		}
		if n > 0 && fbd > 0 {
			b.ReportMetric((1-ap/fbd)*100, "ap-conflict-cut%")
		}
	}
}
