// Package sample implements the statistical-sampling fidelity tier: a
// SMARTS/SimPoint-style alternation of fast functional warming and short
// detailed measured windows over one live machine. The paper itself ran
// SimPoint-sampled SPEC2000 regions rather than full programs; this package
// reproduces that trade on the simulator side. Between windows the cores
// execute their trace streams functionally — cache, AMB-cache and
// prefetcher state stays warm while the channel and DRAM timing models are
// bypassed and the simulated clock is frozen — so each measured window
// starts from representative microarchitectural state after only a short
// detailed settling ramp. Per-window measurements aggregate into one
// Results whose headline IPC carries a batch-means 95% confidence interval
// (Results.Estimate).
//
// Cost/accuracy contract (enforced by this package's property tests and the
// committed BENCH_sampled.json): on the seed workloads the default options
// simulate 10-50x fewer instructions in detail than a full run while
// keeping total-IPC error under 2%.
package sample

import (
	"context"
	"fmt"
	"math"

	"fbdsim/internal/ambcache"
	"fbdsim/internal/config"
	"fbdsim/internal/dram"
	"fbdsim/internal/stats"
	"fbdsim/internal/system"
)

// Options tunes the sampling schedule. The zero value selects defaults
// sized for the seed workloads' instruction budgets.
type Options struct {
	// Windows is the number of detailed measured windows (default 12; at
	// least 2 are required for a variance estimate).
	Windows int
	// DetailFraction is the share of the total instruction stream
	// (warmup + measurement budget) simulated in detail, ramps included
	// (default 0.08 — a 12.5x reduction in detailed instructions).
	DetailFraction float64
	// RampFraction is the share of each window's detailed instructions
	// spent settling (unmeasured) before measurement begins (default 0.25).
	RampFraction float64
}

func (o Options) withDefaults() Options {
	if o.Windows <= 0 {
		o.Windows = 12
	}
	if o.Windows < 2 {
		o.Windows = 2
	}
	if o.DetailFraction <= 0 || o.DetailFraction > 1 {
		o.DetailFraction = 0.08
	}
	if o.RampFraction <= 0 || o.RampFraction >= 1 {
		o.RampFraction = 0.25
	}
	return o
}

// Run estimates what a full cycle-accurate run of cfg over benchmarks would
// report, simulating only a DetailFraction of the instruction stream in
// detail. The returned Results carry combined per-window measurements and a
// non-nil Estimate with the batch-means confidence interval.
func Run(ctx context.Context, cfg config.Config, benchmarks []string, opt Options) (system.Results, error) {
	opt = opt.withDefaults()
	s, err := system.New(cfg, benchmarks)
	if err != nil {
		return system.Results{}, err
	}
	return run(ctx, s, cfg, opt)
}

func run(ctx context.Context, s *system.System, cfg config.Config, opt Options) (system.Results, error) {
	warm, budget := cfg.WarmupInsts, cfg.MaxInsts
	span := warm + budget
	n := int64(opt.Windows)

	// Detailed instructions per window (ramp + measured), derived from the
	// fraction; floors keep degenerate budgets meaningful.
	detail := int64(float64(span) * opt.DetailFraction / float64(n))
	if detail < 64 {
		detail = 64
	}
	ramp := int64(float64(detail) * opt.RampFraction)
	measure := detail - ramp
	if measure < 32 {
		measure = 32
	}
	stride := budget / n
	if stride < detail {
		// The budget is too small to sample: windows would overlap. Fall
		// back to contiguous detailed windows (no functional spans inside
		// the measured region — only the warmup is skipped).
		stride = detail
	}

	var (
		windows    []system.Results
		perIPC     []float64
		detailed   int64
		functional int64
		// rates accumulates each core's committed instructions across the
		// detailed windows run so far; the ratios are the cores' natural
		// relative speeds.
		rates = make([]int64, len(s.Committed()))
	)
	noteRates := func(r system.Results) {
		for i, c := range r.Committed {
			rates[i] += c
		}
	}
	// advanceTo moves the slowest core to target functionally, advancing
	// every other core proportionally to its measured speed. Equal advance
	// would pin the cores' stream positions together, and inter-core skew
	// is not a neutral detail: cores that share the L2, the AMB caches and
	// the channel contend measurably differently when aligned than when
	// naturally drifted apart. This is the warmup-region schedule, matching
	// the full run's warmup semantics (every core reaches the threshold).
	advanceTo := func(target int64) {
		cur := s.Committed()
		slow, d := 0, int64(0)
		for i, c := range cur {
			if adv := target - c; adv > d {
				slow, d = i, adv
			}
		}
		if d <= 0 {
			return
		}
		per := make([]int64, len(cur))
		for i := range per {
			per[i] = d
			if rates[slow] > 0 && rates[i] > rates[slow] {
				per[i] = d * rates[i] / rates[slow]
			}
		}
		// Cost accounting stays in stream-progress units (the slow core's
		// advance), the same units as the instruction span and the
		// per-window detailed counts.
		functional += d
		s.FunctionalAdvanceEach(per)
	}

	// Bootstrap: the tail of the warmup region runs in detail. Its window
	// is not part of the estimate — it calibrates the per-core rates the
	// functional spans need, and it leaves the machine settled exactly the
	// way every later window will be entered.
	boot := ramp + measure
	if boot > warm {
		boot = warm
	}
	if len(rates) > 1 && boot > 0 {
		advanceTo(warm - boot)
		r, err := s.StepWindow(ctx, ramp, boot-ramp)
		if err != nil {
			return system.Results{}, fmt.Errorf("sample: bootstrap window: %w", err)
		}
		detailed += ramp + maxOf(r.Committed)
		noteRates(r)
	}

	// Cover the rest of the warmup functionally, then record the
	// miss-counter baseline of the measured region: the functional spans
	// execute every skipped instruction's cache behaviour, so by the end of
	// the schedule the region's true misses-per-instruction is known
	// exactly — the control variate the regression estimator below anchors
	// on.
	advanceTo(warm)
	baseMisses := s.Hierarchy().DemandMisses
	baseCommitted := sumOf(s.Committed())

	// The measured region is scheduled in fast-core progress units: a full
	// run's measurement ends when the FASTEST core commits the budget past
	// its warm baseline (see system.maxDelta), so targeting the slowest core
	// here would simulate a far longer span of the skewed cores' streams
	// than the run being estimated — at multicore cost blowups to match.
	// advanceMeasured moves the leading core to target (past warm baseline),
	// trailing cores proportionally less.
	warmBase := append([]int64(nil), s.Committed()...)
	fastDelta := func() int64 {
		var d int64
		for i, c := range s.Committed() {
			if dd := c - warmBase[i]; dd > d {
				d = dd
			}
		}
		return d
	}
	advanceMeasured := func(target int64) {
		d := target - fastDelta()
		if d <= 0 {
			return
		}
		fast := 0
		for i, r := range rates {
			if r > rates[fast] {
				fast = i
			}
		}
		per := make([]int64, len(warmBase))
		for i := range per {
			per[i] = d
			if rates[fast] > 0 && rates[i] < rates[fast] {
				per[i] = d * rates[i] / rates[fast]
			}
		}
		functional += d
		s.FunctionalAdvanceEach(per)
	}

	for i := int64(0); i < n; i++ {
		advanceMeasured(i * stride)
		r, err := s.StepWindow(ctx, ramp, measure)
		if err != nil {
			return system.Results{}, fmt.Errorf("sample: window %d: %w", i, err)
		}
		detailed += ramp + maxOf(r.Committed)
		noteRates(r)
		windows = append(windows, r)
		perIPC = append(perIPC, r.TotalIPC())
	}
	// Cover the tail of the measured region so the control variate spans
	// exactly what a full run would have executed.
	advanceMeasured(budget)
	trueMPI := float64(s.Hierarchy().DemandMisses-baseMisses) /
		float64(sumOf(s.Committed())-baseCommitted)

	out := combine(windows)
	estIPC, ci := regressionEstimate(windows, trueMPI)
	// Re-anchor the combined Results on the adjusted estimate: keep the
	// measured per-core instruction counts and rescale the cycle count so
	// IPC[i] = Committed[i]/Cycles still holds.
	if estIPC > 0 && out.TotalIPC() > 0 {
		out.Cycles = int64(float64(sumOf(out.Committed))/estIPC + 0.5)
		for i := range out.IPC {
			out.IPC[i] = float64(out.Committed[i]) / float64(out.Cycles)
		}
	}
	out.Estimate = &system.EstimateInfo{
		Tier:            "sampled",
		TotalIPC:        out.TotalIPC(),
		CI95:            ci,
		Windows:         len(windows),
		DetailedInsts:   detailed,
		FunctionalInsts: functional,
		PerWindowIPC:    perIPC,
	}
	return out, nil
}

// regressionEstimate is a control-variate estimator over the measured
// windows: per-window cycles-per-instruction is nearly linear in per-window
// demand misses per instruction (each miss costs roughly the same stall),
// and the functional spans give the measured region's TRUE misses-per-
// instruction. Regressing window CPI on window MPI and evaluating the fit
// at the true MPI removes the dominant variance component — which windows
// happened to catch miss bursts — leaving only the residual noise. It
// returns the adjusted total-IPC estimate and the 95% CI half-width on it
// (batch-means over the regression residuals).
func regressionEstimate(ws []system.Results, trueMPI float64) (ipc, ci float64) {
	n := len(ws)
	xs := make([]float64, n) // window demand misses per committed instruction
	ys := make([]float64, n) // window cycles per committed instruction
	var committed, cycles, misses int64
	for i, r := range ws {
		c := sumOf(r.Committed)
		xs[i] = float64(r.DemandMisses) / float64(c)
		ys[i] = float64(r.Cycles) / float64(c)
		committed += c
		cycles += r.Cycles
		misses += r.DemandMisses
	}
	// Combined (committed-weighted) means: the ratio estimator the
	// adjustment re-centres.
	yc := float64(cycles) / float64(committed)
	xc := float64(misses) / float64(committed)

	var xbar, ybar float64
	for i := range xs {
		xbar += xs[i]
		ybar += ys[i]
	}
	xbar /= float64(n)
	ybar /= float64(n)
	var sxx, sxy float64
	for i := range xs {
		sxx += (xs[i] - xbar) * (xs[i] - xbar)
		sxy += (xs[i] - xbar) * (ys[i] - ybar)
	}
	// The adjustment is applied only to single-core runs. A window's stop
	// condition — the first cycle-check boundary after `measure` committed
	// instructions — correlates with the window's own recent speed, so
	// windows preferentially end right after fast low-miss stretches and
	// the plain combined estimate runs optimistic; for one core the CPI~MPI
	// fit is tight and evaluating it at the true MPI removes both that
	// selection bias and trace nonstationarity (a stream whose locality
	// drifts over the run makes the plain window mean badly biased). On
	// multicore the windows themselves can be state-biased — the functional
	// schedule walks trailing cores' positions on estimated rates, and a
	// position error changes shared-cache contention in every window — so
	// re-centring on the true MPI corrects the wrong axis and can move the
	// estimate further from the truth; the covariate stays unused and the
	// CI (batch means over the raw windows) carries the uncertainty. See
	// DESIGN.md §11 for when multicore sampled estimates are trustworthy.
	beta := 0.0
	if n >= 4 && sxx > 0 && len(ws[0].Committed) == 1 {
		beta = sxy / sxx
	}
	yAdj := yc + beta*(trueMPI-xc)
	if yAdj <= 0 { // a degenerate fit must not produce nonsense
		yAdj, beta = yc, 0
	}

	// Residual spread around the fit drives the CI; with beta == 0 this
	// degrades gracefully to plain batch-means on window CPI.
	var ss float64
	for i := range xs {
		d := ys[i] - ybar - beta*(xs[i]-xbar)
		ss += d * d
	}
	dof := n - 1
	if beta != 0 {
		dof = n - 2
	}
	ciY := 0.0
	if dof >= 1 && n >= 2 {
		s := math.Sqrt(ss / float64(dof))
		ciY = tValue(dof) * s / math.Sqrt(float64(n))
	}
	ipc = 1 / yAdj
	// First-order delta method: d(1/y) = dy/y².
	ci = ciY / (yAdj * yAdj)
	return ipc, ci
}

// combine aggregates per-window Results into one: counters and cycles sum,
// rates recompute from the sums, and latency percentiles come from the
// merged per-window histograms (each window's histogram covers exactly its
// measured interval, so the merge is the union of measured reads).
func combine(ws []system.Results) system.Results {
	first := ws[0]
	out := system.Results{
		Benchmarks: first.Benchmarks,
		Cores:      first.Cores,
		IPC:        make([]float64, first.Cores),
		Committed:  make([]int64, first.Cores),
	}
	hist := &stats.Histogram{}
	var latWeighted float64
	var bwWeighted, readUtilW, writeUtilW float64
	for _, r := range ws {
		out.Cycles += r.Cycles
		for i := range out.Committed {
			out.Committed[i] += r.Committed[i]
		}
		out.Reads += r.Reads
		out.Writes += r.Writes
		out.AMBHits += r.AMBHits
		out.BankConflicts += r.BankConflicts
		out.L2Accesses += r.L2Accesses
		out.L2Misses += r.L2Misses
		out.DemandMisses += r.DemandMisses
		out.SWPrefetches += r.SWPrefetches
		out.HWPrefetches += r.HWPrefetches
		out.Writebacks += r.Writebacks
		out.DRAM = dram.Counters{
			ACT:     out.DRAM.ACT + r.DRAM.ACT,
			PRE:     out.DRAM.PRE + r.DRAM.PRE,
			ColRead: out.DRAM.ColRead + r.DRAM.ColRead,
			ColWrit: out.DRAM.ColWrit + r.DRAM.ColWrit,
		}
		out.AMB = ambcache.Stats{
			Reads:         out.AMB.Reads + r.AMB.Reads,
			Hits:          out.AMB.Hits + r.AMB.Hits,
			Prefetched:    out.AMB.Prefetched + r.AMB.Prefetched,
			Evictions:     out.AMB.Evictions + r.AMB.Evictions,
			Invalidations: out.AMB.Invalidations + r.AMB.Invalidations,
			Scrubs:        out.AMB.Scrubs + r.AMB.Scrubs,
		}
		out.Faults = out.Faults.Add(r.Faults)
		hist.Merge(r.LatencyHist)
		latWeighted += r.AvgReadLatencyNS * float64(r.Reads)
		w := float64(r.Cycles)
		bwWeighted += r.UtilizedBandwidthGBs * w
		readUtilW += r.ReadLinkUtilization * w
		writeUtilW += r.WriteLinkUtilization * w
	}
	for i := range out.IPC {
		out.IPC[i] = float64(out.Committed[i]) / float64(out.Cycles)
	}
	if out.Reads > 0 {
		out.AvgReadLatencyNS = latWeighted / float64(out.Reads)
	}
	out.LatencyHist = hist
	if hist.Count() > 0 {
		out.P50LatencyNS = hist.Percentile(0.50).Nanoseconds()
		out.P90LatencyNS = hist.Percentile(0.90).Nanoseconds()
		out.P99LatencyNS = hist.Percentile(0.99).Nanoseconds()
		out.MaxLatencyNS = hist.Max().Nanoseconds()
	}
	if out.Cycles > 0 {
		out.UtilizedBandwidthGBs = bwWeighted / float64(out.Cycles)
		out.ReadLinkUtilization = readUtilW / float64(out.Cycles)
		out.WriteLinkUtilization = writeUtilW / float64(out.Cycles)
	}
	return out
}

// tValue returns the two-sided 95% Student-t critical value for df degrees
// of freedom (interpolation-free lookup; large df converges to 1.96).
func tValue(df int) float64 {
	table := []float64{ // df 1..30
		12.71, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < 1 {
		return table[0]
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.96
}

func sumOf(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
