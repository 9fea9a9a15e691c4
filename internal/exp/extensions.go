package exp

import (
	"fmt"
	"io"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
)

// ----------------------------------------------------------- Extension E1

// E1Row compares hardware prefetching against (and combined with) AMB
// prefetching for one core count, all normalized to a system with neither.
type E1Row struct {
	Cores int
	AP    float64 // AMB prefetching only
	HP    float64 // hardware stream prefetching only
	APHP  float64 // both
}

// E1Data tests the Section 5.4 conjecture: "We believe AMB prefetching will
// improve performance similarly if hardware prefetching is used." The paper
// did not run this experiment (hardware prefetcher design variance made a
// fair comparison hard); this extension runs a conventional stream
// prefetcher and mirrors the Figure 12 analysis.
type E1Data struct{ Rows []E1Row }

// ExtensionHWPrefetch runs E1. Software prefetching is disabled in all four
// arms so the hardware prefetcher is the only cache-level prefetch source.
func ExtensionHWPrefetch(r *Runner) (E1Data, error) {
	var d E1Data
	base := config.FBDIMMBaseline()
	base.CPU.SoftwarePrefetch = false

	apCfg := config.WithAMBPrefetch(config.Default())
	apCfg.CPU.SoftwarePrefetch = false

	hpCfg := base
	hpCfg.CPU.HardwarePrefetch = true

	bothCfg := apCfg
	bothCfg.CPU.HardwarePrefetch = true

	groups, ws := r.coreGroups()
	s, err := r.speedups([]config.Config{base, apCfg, hpCfg, bothCfg}, ws)
	if err != nil {
		return d, err
	}
	for _, g := range groups {
		none, ap, hp, both := g.of(s[0]), g.of(s[1]), g.of(s[2]), g.of(s[3])
		b := mean(none)
		d.Rows = append(d.Rows, E1Row{
			Cores: g.Cores,
			AP:    mean(ap) / b,
			HP:    mean(hp) / b,
			APHP:  mean(both) / b,
		})
	}
	return d, nil
}

// Format writes the extension as a table.
func (d E1Data) Format(w io.Writer) {
	fmt.Fprintf(w, "E1  AMB vs hardware stream prefetching (relative to neither = 1.0)\n")
	fmt.Fprintf(w, "%6s %8s %8s %8s %20s\n", "cores", "AP", "HP", "AP+HP", "additive prediction")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %8.3f %8.3f %8.3f %20.3f\n",
			row.Cores, row.AP, row.HP, row.APHP, row.AP+row.HP-1)
	}
}

// ----------------------------------------------------------- Extension E2

// E2Row quantifies the cost of DRAM refresh for one configuration.
type E2Row struct {
	Cores     int
	System    string
	NoRefresh float64 // average SMT speedup without refresh
	Refresh   float64 // with tREFI/tRFC refresh windows
	CostPct   float64 // slowdown caused by refresh
}

// E2Data checks the paper's implicit assumption that ignoring refresh is
// harmless: the ~1.6% duty cycle (tRFC/tREFI) should cost about that much
// uniformly, leaving every comparison intact.
type E2Data struct{ Rows []E2Row }

// ExtensionRefresh runs E2 on the FBD and FBD-AP systems.
func ExtensionRefresh(r *Runner) (E2Data, error) {
	var d E2Data
	systems := []struct {
		name string
		cfg  config.Config
	}{
		{"FBD", config.FBDIMMBaseline()},
		{"FBD-AP", config.WithAMBPrefetch(config.Default())},
	}
	// cfgs holds each system without, then with, refresh.
	var cfgs []config.Config
	for _, sys := range systems {
		ref := sys.cfg
		ref.Mem.RefreshEnabled = true
		cfgs = append(cfgs, sys.cfg, ref)
	}
	groups, ws := r.coreGroups()
	s, err := r.speedups(cfgs, ws)
	if err != nil {
		return d, err
	}
	for i, sys := range systems {
		for _, g := range groups {
			off, on := g.of(s[2*i]), g.of(s[2*i+1])
			row := E2Row{Cores: g.Cores, System: sys.name, NoRefresh: mean(off), Refresh: mean(on)}
			row.CostPct = (1 - row.Refresh/row.NoRefresh) * 100
			d.Rows = append(d.Rows, row)
		}
	}
	return d, nil
}

// Format writes the extension as a table.
func (d E2Data) Format(w io.Writer) {
	fmt.Fprintf(w, "E2  cost of DRAM refresh (tREFI 7.8us, tRFC 127.5ns)\n")
	fmt.Fprintf(w, "%6s %8s %10s %10s %8s\n", "cores", "system", "no-refresh", "refresh", "cost%")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %8s %10.3f %10.3f %8.2f\n",
			row.Cores, row.System, row.NoRefresh, row.Refresh, row.CostPct)
	}
}

// ----------------------------------------------------------- Extension E3

// E3Row compares bank-conflict mitigation strategies for one core count.
type E3Row struct {
	Cores int
	// System is FBD, FBD+perm, FBD-AP, or FBD-AP+perm.
	System string
	// Speedup is the average SMT speedup (DDR2 single-core reference).
	Speedup float64
	// ConflictsPerKRead is delayed activations per 1000 memory reads.
	ConflictsPerKRead float64
}

// E3Data evaluates permutation-based interleaving (the paper's reference
// [26], by the same authors) against and combined with AMB prefetching:
// both attack DRAM bank conflicts, one by scattering conflicting rows
// across banks, the other by not visiting the banks at all.
type E3Data struct{ Rows []E3Row }

// ExtensionPermutation runs E3.
func ExtensionPermutation(r *Runner) (E3Data, error) {
	var d E3Data
	permuted := func(c config.Config) config.Config {
		c.Mem.PermuteBanks = true
		return c
	}
	openPage := func() config.Config {
		c := config.FBDIMMBaseline()
		c.Mem.Interleave = config.PageInterleave
		c.Mem.PageMode = config.OpenPage
		return c
	}
	systems := []struct {
		name string
		cfg  config.Config
	}{
		{"FBD", config.FBDIMMBaseline()},
		{"FBD+perm", permuted(config.FBDIMMBaseline())},
		// Open-page arms: permutation's home turf — row-buffer conflicts
		// exist to be scattered there.
		{"FBD-open", openPage()},
		{"FBD-open+perm", permuted(openPage())},
		{"FBD-AP", config.WithAMBPrefetch(config.Default())},
		{"FBD-AP+perm", permuted(config.WithAMBPrefetch(config.Default()))},
	}
	cfgs := make([]config.Config, len(systems))
	for i, sys := range systems {
		cfgs[i] = sys.cfg
	}
	groups, ws := r.coreGroups()
	s, err := r.speedups(cfgs, ws)
	if err != nil {
		return d, err
	}
	for _, g := range groups {
		for i, sys := range systems {
			speedups := g.of(s[i])
			var conflicts, reads int64
			for _, w := range g.Workloads {
				res, err := r.Run(sys.cfg, w.Benchmarks)
				if err != nil {
					return d, err
				}
				conflicts += res.BankConflicts
				reads += res.Reads
			}
			row := E3Row{Cores: g.Cores, System: sys.name, Speedup: mean(speedups)}
			if reads > 0 {
				row.ConflictsPerKRead = 1000 * float64(conflicts) / float64(reads)
			}
			d.Rows = append(d.Rows, row)
		}
	}
	return d, nil
}

// Format writes the extension as a table.
func (d E3Data) Format(w io.Writer) {
	fmt.Fprintf(w, "E3  bank-conflict mitigation: permutation interleaving vs AMB prefetching\n")
	fmt.Fprintf(w, "%6s %-14s %9s %16s\n", "cores", "system", "speedup", "conflicts/Kread")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %-14s %9.3f %16.1f\n",
			row.Cores, row.System, row.Speedup, row.ConflictsPerKRead)
	}
}

// CSV exports the E3 rows.
func (d E3Data) CSV(w io.Writer) error {
	rows := make([][]string, 0, len(d.Rows))
	for _, r := range d.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Cores), r.System,
			fmt.Sprintf("%.3f", r.Speedup), fmt.Sprintf("%.1f", r.ConflictsPerKRead)})
	}
	return writeRecords(w, []string{"cores", "system", "speedup", "conflicts_per_kread"}, rows)
}

// ----------------------------------------------------------- Extension E4

// E4Row reports the spread of the headline AP gain across trace seeds.
type E4Row struct {
	Cores   int
	MeanPct float64
	MinPct  float64
	MaxPct  float64
}

// E4Data quantifies seed sensitivity: the paper runs one SimPoint slice per
// program; our synthetic traces let us re-roll the workload and check that
// the Figure 7 conclusion is not a lucky draw.
type E4Data struct {
	Seeds []int64
	Rows  []E4Row
}

// ExtensionSeedSensitivity recomputes the Figure 7 average gains under
// several trace seeds using copies of r that differ only in the seed, and
// so share its budgets, result cache, parallelism bound and accounting.
// Cache keys carry the seed, so a copy at the runner's own seed reuses its
// Figure 7 simulations and the others simulate afresh.
func ExtensionSeedSensitivity(r *Runner, seeds []int64) (E4Data, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	d := E4Data{Seeds: seeds}
	perCores := map[int][]float64{}
	for _, seed := range seeds {
		sub := *r
		sub.opts.Seed = seed
		f7, err := Figure7(&sub)
		if err != nil {
			return d, err
		}
		for cores, gain := range f7.AvgGainPct {
			perCores[cores] = append(perCores[cores], gain)
		}
	}
	for _, cores := range []int{1, 2, 4, 8} {
		gains := perCores[cores]
		if len(gains) == 0 {
			continue
		}
		row := E4Row{Cores: cores, MinPct: gains[0], MaxPct: gains[0]}
		for _, g := range gains {
			row.MeanPct += g
			if g < row.MinPct {
				row.MinPct = g
			}
			if g > row.MaxPct {
				row.MaxPct = g
			}
		}
		row.MeanPct /= float64(len(gains))
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// Format writes the extension as a table.
func (d E4Data) Format(w io.Writer) {
	fmt.Fprintf(w, "E4  seed sensitivity of the AMB-prefetching gain (%d seeds)\n", len(d.Seeds))
	fmt.Fprintf(w, "%6s %10s %10s %10s\n", "cores", "mean%", "min%", "max%")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %+10.1f %+10.1f %+10.1f\n", row.Cores, row.MeanPct, row.MinPct, row.MaxPct)
	}
}

// CSV exports the E4 rows.
func (d E4Data) CSV(w io.Writer) error {
	rows := make([][]string, 0, len(d.Rows))
	for _, r := range d.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%.1f", r.MeanPct), fmt.Sprintf("%.1f", r.MinPct), fmt.Sprintf("%.1f", r.MaxPct)})
	}
	return writeRecords(w, []string{"cores", "mean_pct", "min_pct", "max_pct"}, rows)
}

// ----------------------------------------------------------- Extension E5

// E5Row projects the systems onto DDR3 devices for one core count.
type E5Row struct {
	Cores int
	// FBD2 / AP2 are DDR2-667 baselines; FBD3 / AP3 are DDR3-1333.
	FBD2 float64
	AP2  float64
	FBD3 float64
	AP3  float64
	// APGain2Pct / APGain3Pct are the AMB-prefetching gains on each device
	// generation.
	APGain2Pct float64
	APGain3Pct float64
}

// E5Data tests footnote 1's forward projection: FB-DIMM (and AMB
// prefetching) with DDR3 DIMMs. Doubling the per-DIMM device bandwidth
// widens the redundant-bandwidth gap AMB prefetching exploits, so the
// technique should survive the generation change.
type E5Data struct{ Rows []E5Row }

// ExtensionDDR3 runs E5.
func ExtensionDDR3(r *Runner) (E5Data, error) {
	var d E5Data
	fbd2 := config.FBDIMMBaseline()
	ap2 := config.WithAMBPrefetch(config.Default())
	fbd3 := config.WithDDR3(config.FBDIMMBaseline())
	ap3 := config.WithDDR3(config.WithAMBPrefetch(config.Default()))

	groups, ws := r.coreGroups()
	s, err := r.speedups([]config.Config{fbd2, ap2, fbd3, ap3}, ws)
	if err != nil {
		return d, err
	}
	for _, g := range groups {
		row := E5Row{
			Cores: g.Cores,
			FBD2:  mean(g.of(s[0])), AP2: mean(g.of(s[1])),
			FBD3: mean(g.of(s[2])), AP3: mean(g.of(s[3])),
		}
		row.APGain2Pct = gainPct(row.AP2, row.FBD2)
		row.APGain3Pct = gainPct(row.AP3, row.FBD3)
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// Format writes the extension as a table.
func (d E5Data) Format(w io.Writer) {
	fmt.Fprintf(w, "E5  DDR3 projection (footnote 1): FB-DIMM with DDR3-1333 DIMMs\n")
	fmt.Fprintf(w, "%6s %9s %9s %9s %9s %10s %10s\n",
		"cores", "FBD-DDR2", "AP-DDR2", "FBD-DDR3", "AP-DDR3", "gain2%", "gain3%")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %9.3f %9.3f %9.3f %9.3f %+10.1f %+10.1f\n",
			row.Cores, row.FBD2, row.AP2, row.FBD3, row.AP3, row.APGain2Pct, row.APGain3Pct)
	}
}

// CSV exports the E5 rows.
func (d E5Data) CSV(w io.Writer) error {
	rows := make([][]string, 0, len(d.Rows))
	for _, r := range d.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d", r.Cores),
			fmt.Sprintf("%.3f", r.FBD2), fmt.Sprintf("%.3f", r.AP2),
			fmt.Sprintf("%.3f", r.FBD3), fmt.Sprintf("%.3f", r.AP3),
			fmt.Sprintf("%.1f", r.APGain2Pct), fmt.Sprintf("%.1f", r.APGain3Pct)})
	}
	return writeRecords(w, []string{"cores", "fbd_ddr2", "ap_ddr2", "fbd_ddr3", "ap_ddr3", "ap_gain2_pct", "ap_gain3_pct"}, rows)
}

// ----------------------------------------------------------- Extension E6

// E6Row is one (link error rate, prefetch degree) point of the fault
// sweep. K = 0 denotes the FBD baseline without AMB prefetching.
type E6Row struct {
	RatePct float64 // per-frame CRC error probability on each link, percent
	K       int     // prefetch region size; 0 = plain FBD
	Speedup float64 // mean SMT speedup across the workload set
	// GainPct is the AMB-prefetching gain over plain FBD at the same
	// error rate (0 for the baseline rows).
	GainPct float64
	// RetriesPerKRead is frame replays per 1000 memory reads.
	RetriesPerKRead float64
	// P95NS is the mean post-warmup p95 read latency across workloads.
	P95NS float64
}

// E6Data sweeps link error rate against prefetch degree: retried frames
// re-arbitrate for link slots, so every replay steals exactly the
// bandwidth headroom that AMB prefetching spends on speculative K-line
// fills. The sweep quantifies how quickly channel errors erode the
// prefetching gain, and whether larger K amplifies the erosion.
type E6Data struct{ Rows []E6Row }

// ExtensionFaultSweep runs E6: error rate {0, 1, 5, 10}% x K {2, 4, 8},
// FBD vs FBD-AP, with a fixed fault seed so every point is reproducible.
func ExtensionFaultSweep(r *Runner) (E6Data, error) {
	var d E6Data
	withFault := func(cfg config.Config, rate float64) config.Config {
		cfg.Fault = config.Fault{DegradedDIMM: -1, DeadBank: -1}
		if rate > 0 {
			cfg.Fault.Enabled = true
			cfg.Fault.Seed = 1
			cfg.Fault.SouthErrorRate = rate
			cfg.Fault.NorthErrorRate = rate
		}
		return cfg
	}
	apK := func(k int) config.Config {
		cfg := config.WithAMBPrefetch(config.Default())
		cfg.Mem.RegionLines = k
		return cfg
	}
	rates, ks := []float64{0, 0.01, 0.05, 0.10}, []int{2, 4, 8}
	// cfgs holds, per error rate, plain FBD and then AP at each K.
	var cfgs []config.Config
	for _, rate := range rates {
		cfgs = append(cfgs, withFault(config.FBDIMMBaseline(), rate))
		for _, k := range ks {
			cfgs = append(cfgs, withFault(apK(k), rate))
		}
	}
	_, ws := r.coreGroups()
	s, err := r.speedups(cfgs, ws)
	if err != nil {
		return d, err
	}

	measure := func(c int) (E6Row, error) {
		row := E6Row{Speedup: mean(s[c])}
		var retries, reads int64
		var p95 float64
		for _, w := range ws {
			res, err := r.Run(cfgs[c], w.Benchmarks)
			if err != nil {
				return row, err
			}
			retries += res.Faults.Retries
			reads += res.Reads
			if res.LatencyHist != nil {
				p95 += float64(res.LatencyHist.Percentile(0.95)) / float64(clock.Nanosecond)
			}
		}
		if reads > 0 {
			row.RetriesPerKRead = 1000 * float64(retries) / float64(reads)
		}
		if len(ws) > 0 {
			row.P95NS = p95 / float64(len(ws))
		}
		return row, nil
	}

	for i, rate := range rates {
		c := i * (1 + len(ks))
		base, err := measure(c)
		if err != nil {
			return d, err
		}
		base.RatePct = rate * 100
		d.Rows = append(d.Rows, base)
		for j, k := range ks {
			row, err := measure(c + 1 + j)
			if err != nil {
				return d, err
			}
			row.RatePct, row.K = rate*100, k
			row.GainPct = gainPct(row.Speedup, base.Speedup)
			d.Rows = append(d.Rows, row)
		}
	}
	return d, nil
}

// Format writes the extension as a table.
func (d E6Data) Format(w io.Writer) {
	fmt.Fprintf(w, "E6  link error rate x prefetch degree (per-frame CRC error probability)\n")
	fmt.Fprintf(w, "%7s %6s %9s %8s %14s %9s\n",
		"err%", "K", "speedup", "gain%", "retries/Kread", "p95(ns)")
	for _, row := range d.Rows {
		k := "FBD"
		if row.K > 0 {
			k = fmt.Sprintf("%d", row.K)
		}
		fmt.Fprintf(w, "%7.1f %6s %9.3f %+8.1f %14.1f %9.0f\n",
			row.RatePct, k, row.Speedup, row.GainPct, row.RetriesPerKRead, row.P95NS)
	}
}

// CSV exports the E6 rows.
func (d E6Data) CSV(w io.Writer) error {
	rows := make([][]string, 0, len(d.Rows))
	for _, r := range d.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", r.RatePct), fmt.Sprintf("%d", r.K),
			fmt.Sprintf("%.3f", r.Speedup), fmt.Sprintf("%.1f", r.GainPct),
			fmt.Sprintf("%.1f", r.RetriesPerKRead), fmt.Sprintf("%.0f", r.P95NS)})
	}
	return writeRecords(w, []string{"err_pct", "k", "speedup", "gain_pct", "retries_per_kread", "p95_ns"}, rows)
}
