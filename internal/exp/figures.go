package exp

import (
	"fmt"
	"io"

	"fbdsim/internal/config"
	"fbdsim/internal/power"
	"fbdsim/internal/sweep"
	"fbdsim/internal/workload"
)

func gainPct(test, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (test/base - 1) * 100
}

// ---------------------------------------------------------------- Figure 4

// Figure4Row compares DDR2 and FB-DIMM SMT speedups for one workload.
type Figure4Row struct {
	Workload string
	Cores    int
	DDR2     float64
	FBD      float64
}

// Figure4Data is the DDR2-vs-FB-DIMM comparison of Figure 4.
type Figure4Data struct {
	Rows []Figure4Row
	// AvgGainPct is FB-DIMM's average gain over DDR2 per core count
	// (paper: -1.5%, -0.6%, +1.1%, +6.0% for 1/2/4/8 cores).
	AvgGainPct map[int]float64
}

// Figure4 reproduces Figure 4: SMT speedup of every workload on DDR2 and
// FB-DIMM (no AMB prefetching), referenced to single-threaded DDR2.
func Figure4(r *Runner) (Figure4Data, error) {
	d := Figure4Data{AvgGainPct: map[int]float64{}}
	for _, g := range r.coreGroups() {
		ddr, err := r.speedupAll(config.DDR2Baseline(), g.Workloads)
		if err != nil {
			return d, err
		}
		fbd, err := r.speedupAll(config.FBDIMMBaseline(), g.Workloads)
		if err != nil {
			return d, err
		}
		gains := make([]float64, len(g.Workloads))
		for i, w := range g.Workloads {
			d.Rows = append(d.Rows, Figure4Row{Workload: w.Name, Cores: g.Cores, DDR2: ddr[i], FBD: fbd[i]})
			gains[i] = fbd[i] / ddr[i]
		}
		d.AvgGainPct[g.Cores] = (mean(gains) - 1) * 100
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure4Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 4  SMT speedup, DDR2 vs FB-DIMM (reference: single-core DDR2)\n")
	fmt.Fprintf(w, "%-12s %6s %8s %8s %8s\n", "workload", "cores", "DDR2", "FBD", "gain%")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%-12s %6d %8.3f %8.3f %+8.1f\n",
			row.Workload, row.Cores, row.DDR2, row.FBD, gainPct(row.FBD, row.DDR2))
	}
	for _, n := range []int{1, 2, 4, 8} {
		if g, ok := d.AvgGainPct[n]; ok {
			fmt.Fprintf(w, "  avg FBD gain over DDR2 @%d cores: %+.1f%%\n", n, g)
		}
	}
}

// ---------------------------------------------------------------- Figure 5

// Figure5Row is one (bandwidth, latency) point of Figure 5.
type Figure5Row struct {
	Workload     string
	Cores        int
	System       string // "DDR2" or "FBD"
	BandwidthGBs float64
	LatencyNS    float64
}

// Figure5Data holds the utilized-bandwidth-vs-latency scatter of Figure 5.
type Figure5Data struct {
	Rows []Figure5Row
	// Averages per (cores, system): bandwidth and latency (paper at 8
	// cores: FBD 17.1 GB/s @146 ns vs DDR2 16.0 GB/s @155 ns).
	AvgBW  map[string]float64
	AvgLat map[string]float64
}

func avgKey(cores int, sys string) string { return fmt.Sprintf("%dC/%s", cores, sys) }

// Figure5 reproduces Figure 5 from the same runs as Figure 4: one sweep
// per core count over {DDR2, FBD} × that core count's workloads.
func Figure5(r *Runner) (Figure5Data, error) {
	d := Figure5Data{AvgBW: map[string]float64{}, AvgLat: map[string]float64{}}
	systems := []sweep.NamedConfig{
		{Name: "DDR2", Config: config.DDR2Baseline()},
		{Name: "FBD", Config: config.FBDIMMBaseline()},
	}
	for _, g := range r.coreGroups() {
		pts, err := r.sweep("figure5", systems, g.Workloads)
		if err != nil {
			return d, err
		}
		// Points arrive in grid order: every workload of one system, then
		// the next system.
		for s, sys := range systems {
			var bws, lats []float64
			for i, w := range g.Workloads {
				res := pts[s*len(g.Workloads)+i].Results
				d.Rows = append(d.Rows, Figure5Row{
					Workload: w.Name, Cores: g.Cores, System: sys.Name,
					BandwidthGBs: res.UtilizedBandwidthGBs, LatencyNS: res.AvgReadLatencyNS,
				})
				bws = append(bws, res.UtilizedBandwidthGBs)
				lats = append(lats, res.AvgReadLatencyNS)
			}
			d.AvgBW[avgKey(g.Cores, sys.Name)] = mean(bws)
			d.AvgLat[avgKey(g.Cores, sys.Name)] = mean(lats)
		}
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure5Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 5  utilized bandwidth vs average latency (DDR2 vs FBD)\n")
	fmt.Fprintf(w, "%-12s %6s %6s %10s %10s\n", "workload", "cores", "system", "BW GB/s", "lat ns")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%-12s %6d %6s %10.2f %10.1f\n",
			row.Workload, row.Cores, row.System, row.BandwidthGBs, row.LatencyNS)
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, sys := range []string{"DDR2", "FBD"} {
			k := avgKey(n, sys)
			if bw, ok := d.AvgBW[k]; ok {
				fmt.Fprintf(w, "  avg %-8s: %6.2f GB/s @ %6.1f ns\n", k, bw, d.AvgLat[k])
			}
		}
	}
}

// ---------------------------------------------------------------- Figure 6

// Figure6Row is one bandwidth-scaling point: per-core-count average SMT
// speedup at a (data rate, channel count) design point.
type Figure6Row struct {
	Cores    int
	RateMTs  int
	Channels int // logical channels
	DDR2     float64
	FBD      float64
}

// Figure6Data is the bandwidth-impact study of Figure 6.
type Figure6Data struct{ Rows []Figure6Row }

// Figure6 reproduces Figure 6: performance with data rates 533/667 MT/s and
// 1/2/4 logical channels, for both memory systems.
func Figure6(r *Runner) (Figure6Data, error) {
	var d Figure6Data
	for _, rate := range []int{533, 667} {
		for _, ch := range []int{1, 2, 4} {
			mk := func(base config.Config) config.Config {
				base.Mem.DataRate = clockRate(rate)
				base.Mem.LogicalChannels = ch
				return base
			}
			for _, g := range r.coreGroups() {
				ddr, err := r.speedupAll(mk(config.DDR2Baseline()), g.Workloads)
				if err != nil {
					return d, err
				}
				fbd, err := r.speedupAll(mk(config.FBDIMMBaseline()), g.Workloads)
				if err != nil {
					return d, err
				}
				d.Rows = append(d.Rows, Figure6Row{
					Cores: g.Cores, RateMTs: rate, Channels: ch,
					DDR2: mean(ddr), FBD: mean(fbd),
				})
			}
		}
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure6Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 6  bandwidth impact (avg SMT speedup per core count)\n")
	fmt.Fprintf(w, "%6s %8s %9s %8s %8s\n", "cores", "MT/s", "channels", "DDR2", "FBD")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %8d %9d %8.3f %8.3f\n",
			row.Cores, row.RateMTs, row.Channels, row.DDR2, row.FBD)
	}
}

// ---------------------------------------------------------------- Figure 7

// Figure7Row compares FB-DIMM with and without AMB prefetching.
type Figure7Row struct {
	Workload string
	Cores    int
	FBD      float64
	FBDAP    float64
	GainPct  float64
}

// Figure7Data is the headline result: AMB prefetching's speedup.
type Figure7Data struct {
	Rows []Figure7Row
	// AvgGainPct per core count (paper: 16.0 / 19.4 / 16.3 / 15.0 %).
	AvgGainPct map[int]float64
	// MaxGainPct per core count (paper: — / 30.7 / 25.1 / 19.7 %).
	MaxGainPct map[int]float64
}

// Figure7 reproduces Figure 7 with the default AMB prefetcher (K=4,
// 64-entry fully-associative FIFO AMB cache, software prefetching on).
func Figure7(r *Runner) (Figure7Data, error) {
	d := Figure7Data{AvgGainPct: map[int]float64{}, MaxGainPct: map[int]float64{}}
	apCfg := config.WithAMBPrefetch(config.Default())
	for _, g := range r.coreGroups() {
		fbd, err := r.speedupAll(config.FBDIMMBaseline(), g.Workloads)
		if err != nil {
			return d, err
		}
		ap, err := r.speedupAll(apCfg, g.Workloads)
		if err != nil {
			return d, err
		}
		gains := make([]float64, len(g.Workloads))
		maxGain := 0.0
		for i, w := range g.Workloads {
			gp := gainPct(ap[i], fbd[i])
			d.Rows = append(d.Rows, Figure7Row{
				Workload: w.Name, Cores: g.Cores, FBD: fbd[i], FBDAP: ap[i], GainPct: gp,
			})
			gains[i] = ap[i] / fbd[i]
			if gp > maxGain {
				maxGain = gp
			}
		}
		d.AvgGainPct[g.Cores] = (mean(gains) - 1) * 100
		d.MaxGainPct[g.Cores] = maxGain
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure7Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 7  FB-DIMM with vs without AMB prefetching (SMT speedup)\n")
	fmt.Fprintf(w, "%-12s %6s %8s %8s %8s\n", "workload", "cores", "FBD", "FBD-AP", "gain%")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%-12s %6d %8.3f %8.3f %+8.1f\n",
			row.Workload, row.Cores, row.FBD, row.FBDAP, row.GainPct)
	}
	for _, n := range []int{1, 2, 4, 8} {
		if g, ok := d.AvgGainPct[n]; ok {
			fmt.Fprintf(w, "  @%d cores: avg gain %+.1f%% (paper avg 16.0/19.4/16.3/15.0), max %+.1f%%\n",
				n, g, d.MaxGainPct[n])
		}
	}
}

// ---------------------------------------------------------------- Figure 8

// PrefetcherVariant names one AMB-prefetcher configuration of the
// sensitivity sweeps (Figures 8, 11, 13).
type PrefetcherVariant struct {
	Label       string
	RegionLines int
	Entries     int
	Assoc       int // config.FullAssoc for fully associative
}

// apply returns the default system with this prefetcher variant enabled.
func (v PrefetcherVariant) apply() config.Config {
	cfg := config.WithAMBPrefetch(config.Default())
	cfg.Mem.RegionLines = v.RegionLines
	cfg.Mem.AMBCacheLines = v.Entries
	cfg.Mem.AMBCacheAssoc = v.Assoc
	return cfg
}

// Figure8Variants returns the sweep of Figure 8: region size 2/4/8,
// buffer size 32/64/128, associativity direct/2/4/full. The middle entry
// of each axis is the default configuration.
func Figure8Variants() []PrefetcherVariant {
	return []PrefetcherVariant{
		{"#CL=2", 2, 64, config.FullAssoc},
		{"#CL=4 (default)", 4, 64, config.FullAssoc},
		{"#CL=8", 8, 64, config.FullAssoc},
		{"#entry=32", 4, 32, config.FullAssoc},
		{"#entry=128", 4, 128, config.FullAssoc},
		{"direct-mapped", 4, 64, 1},
		{"2-way", 4, 64, 2},
		{"4-way", 4, 64, 4},
	}
}

// Figure8Row reports aggregate prefetch coverage and efficiency for one
// variant.
type Figure8Row struct {
	Variant    PrefetcherVariant
	Coverage   float64
	Efficiency float64
}

// Figure8Data is the coverage/efficiency study of Figure 8.
type Figure8Data struct{ Rows []Figure8Row }

// variantConfigs turns a prefetcher-variant sweep into the config
// dimension of a sweep spec, one named config per variant label.
func variantConfigs(vs []PrefetcherVariant) []sweep.NamedConfig {
	out := make([]sweep.NamedConfig, len(vs))
	for i, v := range vs {
		out[i] = sweep.NamedConfig{Name: v.Label, Config: v.apply()}
	}
	return out
}

// Figure8 reproduces Figure 8: coverage (#prefetch_hit/#read) and
// efficiency (#prefetch_hit/#prefetch) across prefetcher variants,
// aggregated over the workload set. The figure is one sweep: variants ×
// workloads.
func Figure8(r *Runner) (Figure8Data, error) {
	var d Figure8Data
	pts, err := r.sweep("figure8", variantConfigs(Figure8Variants()), r.opts.Workloads)
	if err != nil {
		return d, err
	}
	type agg struct{ hits, reads, prefetched int64 }
	byVariant := map[string]*agg{}
	for _, p := range pts {
		a := byVariant[p.Config]
		if a == nil {
			a = &agg{}
			byVariant[p.Config] = a
		}
		a.hits += p.Results.AMB.Hits
		a.reads += p.Results.AMB.Reads
		a.prefetched += p.Results.AMB.Prefetched
	}
	for _, v := range Figure8Variants() {
		a := byVariant[v.Label]
		row := Figure8Row{Variant: v}
		if a.reads > 0 {
			row.Coverage = float64(a.hits) / float64(a.reads)
		}
		if a.prefetched > 0 {
			row.Efficiency = float64(a.hits) / float64(a.prefetched)
		}
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure8Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 8  prefetch coverage and efficiency (coverage bound for K: (K-1)/K)\n")
	fmt.Fprintf(w, "%-18s %10s %12s\n", "variant", "coverage", "efficiency")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%-18s %10.3f %12.3f\n", row.Variant.Label, row.Coverage, row.Efficiency)
	}
}

// ---------------------------------------------------------------- Figure 9

// Figure9Row decomposes the AMB-prefetching gain for one core count.
type Figure9Row struct {
	Cores int
	FBD   float64 // baseline average speedup
	APFL  float64 // prefetching with full-latency hits (bank benefit only)
	AP    float64 // full prefetching
	// BandwidthGainPct is APFL over FBD (paper: 8.2/10.1/8.5/9.2%);
	// LatencyGainPct is AP over APFL (paper: 7.1/8.5/7.2/5.3%).
	BandwidthGainPct float64
	LatencyGainPct   float64
}

// Figure9Data is the gain decomposition of Figure 9.
type Figure9Data struct{ Rows []Figure9Row }

// Figure9 reproduces Figure 9 using the FBD-APFL configuration, separating
// the bank-conflict (bandwidth) benefit from the idle-latency benefit.
func Figure9(r *Runner) (Figure9Data, error) {
	var d Figure9Data
	apCfg := config.WithAMBPrefetch(config.Default())
	flCfg := config.WithFullLatencyHits(config.Default())
	for _, g := range r.coreGroups() {
		fbd, err := r.speedupAll(config.FBDIMMBaseline(), g.Workloads)
		if err != nil {
			return d, err
		}
		fl, err := r.speedupAll(flCfg, g.Workloads)
		if err != nil {
			return d, err
		}
		ap, err := r.speedupAll(apCfg, g.Workloads)
		if err != nil {
			return d, err
		}
		row := Figure9Row{Cores: g.Cores, FBD: mean(fbd), APFL: mean(fl), AP: mean(ap)}
		row.BandwidthGainPct = gainPct(row.APFL, row.FBD)
		row.LatencyGainPct = gainPct(row.AP, row.APFL)
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure9Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 9  decomposition of the AMB-prefetching gain\n")
	fmt.Fprintf(w, "%6s %8s %8s %8s %14s %14s\n",
		"cores", "FBD", "FBD-APFL", "FBD-AP", "bw-util gain%", "latency gain%")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %8.3f %8.3f %8.3f %+14.1f %+14.1f\n",
			row.Cores, row.FBD, row.APFL, row.AP, row.BandwidthGainPct, row.LatencyGainPct)
	}
}

// --------------------------------------------------------------- Figure 10

// Figure10Row pairs bandwidth and latency for FBD and FBD-AP on one
// workload.
type Figure10Row struct {
	Workload string
	Cores    int
	FBDBW    float64
	FBDLat   float64
	APBW     float64
	APLat    float64
}

// Figure10Data is the bandwidth/latency comparison of Figure 10.
type Figure10Data struct{ Rows []Figure10Row }

// Figure10 reproduces Figure 10: for every workload, AMB prefetching should
// raise utilized bandwidth and cut average latency. Each core count is one
// sweep over {FBD, FBD-AP} × its workloads.
func Figure10(r *Runner) (Figure10Data, error) {
	var d Figure10Data
	systems := []sweep.NamedConfig{
		{Name: "FBD", Config: config.FBDIMMBaseline()},
		{Name: "FBD-AP", Config: config.WithAMBPrefetch(config.Default())},
	}
	for _, g := range r.coreGroups() {
		pts, err := r.sweep("figure10", systems, g.Workloads)
		if err != nil {
			return d, err
		}
		n := len(g.Workloads)
		for i, w := range g.Workloads {
			base, ap := pts[i].Results, pts[n+i].Results
			d.Rows = append(d.Rows, Figure10Row{
				Workload: w.Name, Cores: g.Cores,
				FBDBW: base.UtilizedBandwidthGBs, FBDLat: base.AvgReadLatencyNS,
				APBW: ap.UtilizedBandwidthGBs, APLat: ap.AvgReadLatencyNS,
			})
		}
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure10Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 10  utilized bandwidth vs latency, FBD vs FBD-AP\n")
	fmt.Fprintf(w, "%-12s %6s %10s %9s %10s %9s\n",
		"workload", "cores", "FBD GB/s", "FBD ns", "AP GB/s", "AP ns")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%-12s %6d %10.2f %9.1f %10.2f %9.1f\n",
			row.Workload, row.Cores, row.FBDBW, row.FBDLat, row.APBW, row.APLat)
	}
}

// --------------------------------------------------------------- Figure 11

// Figure11Row is one sensitivity point: performance of a prefetcher variant
// normalized to the default variant, averaged within a core count.
type Figure11Row struct {
	Cores      int
	Variant    PrefetcherVariant
	Normalized float64
}

// Figure11Data is the sensitivity study of Figure 11.
type Figure11Data struct{ Rows []Figure11Row }

// Figure11 reproduces Figure 11 over the Figure 8 variant sweep. The
// figure is one sweep spec — the default prefetcher plus every variant,
// crossed with the workload set — whose points, together with the DDR2
// single-core reference sweep, yield per-variant speedups; the "#CL=4
// (default)" variant shares the default's configuration and therefore its
// simulations.
func Figure11(r *Runner) (Figure11Data, error) {
	var d Figure11Data
	def := PrefetcherVariant{"default", 4, 64, config.FullAssoc}
	cfgs := append([]sweep.NamedConfig{{Name: def.Label, Config: def.apply()}},
		variantConfigs(Figure8Variants())...)
	pts, err := r.sweep("figure11", cfgs, r.opts.Workloads)
	if err != nil {
		return d, err
	}
	refs, err := r.refIPCAll(benchSet(r.opts.Workloads))
	if err != nil {
		return d, err
	}
	// speedup[config][workload] from the collected grid.
	byPoint := make(map[string]map[string]float64, len(cfgs))
	for _, p := range pts {
		if byPoint[p.Config] == nil {
			byPoint[p.Config] = map[string]float64{}
		}
		var w workload.Workload
		for _, cand := range r.opts.Workloads {
			if cand.Name == p.Workload {
				w = cand
				break
			}
		}
		ref := make([]float64, len(w.Benchmarks))
		for i, b := range w.Benchmarks {
			ref[i] = refs[b]
		}
		byPoint[p.Config][p.Workload] = workload.SMTSpeedup(p.Results.IPC, ref)
	}
	groupMean := func(label string, ws []workload.Workload) float64 {
		xs := make([]float64, len(ws))
		for i, w := range ws {
			xs[i] = byPoint[label][w.Name]
		}
		return mean(xs)
	}
	for _, g := range r.coreGroups() {
		baseAvg := groupMean(def.Label, g.Workloads)
		for _, v := range Figure8Variants() {
			d.Rows = append(d.Rows, Figure11Row{
				Cores: g.Cores, Variant: v, Normalized: groupMean(v.Label, g.Workloads) / baseAvg,
			})
		}
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure11Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 11  sensitivity (performance normalized to K=4, 64 entries, full assoc)\n")
	fmt.Fprintf(w, "%6s %-18s %10s\n", "cores", "variant", "norm perf")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %-18s %10.3f\n", row.Cores, row.Variant.Label, row.Normalized)
	}
}

// --------------------------------------------------------------- Figure 12

// Figure12Row compares prefetching combinations for one core count, all
// normalized to no prefetching at all.
type Figure12Row struct {
	Cores int
	AP    float64 // AMB prefetching only
	SP    float64 // software prefetching only
	APSP  float64 // both
}

// Figure12Data is the AP/SP complementarity study of Figure 12.
type Figure12Data struct{ Rows []Figure12Row }

// Figure12 reproduces Figure 12: relative speedups of AP, SP and AP+SP over
// a system with neither, averaged per core count.
func Figure12(r *Runner) (Figure12Data, error) {
	var d Figure12Data
	noneCfg := config.FBDIMMBaseline()
	noneCfg.CPU.SoftwarePrefetch = false
	apCfg := config.WithAMBPrefetch(config.Default())
	apCfg.CPU.SoftwarePrefetch = false
	spCfg := config.FBDIMMBaseline()
	bothCfg := config.WithAMBPrefetch(config.Default())

	for _, g := range r.coreGroups() {
		none, err := r.speedupAll(noneCfg, g.Workloads)
		if err != nil {
			return d, err
		}
		ap, err := r.speedupAll(apCfg, g.Workloads)
		if err != nil {
			return d, err
		}
		sp, err := r.speedupAll(spCfg, g.Workloads)
		if err != nil {
			return d, err
		}
		both, err := r.speedupAll(bothCfg, g.Workloads)
		if err != nil {
			return d, err
		}
		base := mean(none)
		d.Rows = append(d.Rows, Figure12Row{
			Cores: g.Cores,
			AP:    mean(ap) / base,
			SP:    mean(sp) / base,
			APSP:  mean(both) / base,
		})
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure12Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 12  AP vs SP vs AP+SP (relative to no prefetching = 1.0)\n")
	fmt.Fprintf(w, "%6s %8s %8s %8s %22s\n", "cores", "AP", "SP", "AP+SP", "AP+SP vs (AP+SP-1)+1")
	for _, row := range d.Rows {
		additive := row.AP + row.SP - 1
		fmt.Fprintf(w, "%6d %8.3f %8.3f %8.3f %22.3f\n",
			row.Cores, row.AP, row.SP, row.APSP, additive)
	}
}

// --------------------------------------------------------------- Figure 13

// Figure13Row is the normalized DRAM dynamic energy of one prefetcher
// variant at one core count (values below 1.0 are savings).
type Figure13Row struct {
	Cores      int
	Variant    PrefetcherVariant
	PowerRatio float64
	// ACTRatio and ColRatio expose the mechanism: fewer activations,
	// more column accesses.
	ACTRatio float64
	ColRatio float64
}

// Figure13Data is the power study of Figure 13.
type Figure13Data struct{ Rows []Figure13Row }

// Figure13Variants is the power sweep: region sizes 2/4/8 plus the paper's
// recommended practical configuration (4-way, 64 entries, K=4).
func Figure13Variants() []PrefetcherVariant {
	return []PrefetcherVariant{
		{"#CL=2", 2, 64, config.FullAssoc},
		{"#CL=4", 4, 64, config.FullAssoc},
		{"#CL=8", 8, 64, config.FullAssoc},
		{"4-way/64/K=4", 4, 64, 4},
	}
}

// Figure13 reproduces Figure 13: DRAM dynamic energy per committed
// instruction of each AP variant, normalized to FB-DIMM without
// prefetching, using the Section 5.5 4:1 ACT-PRE:column weighting. The
// figure is one sweep spec — the FBD baseline plus the power variants,
// crossed with the workload set — aggregated per core group.
func Figure13(r *Runner) (Figure13Data, error) {
	var d Figure13Data
	const baseLabel = "FBD"
	cfgs := append([]sweep.NamedConfig{{Name: baseLabel, Config: config.FBDIMMBaseline()}},
		variantConfigs(Figure13Variants())...)
	pts, err := r.sweep("figure13", cfgs, r.opts.Workloads)
	if err != nil {
		return d, err
	}
	type agg struct{ energy, insts, act, col float64 }
	w := power.PaperWeights()
	// byGroup[config label][core count]
	byGroup := map[string]map[int]*agg{}
	for _, p := range pts {
		if byGroup[p.Config] == nil {
			byGroup[p.Config] = map[int]*agg{}
		}
		a := byGroup[p.Config][p.Results.Cores]
		if a == nil {
			a = &agg{}
			byGroup[p.Config][p.Results.Cores] = a
		}
		a.energy += power.Dynamic(p.Results.DRAM, w)
		a.insts += float64(sum(p.Results.Committed))
		a.act += float64(p.Results.DRAM.ACT)
		a.col += float64(p.Results.DRAM.Columns())
	}
	for _, g := range r.coreGroups() {
		base := byGroup[baseLabel][g.Cores]
		for _, v := range Figure13Variants() {
			a := byGroup[v.Label][g.Cores]
			d.Rows = append(d.Rows, Figure13Row{
				Cores:      g.Cores,
				Variant:    v,
				PowerRatio: (a.energy / a.insts) / (base.energy / base.insts),
				ACTRatio:   (a.act / a.insts) / (base.act / base.insts),
				ColRatio:   (a.col / a.insts) / (base.col / base.insts),
			})
		}
	}
	return d, nil
}

// Format writes the figure as a table.
func (d Figure13Data) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 13  DRAM dynamic energy per instruction, normalized to FBD\n")
	fmt.Fprintf(w, "%6s %-14s %8s %9s %9s %9s\n",
		"cores", "variant", "power", "saving%", "ACT", "columns")
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%6d %-14s %8.3f %+9.1f %9.3f %9.3f\n",
			row.Cores, row.Variant.Label, row.PowerRatio, (1-row.PowerRatio)*100,
			row.ACTRatio, row.ColRatio)
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
