// Command fbdsim runs one simulation from the command line and prints the
// measured results.
//
// Examples:
//
//	fbdsim -mem fbd-ap -workload 4C-1
//	fbdsim -mem ddr2 -bench swim,applu -insts 500000
//	fbdsim -mem fbd -channels 4 -rate 533 -workload 8C-1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"fbdsim"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/trace"
	"fbdsim/internal/workload"
)

func main() {
	var (
		cfgFile  = flag.String("config", "", "JSON configuration file (overrides -mem and hardware flags)")
		saveCfg  = flag.String("save-config", "", "write the effective configuration to this file and exit")
		memKind  = flag.String("mem", "fbd", "memory system: ddr2, fbd, fbd-ap, fbd-apfl")
		wlName   = flag.String("workload", "", "Table 3 workload name (e.g. 4C-1); overrides -bench")
		benches  = flag.String("bench", "swim", "comma-separated benchmark list, one per core")
		fid      = flag.String("fidelity", "", "simulation tier: cycle-accurate (default) or sampled")
		insts    = flag.Int64("insts", 300_000, "measured instructions per core")
		warmup   = flag.Int64("warmup", 40_000, "warmup instructions per core")
		seed     = flag.Int64("seed", 1, "trace generation seed")
		channels = flag.Int("channels", 2, "logical memory channels")
		rate     = flag.Int("rate", 667, "data rate in MT/s (533, 667, 800)")
		k        = flag.Int("k", 4, "prefetch region size K (fbd-ap only)")
		entries  = flag.Int("entries", 64, "AMB cache lines per DIMM (fbd-ap only)")
		assoc    = flag.Int("assoc", 0, "AMB cache associativity, 0 = full (fbd-ap only)")
		noSP     = flag.Bool("no-sw-prefetch", false, "disable software cache prefetching")
		hwPF     = flag.Bool("hw-prefetch", false, "enable the hardware stream prefetcher (extension)")
		refresh  = flag.Bool("refresh", false, "model DRAM refresh (tREFI 7.8us, tRFC 127.5ns; extension)")
		vrl      = flag.Bool("vrl", false, "enable variable read latency")
		hist     = flag.Bool("hist", false, "print the read-latency histogram")
		jsonOut  = flag.Bool("json", false, "emit results as JSON instead of text")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON (Perfetto-loadable) to this file")
		tlOut    = flag.String("timeline", "", "write the epoch time-series CSV to this file")

		faultRate    = flag.Float64("fault-rate", 0, "link CRC frame-error rate per transfer, applied to both links (enables fault injection)")
		faultAMB     = flag.Float64("fault-amb", 0, "AMB-cache soft-error rate per resident-line access (enables fault injection)")
		faultSeed    = flag.Int64("fault-seed", 1, "fault injector seed (same seed = same faults)")
		degradedDIMM = flag.Int("degraded-dimm", -1, "run this DIMM of channel 0 degraded (-1 = none; enables fault injection)")
		degradedBus  = flag.Int("degraded-bus", 2, "degraded DIMM bus slowdown factor")
		deadBank     = flag.Int("dead-bank", -1, "map out this bank of the degraded DIMM (-1 = none)")
	)
	flag.Parse()

	cfg, err := config.Preset(*memKind)
	if err != nil {
		fatalf("-mem: %v", err)
	}
	cfg.MaxInsts = *insts
	cfg.WarmupInsts = *warmup
	cfg.Seed = *seed
	cfg.Mem.LogicalChannels = *channels
	cfg.Mem.DataRate = clock.DataRate(*rate)
	cfg.Mem.VRL = *vrl
	if cfg.Mem.AMBPrefetch {
		cfg.Mem.RegionLines = *k
		cfg.Mem.AMBCacheLines = *entries
		cfg.Mem.AMBCacheAssoc = *assoc
	}
	cfg.CPU.SoftwarePrefetch = !*noSP
	cfg.CPU.HardwarePrefetch = *hwPF
	cfg.Mem.RefreshEnabled = *refresh
	if *traceOut != "" || *tlOut != "" {
		cfg.Trace.Enabled = true
	}

	if *cfgFile != "" {
		loaded, err := config.LoadFile(*cfgFile)
		if err != nil {
			fatalf("%v", err)
		}
		loaded.MaxInsts = *insts
		loaded.WarmupInsts = *warmup
		loaded.Seed = *seed
		if *traceOut != "" || *tlOut != "" {
			loaded.Trace.Enabled = true
		}
		cfg = loaded
	}
	// Fault flags layer on top of either the preset or the config file.
	if *faultRate > 0 || *faultAMB > 0 || *degradedDIMM >= 0 || *deadBank >= 0 {
		cfg.Fault = config.Fault{
			Enabled:           true,
			Seed:              *faultSeed,
			SouthErrorRate:    *faultRate,
			NorthErrorRate:    *faultRate,
			AMBSoftErrorRate:  *faultAMB,
			DegradedDIMM:      *degradedDIMM,
			DegradedBusFactor: *degradedBus,
			DeadBank:          *deadBank,
		}
	}
	if *saveCfg != "" {
		if err := cfg.SaveFile(*saveCfg); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("configuration written to %s\n", *saveCfg)
		return
	}

	var names []string
	if *wlName != "" {
		w, err := workload.Lookup(*wlName)
		if err != nil {
			fatalf("%v", err)
		}
		names = w.Benchmarks
	} else {
		names = strings.Split(*benches, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}
	for _, name := range names {
		if _, err := trace.ProfileFor(name); err != nil {
			fatalf("unknown benchmark %q (valid: %s)", name, strings.Join(trace.AllProgramNames(), ", "))
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "fbdsim: CPU profile written to %s\n", *cpuProf)
		}()
	}

	var opts []fbdsim.Option
	if *fid != "" {
		tier, err := fbdsim.ParseFidelity(*fid)
		if err != nil {
			fatalf("%v", err)
		}
		opts = append(opts, fbdsim.WithFidelity(tier))
	}

	res, err := fbdsim.Run(context.Background(), cfg, names, opts...)
	if err != nil {
		fatalf("%v", err)
	}

	if *memProf != "" {
		runtime.GC() // report live heap, not garbage awaiting collection
		writeArtifact(*memProf, pprof.WriteHeapProfile)
		fmt.Fprintf(os.Stderr, "fbdsim: heap profile written to %s\n", *memProf)
	}

	if res.Trace != nil {
		if *traceOut != "" {
			writeArtifact(*traceOut, res.Trace.WriteChromeTrace)
			fmt.Fprintf(os.Stderr, "fbdsim: Chrome trace written to %s (open in ui.perfetto.dev)\n", *traceOut)
		}
		if *tlOut != "" {
			writeArtifact(*tlOut, res.Trace.WriteTimelineCSV)
			fmt.Fprintf(os.Stderr, "fbdsim: timeline CSV written to %s\n", *tlOut)
		}
	}

	if *jsonOut {
		emitJSON(cfg, names, res)
		return
	}

	fmt.Printf("system      : %s", cfg.Mem.Kind)
	if cfg.Mem.AMBPrefetch {
		mode := "AP"
		if cfg.Mem.FullLatencyHits {
			mode = "APFL"
		}
		fmt.Printf(" + AMB prefetching (%s, K=%d, %d entries, assoc=%s)",
			mode, cfg.Mem.RegionLines, cfg.Mem.AMBCacheLines, assocName(cfg.Mem.AMBCacheAssoc))
	}
	fmt.Println()
	fmt.Printf("channels    : %d logical x %d ganged @ %d MT/s, %d DIMMs/ch, %d banks/DIMM\n",
		cfg.Mem.LogicalChannels, cfg.Mem.GangWidth, int(cfg.Mem.DataRate),
		cfg.Mem.DIMMsPerChannel, cfg.Mem.BanksPerDIMM)
	fmt.Printf("interleave  : %s (%s)\n", cfg.Mem.Interleave, cfg.Mem.PageMode)
	fmt.Printf("benchmarks  : %s\n", strings.Join(names, ", "))
	fmt.Printf("cycles      : %d\n", res.Cycles)
	for i, name := range res.Benchmarks {
		fmt.Printf("  core %d %-10s IPC %.3f (%d instructions)\n", i, name, res.IPC[i], res.Committed[i])
	}
	fmt.Printf("total IPC   : %.3f\n", res.TotalIPC())
	if e := res.Estimate; e != nil {
		fmt.Printf("estimate    : %s tier", e.Tier)
		if e.CI95 > 0 {
			fmt.Printf(", IPC +/- %.4f (95%% CI)", e.CI95)
		}
		if e.Windows > 0 {
			fmt.Printf(", %d windows, %d detailed / %d functional insts",
				e.Windows, e.DetailedInsts, e.FunctionalInsts)
		}
		fmt.Println()
	}
	fmt.Printf("reads       : %d (avg latency %.1f ns, p50/p90/p99 %.0f/%.0f/%.0f ns)\n",
		res.Reads, res.AvgReadLatencyNS, res.P50LatencyNS, res.P90LatencyNS, res.P99LatencyNS)
	fmt.Printf("writes      : %d\n", res.Writes)
	fmt.Printf("bandwidth   : %.2f GB/s utilized (read link %.1f%%, write link %.1f%% busy)\n",
		res.UtilizedBandwidthGBs, res.ReadLinkUtilization*100, res.WriteLinkUtilization*100)
	fmt.Printf("bank confl. : %d delayed activations\n", res.BankConflicts)
	fmt.Printf("DRAM ops    : %d ACT, %d PRE, %d column\n", res.DRAM.ACT, res.DRAM.PRE, res.DRAM.Columns())
	if cfg.Mem.AMBPrefetch {
		fmt.Printf("AMB cache   : %d hits, coverage %.3f, efficiency %.3f\n",
			res.AMBHits, res.AMB.Coverage(), res.AMB.Efficiency())
	}
	if cfg.Fault.Enabled {
		f := res.Faults
		fmt.Printf("faults      : %d south + %d north frame errors, %d retries (avg +%.0f ns), %d AMB soft errors, %d remapped\n",
			f.SouthFrameErrors, f.NorthFrameErrors, f.Retries, f.AvgRetryDelayNS(),
			f.AMBSoftErrors, f.Remapped)
	}
	if *hist && res.LatencyHist != nil {
		fmt.Printf("\nread latency distribution:\n%s", res.LatencyHist.Render(48))
	}
	if res.Trace != nil {
		fmt.Println()
		res.Trace.Render(os.Stdout, 64)
	}
}

// writeArtifact writes one exporter's output to path.
func writeArtifact(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatalf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("%v", err)
	}
}

// emitJSON prints a machine-readable result record.
func emitJSON(cfg fbdsim.Config, names []string, res fbdsim.Results) {
	out := map[string]interface{}{
		"system":        cfg.Mem.Kind.String(),
		"ambPrefetch":   cfg.Mem.AMBPrefetch,
		"interleave":    cfg.Mem.Interleave.String(),
		"channels":      cfg.Mem.LogicalChannels,
		"dataRateMTs":   int(cfg.Mem.DataRate),
		"benchmarks":    names,
		"ipc":           res.IPC,
		"totalIPC":      res.TotalIPC(),
		"cycles":        res.Cycles,
		"reads":         res.Reads,
		"writes":        res.Writes,
		"avgLatencyNS":  res.AvgReadLatencyNS,
		"p50LatencyNS":  res.P50LatencyNS,
		"p90LatencyNS":  res.P90LatencyNS,
		"p99LatencyNS":  res.P99LatencyNS,
		"bandwidthGBs":  res.UtilizedBandwidthGBs,
		"dramACT":       res.DRAM.ACT,
		"dramPRE":       res.DRAM.PRE,
		"dramColumns":   res.DRAM.Columns(),
		"ambHits":       res.AMBHits,
		"ambCoverage":   res.AMB.Coverage(),
		"ambEfficiency": res.AMB.Efficiency(),
		"l2MissRate":    res.L2MissRate(),
	}
	if cfg.Fault.Enabled {
		out["faultSouthErrors"] = res.Faults.SouthFrameErrors
		out["faultNorthErrors"] = res.Faults.NorthFrameErrors
		out["faultRetries"] = res.Faults.Retries
		out["faultRetryLatencyNS"] = res.Faults.RetryLatency.Nanoseconds()
		out["faultAMBSoftErrors"] = res.Faults.AMBSoftErrors
		out["faultRemapped"] = res.Faults.Remapped
	}
	if res.Estimate != nil {
		out["estimate"] = res.Estimate
	}
	if res.Trace != nil {
		out["trace"] = res.Trace
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatalf("encoding results: %v", err)
	}
}

func assocName(a int) string {
	if a == config.FullAssoc {
		return "full"
	}
	return fmt.Sprintf("%d-way", a)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "fbdsim: "+format+"\n", args...)
	os.Exit(1)
}
