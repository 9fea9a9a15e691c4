package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"fbdsim/internal/ambcache"
	"fbdsim/internal/stats"
	"fbdsim/internal/system"
)

const (
	// minSamples is the fewest CPU-profile samples the layer shares rest on.
	minSamples = 1000
	// minProfiledRuns is the fewest runs the profile covers.
	minProfiledRuns = 3
)

// measureLayers reports the per-layer metrics: host time per layer from a
// CPU profile of extra runs, the per-call cost of each layer's kernel, the
// simulated work the warm-up run did in each layer, and the sweep engine's
// accounting. End-to-end metrics never come from these runs.
func (t *trial) measureLayers(seconds float64) error {
	w, first, rep := t.w, t.first, t.rep
	if len(first.results) == 0 {
		return fmt.Errorf("the warm-up run produced no results")
	}
	rejects, err := t.queueRejectsPerKRead()
	if err != nil {
		return err
	}
	simCounts(rep, first.results, rejects)

	// A third of the time measures the untraced rate the profile's
	// overhead is stated against. The profile then covers one run at a
	// time, at least minProfiledRuns of them, until it holds minSamples
	// samples or has taken twice the run's seconds: how many samples a
	// second of CPU yields depends on the host.
	plain := t.timedRuns(seconds/3, nil)
	var traced []runOut
	nanos := map[string]int64{}
	var samples int64
	start := time.Now()
	for n := 0; n < minProfiledRuns || (samples < minSamples && time.Since(start).Seconds() < 2*seconds); n++ {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		traced = append(traced, t.timedRuns(0, nil)...)
		pprof.StopCPUProfile()
		n, k, err := attribute(prof.Bytes())
		if err != nil {
			return err
		}
		for l, ns := range n {
			nanos[l] += ns
		}
		samples += k
	}
	rep.Runs = len(plain) + len(traced)

	var total, insts int64
	for _, n := range nanos {
		total += n
	}
	for _, r := range traced {
		insts += r.insts
	}
	for _, l := range append(append([]string(nil), layers...), runtimeLayer) {
		rep.set(l+".self_pct", "%", per(100*float64(nanos[l]), float64(total)))
		// sample and sweep run on one workload each; a per-instruction
		// time that reads 0 everywhere else would carry no information.
		if l != "sample" && l != "sweep" {
			rep.set(l+".ns_per_kinst", "ns/kinst", per(float64(nanos[l]), float64(insts)/1000))
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("profile: %d samples over %d runs", samples, len(traced)))
	rep.set("trace_overhead_pct", "%", (per(median(rates(plain)), median(rates(traced)))-1)*100)

	var busy, hits []float64
	for _, r := range plain {
		busy = append(busy, r.busyFrac)
		hits = append(hits, r.hitFrac)
	}
	rep.set("sweep.busy_frac", "fraction", median(busy))
	rep.set("sweep.hit_frac", "fraction", median(hits))
	if w.name == "fig7" {
		rep.Notes = append(rep.Notes, fmt.Sprintf("fig7 mean |AP gain - paper| = %.2f pp", first.apErrPP))
	}

	var cycles, committed int64
	for _, r := range first.results {
		cycles += r.Cycles
		committed += sumInts(r.Committed)
	}
	in, err := newKernelInput(t.cfg, w.mix, per(float64(cycles), float64(committed)))
	if err != nil {
		return err
	}
	ks, err := in.kernels()
	if err != nil {
		return err
	}
	budget := time.Duration(seconds / 60 * float64(time.Second))
	for _, k := range ks {
		rep.set(k.name, k.unit, timeKernel(k, budget))
	}
	return nil
}

func rates(runs []runOut) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = float64(r.insts) / r.wall.Seconds()
	}
	return xs
}

// queueRejectsPerKRead is the controller's failed enqueue attempts per
// thousand reads. Jobs that hide their machines (the sampled tier, the
// figure sweep) get it from a detailed run of the workload's largest
// machine at a tenth of its budgets.
func (t *trial) queueRejectsPerKRead() (float64, error) {
	reads, rejects := t.first.ctrlReads, t.first.queueRejects
	if reads == 0 {
		cfg := t.cfg
		cfg.MaxInsts, cfg.WarmupInsts = cfg.MaxInsts/10, cfg.WarmupInsts/10
		s, err := system.New(cfg, t.w.mix)
		if err != nil {
			return 0, err
		}
		if _, err := s.Run(); err != nil {
			return 0, err
		}
		st := s.Controller().Stats
		reads, rejects = st.Reads, st.QueueRejects
	}
	return per(float64(rejects), float64(reads)/1000), nil
}

// simCounts reports the simulated work of the runs in rs, summed over
// every simulation the job ran. They are deterministic for a seed.
func simCounts(rep *childReport, rs []system.Results, rejectsPerKRead float64) {
	var insts, cycles, reads, l2Misses, conflicts int64
	var amb ambcache.Stats
	var latency, readUtil, writeUtil, bandwidth float64
	hist := &stats.Histogram{}
	for _, r := range rs {
		insts += sumInts(r.Committed)
		cycles += r.Cycles
		reads += r.Reads
		l2Misses += r.L2Misses
		conflicts += r.BankConflicts
		amb.Add(r.AMB)
		latency += r.AvgReadLatencyNS * float64(r.Reads)
		c := float64(r.Cycles)
		readUtil += r.ReadLinkUtilization * c
		writeUtil += r.WriteLinkUtilization * c
		bandwidth += r.UtilizedBandwidthGBs * c
		hist.Merge(r.LatencyHist)
	}
	kreads := float64(reads) / 1000
	rep.set("cpu.ipc", "inst/cycle", per(float64(insts), float64(cycles)))
	rep.set("cache.l2_mpki", "miss/kinst", per(float64(l2Misses), float64(insts)/1000))
	rep.set("memctrl.queue_rejects_per_kread", "rejects/kread", rejectsPerKRead)
	rep.set("memctrl.read_latency_ns", "sim_ns", per(latency, float64(reads)))
	rep.set("memctrl.p99_read_latency_ns", "sim_ns", hist.Percentile(0.99).Nanoseconds())
	rep.set("fbdchan.read_link_util", "fraction", per(readUtil, float64(cycles)))
	rep.set("fbdchan.write_link_util", "fraction", per(writeUtil, float64(cycles)))
	rep.set("fbdchan.bandwidth_gbs", "sim_GB/s", per(bandwidth, float64(cycles)))
	rep.set("ambcache.hit_rate", "fraction", amb.Coverage())
	rep.set("ambcache.prefetch_efficiency", "fraction", amb.Efficiency())
	rep.set("dram.bank_conflicts_per_kread", "conflicts/kread", per(float64(conflicts), kreads))
}

// per is a/b, or 0 when b is 0.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
