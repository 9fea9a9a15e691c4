package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/exp"
	"fbdsim/internal/sample"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	mixes "fbdsim/internal/workload"
)

// workload is one benchmark input: a job on the paper's AMB-prefetching
// machine (fbd-ap) and its instruction budgets. Every workload runs with AMB
// prefetching on, because that is the mechanism the simulator exists to
// model; the workloads differ in which layers of the simulator do the host
// work (see README.md for the measured shares).
type workload struct {
	name string
	why  string
	// mix is the benchmark list of the workload's largest machine: the one
	// set-up time is measured on and the layer kernels draw their inputs
	// from.
	mix           []string
	insts, warmup int64
	run           func(cfg config.Config, mix []string) (runOut, error)
}

var workloads = []workload{
	{
		name: "stall-4c", mix: []string{"mcf", "art", "mcf", "art"},
		insts: 2_000_000, warmup: 200_000, run: runSystem,
		why: "memory-bound 4-core mix (IPC 0.33): full controller queues, so the memory-side layers do most of the host work",
	},
	{
		name: "compute-4c", mix: []string{"wupwise", "lucas", "wupwise", "lucas"},
		insts: 6_000_000, warmup: 200_000, run: runSystem,
		why: "high-IPC 4-core mix (IPC 2.1): core-side layers dominate and fast-forward has little to skip; the bypass case for memory-side work",
	},
	{
		name: "writes-8c", mix: table3("8C-2"),
		insts: 3_000_000, warmup: 300_000, run: runSystem,
		why: "Table 3 mix 8C-2: 37% of memory transactions are writes, exercising write queues, drain batching, AMB invalidation and 8-core contention",
	},
	{
		name: "sampled-8c", mix: table3("8C-1"),
		insts: 8_000_000, warmup: 800_000, run: runSampled,
		why: "sampled tier on 8C-1: the untimed functional path drives the same cache, AMB cache and channel code as the detailed loop",
	},
	{
		name: "fig7", mix: table3("8C-1"),
		insts: 1_000_000, warmup: 100_000, run: runFigure7,
		why: "Figure 7 over the quick workload set: 18 simulations of 1-8 cores through exp.Runner and the sweep engine, Parallel 2",
	},
}

// fig7Parallel is the sweep parallelism of the fig7 workload: one
// simulation per host CPU of the 2-vCPU machine the baseline was taken on.
const fig7Parallel = 2

// paperAPGainPct is the paper's average AMB-prefetching gain per core count
// (Figure 7), the reference the fig7 workload's accuracy is stated against.
var paperAPGainPct = map[int]float64{1: 16.0, 2: 19.4, 4: 16.3, 8: 15.0}

func table3(name string) []string {
	w, err := mixes.Lookup(name)
	if err != nil {
		panic(err)
	}
	return w.Benchmarks
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config returns the workload's machine with its budgets multiplied by
// scale and its trace seed set: the seed is the only input the simulator
// receives from the benchmark.
func (w workload) config(seed int64, scale float64) config.Config {
	cfg := config.WithAMBPrefetch(config.Default())
	cfg.MaxInsts = scaled(w.insts, scale)
	cfg.WarmupInsts = scaled(w.warmup, scale)
	cfg.Seed = seed
	return cfg
}

func scaled(n int64, scale float64) int64 {
	if v := int64(math.Round(float64(n) * scale)); v > 1000 {
		return v
	}
	return 1000
}

// runOut is what one run of a workload produced and cost.
type runOut struct {
	wall    time.Duration
	mallocs uint64 // heap allocations inside the timed region
	bytes   uint64 // heap bytes allocated inside the timed region
	digest  string // SHA-256 of the run's canonical results

	// results holds every simulation the job ran; cycles and insts are the
	// simulated CPU cycles and committed instructions (all cores) the
	// throughput metrics divide by wall time.
	results []system.Results
	cycles  int64
	insts   int64

	// ctrlReads and queueRejects are the controller's cumulative counters,
	// set only by jobs that expose their System.
	ctrlReads, queueRejects int64

	// Sweep accounting, set only by fig7: the share of wall × Parallel the
	// runner spent simulating, the share of requests served by its cache,
	// and the mean |AP gain − paper| over core counts, in percentage points.
	busyFrac, hitFrac, apErrPP float64
}

// timed runs fn with a collected heap and records its wall time and heap
// allocations in out. Everything outside fn — building the machine,
// checking results — stays out of the measurement.
func timed(out *runOut, fn func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	out.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	out.bytes = after.TotalAlloc - before.TotalAlloc
	return err
}

// runSystem builds the machine (untimed) and runs it to its budget.
func runSystem(cfg config.Config, mix []string) (runOut, error) {
	var out runOut
	s, err := system.New(cfg, mix)
	if err != nil {
		return out, err
	}
	var res system.Results
	if err := timed(&out, func() (err error) { res, err = s.Run(); return err }); err != nil {
		return out, err
	}
	st := s.Controller().Stats
	out.ctrlReads, out.queueRejects = st.Reads, st.QueueRejects
	out.results = []system.Results{res}
	out.cycles, out.insts = res.Cycles, sumInts(res.Committed)
	out.digest, err = resultsDigest(res)
	return out, err
}

// runSampled runs the sampled fidelity tier with its default schedule. The
// instruction count is the stream it covered — detailed plus functional,
// all cores — and the cycle count is that stream at the estimated IPC.
func runSampled(cfg config.Config, mix []string) (runOut, error) {
	var out runOut
	var res system.Results
	if err := timed(&out, func() (err error) {
		res, err = sample.Run(context.Background(), cfg, mix, sample.Options{})
		return err
	}); err != nil {
		return out, err
	}
	est := res.Estimate
	if est == nil {
		return out, fmt.Errorf("sampled run returned no estimate")
	}
	out.results = []system.Results{res}
	out.insts = (est.DetailedInsts + est.FunctionalInsts) * int64(res.Cores)
	if ipc := res.TotalIPC(); ipc > 0 {
		out.cycles = int64(float64(out.insts) / ipc)
	}
	var err error
	out.digest, err = resultsDigest(res)
	return out, err
}

// runFigure7 regenerates Figure 7 through a fresh exp.Runner, so machine
// build cost and sweep scheduling are inside the measurement.
func runFigure7(cfg config.Config, _ []string) (runOut, error) {
	var out runOut
	r := exp.NewRunner(exp.Options{
		MaxInsts:    cfg.MaxInsts,
		WarmupInsts: cfg.WarmupInsts,
		Seed:        cfg.Seed,
		Parallel:    fig7Parallel,
		Workloads:   exp.QuickWorkloads(),
	})
	var d exp.Figure7Data
	if err := timed(&out, func() (err error) { d, err = exp.Figure7(r); return err }); err != nil {
		return out, err
	}
	s := r.Summary()
	out.busyFrac = s.SimWall.Seconds() / (out.wall.Seconds() * fig7Parallel)
	if n := s.Simulations + s.CacheHits; n > 0 {
		out.hitFrac = float64(s.CacheHits) / float64(n)
	}
	var err error
	if out.results, err = figure7Results(r); err != nil {
		return out, err
	}
	if got := r.Summary().Simulations; got != s.Simulations {
		return out, fmt.Errorf("fig7: collecting results ran %d new simulations", got-s.Simulations)
	}
	for _, res := range out.results {
		out.cycles += res.Cycles
		out.insts += sumInts(res.Committed)
	}
	var gaps []float64
	for cores, g := range d.AvgGainPct {
		gaps = append(gaps, math.Abs(g-paperAPGainPct[cores]))
	}
	out.apErrPP = mean(gaps)
	out.digest, err = digest(d)
	return out, err
}

// figure7Results reads every simulation Figure 7 ran back out of the
// runner's cache: FBD and FBD-AP on each workload plus the DDR2
// single-core reference of each benchmark. Identical requests hit the
// cache, so this simulates nothing new (the caller checks).
func figure7Results(r *exp.Runner) ([]system.Results, error) {
	var out []system.Results
	run := func(cfg config.Config, mix []string) error {
		res, err := r.Run(cfg, mix)
		out = append(out, res)
		return err
	}
	refs := map[string]bool{}
	for _, w := range r.Options().Workloads {
		for _, cfg := range []config.Config{config.FBDIMMBaseline(), config.WithAMBPrefetch(config.Default())} {
			if err := run(cfg, w.Benchmarks); err != nil {
				return nil, err
			}
		}
		for _, b := range w.Benchmarks {
			refs[b] = true
		}
	}
	names := make([]string, 0, len(refs))
	for b := range refs {
		names = append(names, b)
	}
	sort.Strings(names)
	for _, b := range names {
		if err := run(config.DDR2Baseline(), []string{b}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// resultsDigest is the SHA-256 of the canonical (journal-form) Results.
func resultsDigest(res system.Results) (string, error) {
	c, err := sweep.Canonicalize(res)
	if err != nil {
		return "", err
	}
	return digest(c)
}

func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

func sumInts(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
