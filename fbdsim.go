// Package fbdsim is a cycle-level simulator of Fully-Buffered DIMM memory
// systems with DRAM-level (AMB) prefetching, reproducing Lin, Zheng, Zhu,
// Zhang and David, "DRAM-Level Prefetching for Fully-Buffered DIMM: Design,
// Performance and Power Saving" (ISPASS 2007).
//
// The library models, from the DRAM bank timing up:
//
//   - DDR2 logical banks under the paper's Table 2 timing constraints,
//   - conventional DDR2 channels (the baseline) and FB-DIMM channels with
//     southbound/northbound links, AMB daisy-chain delays and optional
//     variable read latency,
//   - the proposed AMB prefetching: a small FIFO prefetch buffer per AMB,
//     tag state at the memory controller, multi-cacheline interleaving, and
//     K-line group fetches over the redundant per-DIMM DDR2 bandwidth,
//   - a memory controller with hit-first scheduling and write-drain
//     batching,
//   - a mechanistic out-of-order multicore (ROB/LQ/SQ/MSHR-limited) with a
//     two-level cache hierarchy and software-prefetch execution, driven by
//     synthetic traces parameterized after the paper's twelve SPEC2000
//     programs,
//   - the Micron-calculator-style DRAM dynamic power estimate.
//
// Quick start:
//
//	cfg := fbdsim.WithAMBPrefetch(fbdsim.Default())
//	res, err := fbdsim.Run(context.Background(), cfg, []string{"swim", "applu"})
//	if err != nil { ... }
//	fmt.Println(res.TotalIPC(), res.AvgReadLatencyNS)
//
// Run accepts functional options for the cross-cutting concerns —
// WithTrace (per-request pipeline tracing), WithFault (fault injection),
// WithProgress (liveness callbacks), WithFidelity (a sampled estimate
// instead of the cycle-accurate run; the only other tier):
//
//	res, err := fbdsim.Run(ctx, cfg, benchmarks,
//		fbdsim.WithFault(fbdsim.FaultConfig{SouthErrorRate: 1e-7}),
//		fbdsim.WithProgress(func(p fbdsim.Progress) { log.Println(p.Cycle) }))
//
// Parameter sweeps — grids of configurations × workloads × seeds with
// bounded parallelism, result caching and journal-based resume — are the
// internal/sweep engine, exposed through cmd/paperexp.
//
// The experiment harness that regenerates every table and figure of the
// paper lives in internal/exp and is exposed through cmd/paperexp.
package fbdsim

import (
	"context"
	"errors"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/system"
	"fbdsim/internal/trace"
	"fbdsim/internal/workload"
)

// Config is the complete simulated-system configuration: processor
// (Table 1), memory organization (Section 5 defaults) and DRAM timing
// (Table 2).
type Config = config.Config

// Results summarizes one simulation run; see the field documentation in
// internal/system.
type Results = system.Results

// Workload names one multiprogrammed benchmark mix (Table 3).
type Workload = workload.Workload

// Memory technology selectors.
const (
	DDR2   = config.DDR2
	FBDIMM = config.FBDIMM
)

// Interleaving schemes (Section 3.2).
const (
	CachelineInterleave      = config.CachelineInterleave
	PageInterleave           = config.PageInterleave
	MultiCachelineInterleave = config.MultiCachelineInterleave
)

// Row-buffer policies.
const (
	ClosePage = config.ClosePage
	OpenPage  = config.OpenPage
)

// AMB-cache replacement policies.
const (
	FIFO = config.FIFO
	LRU  = config.LRU
)

// FullAssoc selects a fully-associative AMB cache.
const FullAssoc = config.FullAssoc

// Supported DDR2 data rates.
const (
	DDR2_533 = clock.DDR2_533
	DDR2_667 = clock.DDR2_667
	DDR2_800 = clock.DDR2_800
)

// Default returns the paper's default system: FB-DIMM at 667 MT/s, two
// logical channels (two ganged physical channels each), four DIMMs per
// channel, four banks per DIMM, close-page cacheline interleaving, software
// prefetching on, AMB prefetching off.
func Default() Config { return config.Default() }

// DDR2Baseline returns the conventional DDR2 comparison system.
func DDR2Baseline() Config { return config.DDR2Baseline() }

// WithAMBPrefetch enables the paper's proposal on c: four-cacheline
// interleaving and a 64-entry fully-associative FIFO AMB cache per DIMM
// (the FBD-AP configuration).
func WithAMBPrefetch(c Config) Config { return config.WithAMBPrefetch(c) }

// WithFullLatencyHits returns the FBD-APFL decomposition configuration of
// Figure 9: AMB prefetching whose hits pay full DRAM latency but still
// avoid bank activity.
func WithFullLatencyHits(c Config) Config { return config.WithFullLatencyHits(c) }

// TraceConfig configures the memtrace recorder (see WithTrace).
type TraceConfig = config.Trace

// FaultConfig configures the deterministic fault injector (see WithFault).
type FaultConfig = config.Fault

// Progress is the liveness snapshot delivered to a WithProgress callback.
type Progress = system.Progress

// Fidelity selects the simulation tier of one Run call; see WithFidelity.
type Fidelity = fidelity.Tier

// Fidelity tiers, full detail first. The zero value is cycle-accurate.
const (
	CycleAccurate = fidelity.CycleAccurate
	Sampled       = fidelity.Sampled
)

// ParseFidelity maps a wire/flag string to a Fidelity ("" means
// cycle-accurate).
func ParseFidelity(s string) (Fidelity, error) { return fidelity.Parse(s) }

// Option customizes one Run call. Options are applied in order; later
// options win on conflict.
type Option func(*runSettings)

type runSettings struct {
	cfg      Config
	fidelity Fidelity
	progress func(Progress)
}

// WithTrace enables the memtrace recorder for this run with settings t
// (t.Enabled is implied). The run's Results.Trace carries per-stage
// latency breakdowns, epoch time-series and retained per-request events.
func WithTrace(t TraceConfig) Option {
	return func(s *runSettings) {
		t.Enabled = true
		s.cfg.Trace = t
	}
}

// WithFault enables deterministic fault injection for this run with
// settings f (f.Enabled is implied). Results.Faults summarizes the
// injected faults and their cost.
func WithFault(f FaultConfig) Option {
	return func(s *runSettings) {
		f.Enabled = true
		s.cfg.Fault = f
	}
}

// WithProgress delivers liveness snapshots to fn at simulation boundary
// checks (at most once per 1024 executed CPU cycles). fn runs on the
// simulation goroutine: keep it fast and non-blocking. It observes state
// only and cannot perturb results.
func WithProgress(fn func(Progress)) Option {
	return func(s *runSettings) { s.progress = fn }
}

// WithFidelity runs at tier t instead of full cycle-accurate detail:
// Sampled interleaves functional fast-forward with detailed measured
// windows (~10-50x cheaper, <2% IPC error, confidence interval in
// Results.Estimate). A sampled run returns an estimate — Results.Estimate
// is non-nil and records the tier — and does not compose with WithTrace or
// WithFault.
func WithFidelity(t Fidelity) Option {
	return func(s *runSettings) { s.fidelity = t }
}

// Run simulates cfg executing one benchmark per core (valid names are
// Benchmarks()) and returns measured results. The simulation polls ctx at
// cycle-batch granularity (1024 CPU cycles), so cancelling an in-flight
// run stops it within milliseconds of wall time; on cancellation the
// returned error is ctx.Err(). Options layer tracing, fault injection and
// progress reporting onto the run without dedicated entry points:
//
//	res, err := fbdsim.Run(ctx, cfg, []string{"swim"}, fbdsim.WithTrace(fbdsim.TraceConfig{}))
func Run(ctx context.Context, cfg Config, benchmarks []string, opts ...Option) (Results, error) {
	s := runSettings{cfg: cfg}
	for _, o := range opts {
		o(&s)
	}
	if s.fidelity != "" && s.fidelity != CycleAccurate {
		if !s.fidelity.Valid() {
			return Results{}, errors.New("fbdsim: unknown fidelity tier " + string(s.fidelity))
		}
		if s.cfg.Trace.Enabled || s.cfg.Fault.Enabled {
			return Results{}, errors.New("fbdsim: tracing and fault injection require cycle-accurate fidelity")
		}
	}
	return fidelity.Run(ctx, s.fidelity, s.cfg, benchmarks, system.Options{Progress: s.progress})
}

// LoadConfig reads and validates a JSON configuration file. Fields missing
// from the file keep their Default() values; unknown fields are rejected.
// Configurations can be written with Config.SaveFile.
func LoadConfig(path string) (Config, error) { return config.LoadFile(path) }

// Benchmarks lists the twelve SPEC2000-profile benchmark names the paper's
// workloads draw from.
func Benchmarks() []string { return trace.BenchmarkNames() }

// AllPrograms lists every runnable profile: the twelve workload programs
// plus art and mcf, which Section 4.2 excludes from the mixes (art's miss
// rate flips across the 2-4 MB cache cliff; mcf's IPC is pathologically
// low) but which remain available for single runs.
func AllPrograms() []string { return trace.AllProgramNames() }

// Workloads returns the full workload list: twelve single-program runs plus
// the Table 3 multicore mixes.
func Workloads() []Workload { return workload.All() }

// MulticoreWorkloads returns only the Table 3 mixes (2, 4 and 8 cores).
func MulticoreWorkloads() []Workload { return workload.Table3() }

// RandomWorkload builds an n-core mix by deterministic random sampling, the
// way the paper constructed Table 3.
func RandomWorkload(n int, seed int64) Workload { return workload.Random(n, seed) }

// SMTSpeedup computes the Section 4.2 metric Σ IPC_cmp[i]/IPC_single[i].
func SMTSpeedup(ipcCMP, ipcSingle []float64) float64 {
	return workload.SMTSpeedup(ipcCMP, ipcSingle)
}
