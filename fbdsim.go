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
// Tracing and fault injection are switched on in the configuration. A
// faulted run starts from Default()'s fault settings, which degrade no DIMM
// and map out no bank, and raises a rate:
//
//	cfg := fbdsim.Default()
//	cfg.Fault.Enabled = true
//	cfg.Fault.SouthErrorRate = 0.01
//	cfg.Trace.Enabled = true // per-request pipeline tracing in res.Trace
//	res, err := fbdsim.Run(ctx, cfg, benchmarks)
//
// The experiment harness that regenerates every table and figure of the
// paper lives in internal/exp and is exposed through cmd/paperexp. Each
// figure is a grid of configurations × workloads that the harness runs
// with bounded parallelism and result caching.
package fbdsim

import (
	"context"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
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

// TraceConfig configures the memtrace recorder (Config.Trace).
type TraceConfig = config.Trace

// FaultConfig configures the deterministic fault injector (Config.Fault).
// Enable it on top of Default()'s settings: DegradedDIMM and DeadBank mean
// "none" only at -1, so the zero value degrades DIMM 0 of channel 0 and
// maps out its bank 0.
type FaultConfig = config.Fault

// Run simulates cfg executing one benchmark per core (valid names are
// Benchmarks()) and returns measured results. The simulation polls ctx at
// cycle-batch granularity (1024 CPU cycles), so cancelling an in-flight
// run stops it within milliseconds of wall time; on cancellation the
// returned error is ctx.Err(). cfg.Trace turns on per-request pipeline
// tracing (Results.Trace) and cfg.Fault turns on fault injection
// (Results.Faults).
func Run(ctx context.Context, cfg Config, benchmarks []string) (Results, error) {
	return system.RunWorkload(ctx, cfg, benchmarks)
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
