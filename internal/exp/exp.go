// Package exp regenerates every table and figure of the paper's evaluation
// (Section 5). Each FigureN function declares the grid of configurations ×
// workloads that figure varies and runs it as a sweep through its Runner,
// the one executor of every simulation in a suite: bounded parallelism,
// single-flight result caching shared across figures (the FBD baseline
// appears in Figures 4, 7, 9, 10, 12 and 13 but simulates once), and —
// when Options.Journal is set — per-sweep checkpoint journals
// (internal/sweep) so an interrupted suite resumes without recomputing
// completed points.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
)

// ErrAborted is returned by sweeps cut short by Options.AbortAfterPoints —
// the deterministic mid-run kill used by the resume tests and the CI smoke
// step. A journaled suite re-run without the limit completes from where it
// stopped.
var ErrAborted = errors.New("exp: aborted after AbortAfterPoints simulations")

// clockRate converts an MT/s integer into the clock.DataRate type,
// validating it is supported.
func clockRate(mts int) clock.DataRate {
	r := clock.DataRate(mts)
	if !r.Valid() {
		panic(fmt.Sprintf("exp: unsupported data rate %d", mts))
	}
	return r
}

// Options bound the simulation effort of a whole experiment suite.
type Options struct {
	// MaxInsts / WarmupInsts override the per-run instruction budgets
	// (defaults: 300k measured after 40k warmup — small enough to sweep
	// every figure quickly, large enough for stable averages). Zero selects
	// the default; negative values are rejected by Validate.
	MaxInsts    int64
	WarmupInsts int64
	// Seed drives trace generation.
	Seed int64
	// Parallel caps concurrently running simulations (default: GOMAXPROCS;
	// negative values are rejected by Validate).
	Parallel int
	// Workloads restricts the workload set (default: the full paper set —
	// twelve single-program runs plus the fifteen Table 3 mixes).
	Workloads []workload.Workload
	// Journal names a directory for sweep checkpoint journals. When set,
	// every figure sweep writes completed points to
	// <Journal>/<name>-<fingerprint>.ndjson and resumes from it on the
	// next run of the same grid. Empty disables checkpointing.
	Journal string
	// AbortAfterPoints, when positive, cancels the suite once that many
	// fresh simulations have completed — a deterministic kill switch for
	// exercising journal resume (sweeps then fail with ErrAborted).
	AbortAfterPoints int
	// Fidelity selects the simulation tier for every run in the suite:
	// "cycle-accurate" (default) or "sampled". The sampled tier keys the
	// shared cache and journal fingerprints with a tier prefix, so a
	// sampled pass never pollutes cycle-accurate results.
	Fidelity string
}

// Validate rejects option values that a front door (flag parsing, request
// decoding) should refuse rather than silently normalize.
func (o Options) Validate() error {
	if o.Parallel < 0 {
		return fmt.Errorf("exp: negative parallelism %d", o.Parallel)
	}
	if o.MaxInsts < 0 {
		return fmt.Errorf("exp: negative instruction budget %d", o.MaxInsts)
	}
	if o.WarmupInsts < 0 {
		return fmt.Errorf("exp: negative warmup budget %d", o.WarmupInsts)
	}
	if o.AbortAfterPoints < 0 {
		return fmt.Errorf("exp: negative AbortAfterPoints %d", o.AbortAfterPoints)
	}
	if _, err := fidelity.Parse(o.Fidelity); err != nil {
		return fmt.Errorf("exp: %v", err)
	}
	return nil
}

func (o Options) norm() Options {
	if o.MaxInsts <= 0 {
		o.MaxInsts = 300_000
	}
	if o.WarmupInsts == 0 {
		o.WarmupInsts = 40_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Workloads == nil {
		o.Workloads = workload.All()
	}
	// Normalize so that "cycle-accurate" and "" key caches identically.
	if t, err := fidelity.Parse(o.Fidelity); err == nil {
		if t == fidelity.CycleAccurate {
			o.Fidelity = ""
		} else {
			o.Fidelity = string(t)
		}
	}
	return o
}

// QuickWorkloads is a reduced set (one mix per core count) for smoke runs
// and benchmarks.
func QuickWorkloads() []workload.Workload {
	ws := []workload.Workload{
		{Name: "1C-swim", Benchmarks: []string{"swim"}},
		{Name: "1C-vpr", Benchmarks: []string{"vpr"}},
	}
	for _, name := range []string{"2C-1", "4C-1", "8C-1"} {
		w, err := workload.Lookup(name)
		if err != nil {
			panic(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// Runner executes every simulation of a suite — direct Run calls and figure
// sweeps alike — through one single-flight result cache and one
// parallelism bound: identical requests, within a figure, across figures,
// or across a figure sweep and a direct Run call, simulate once.
type Runner struct {
	opts  Options
	cache *sweep.Cache
	// sem bounds concurrently running simulations at Options.Parallel. A
	// request takes a slot only on a cache miss.
	sem chan struct{}
	// sim is the simulator behind the cache, fidelity.Run; tests
	// substitute fakes.
	sim func(ctx context.Context, t fidelity.Tier, cfg config.Config, benchmarks []string) (system.Results, error)

	// Cache accounting (see Summary): misses are actual simulations,
	// hits are requests served from (or coalesced onto) a prior run.
	hits     atomic.Int64
	misses   atomic.Int64
	simNanos atomic.Int64

	// abortCtx is cancelled once AbortAfterPoints simulations complete;
	// without the option it never fires.
	abortCtx    context.Context
	abortCancel context.CancelFunc
}

// NewRunner builds a Runner with the given options. Invalid option values
// (see Options.Validate) are a programmer error and panic; front doors
// call Validate first and report a usage error instead.
func NewRunner(opts Options) *Runner {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	o := opts.norm()
	r := &Runner{
		opts:  o,
		cache: sweep.NewCache(),
		sem:   make(chan struct{}, o.Parallel),
		sim:   fidelity.Run,
	}
	r.abortCtx, r.abortCancel = context.WithCancel(context.Background())
	return r
}

// Options returns the normalized options in effect.
func (r *Runner) Options() Options { return r.opts }

// normalize applies the Runner's budget/seed overrides and the core-count
// convention (CPU.Cores = len(benchmarks)) so that every path — direct
// Run, figure sweep, journal replay — keys the cache identically.
func (r *Runner) normalize(cfg config.Config, cores int) config.Config {
	cfg.MaxInsts = r.opts.MaxInsts
	cfg.WarmupInsts = r.opts.WarmupInsts
	cfg.Seed = r.opts.Seed
	cfg.CPU.Cores = cores
	return cfg
}

// Run simulates cfg on the benchmark mix, memoized. The Runner's
// instruction budgets and seed override the config's.
func (r *Runner) Run(cfg config.Config, benchmarks []string) (system.Results, error) {
	return r.RunContext(r.abortCtx, cfg, benchmarks)
}

// RunContext is Run with cancellation. Cancelling ctx stops an in-flight
// simulation at cycle-batch granularity (see system.RunContext). Errors —
// including cancellation — are never cached, so a later request with the
// same configuration re-simulates instead of replaying the error;
// concurrent waiters coalesced onto a cancelled run observe its error.
func (r *Runner) RunContext(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
	cfg = r.normalize(cfg, len(benchmarks))
	return r.do(ctx, fidelity.Key(fidelity.Tier(r.opts.Fidelity), cfg, benchmarks), cfg, benchmarks, func() {})
}

// do is the one path every simulation request takes, under its cache key
// and with cfg already normalized. A cached result, or an identical run
// already in flight, answers it as a hit. A miss waits for a slot of the
// parallelism bound and simulates, with wall-time and miss accounting and
// the AbortAfterPoints kill switch. admitted is called once the request
// holds a slot or has found it needs none; sweeps use it to dispatch their
// points in grid order.
func (r *Runner) do(ctx context.Context, key string, cfg config.Config, benchmarks []string, admitted func()) (system.Results, error) {
	admit := sync.OnceFunc(admitted)
	defer admit()
	res, hit, err := r.cache.Do(ctx, key, func() (system.Results, error) {
		// With a slot free, select would pick it over an ended ctx half
		// the time and start a simulation after an AbortAfterPoints cut.
		if err := ctx.Err(); err != nil {
			return system.Results{}, err
		}
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			return system.Results{}, ctx.Err()
		}
		defer func() { <-r.sem }()
		admit()
		start := time.Now()
		res, err := r.sim(ctx, fidelity.Tier(r.opts.Fidelity), cfg, benchmarks)
		r.simNanos.Add(time.Since(start).Nanoseconds())
		if err != nil {
			return res, err
		}
		r.misses.Add(1)
		if n := r.opts.AbortAfterPoints; n > 0 && r.misses.Load() >= int64(n) {
			r.abortCancel()
		}
		return res, nil
	})
	if hit {
		r.hits.Add(1)
	}
	return res, err
}

// sweep runs the grid cfgs × ws (config-major, then workload) and returns
// its points in grid order. With Options.Journal set, it checkpoints to a
// journal file keyed by the grid's fingerprint: points an earlier run
// journaled are replayed into the cache instead of simulated, and every
// fresh point is appended. The rest run concurrently through do,
// dispatched in grid order. The first failing point in grid order aborts
// the sweep with its error; an AbortAfterPoints cut returns ErrAborted.
func (r *Runner) sweep(name string, cfgs []sweep.NamedConfig, ws []workload.Workload) ([]sweep.Point, error) {
	var (
		j        *sweep.Journal
		replayed map[int]sweep.Point
	)
	if r.opts.Journal != "" {
		fp := sweep.Spec{
			Name:        name,
			Configs:     cfgs,
			Workloads:   ws,
			Seed:        r.opts.Seed,
			MaxInsts:    r.opts.MaxInsts,
			WarmupInsts: r.opts.WarmupInsts,
			Fidelity:    r.opts.Fidelity,
		}.Fingerprint()
		var err error
		j, replayed, err = sweep.OpenJournal(filepath.Join(r.opts.Journal, fmt.Sprintf("%s-%.12s.ndjson", name, fp)), name, fp)
		if err != nil {
			return nil, err
		}
		defer j.Close()
	}

	// Fresh points wait for the whole grid to be built, so every replayed
	// point is cached before anything simulates. Then each waits until the
	// one before it holds a slot or has found it needs none, so the
	// simulations start in grid order.
	tier := fidelity.Tier(r.opts.Fidelity)
	pts := make([]sweep.Point, 0, len(cfgs)*len(ws))
	errs := make([]error, cap(pts))
	var wg sync.WaitGroup
	built := make(chan struct{})
	prev := built
	for _, nc := range cfgs {
		for _, w := range ws {
			cfg := r.normalize(nc.Config, len(w.Benchmarks))
			i := len(pts)
			pts = append(pts, sweep.Point{
				Index:    i,
				Config:   nc.Name,
				Workload: w.Name,
				Seed:     cfg.Seed,
				Key:      fidelity.Key(tier, cfg, w.Benchmarks),
				Fidelity: r.opts.Fidelity,
			})
			// A journaled point is kept only if its key still matches its
			// grid slot — a defense in depth behind the fingerprint check.
			if p, ok := replayed[i]; ok && p.Key == pts[i].Key {
				pts[i] = p
				r.cache.Put(p.Key, p.Results)
				continue
			}
			next := make(chan struct{})
			wg.Add(1)
			go func(prev <-chan struct{}) {
				defer wg.Done()
				<-prev
				res, err := r.do(r.abortCtx, pts[i].Key, cfg, w.Benchmarks, func() { close(next) })
				if err == nil {
					res, err = sweep.Canonicalize(res)
				}
				if err != nil {
					errs[i] = err
					return
				}
				pts[i].Results = res
				if j != nil {
					j.Append(pts[i])
				}
			}(prev)
			prev = next
		}
	}
	close(built)
	wg.Wait()

	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) && r.abortCtx.Err() != nil:
			return nil, ErrAborted
		default:
			return nil, fmt.Errorf("exp: sweep %s point %s/%s: %w", name, pts[i].Config, pts[i].Workload, err)
		}
	}
	return pts, nil
}

// Summary reports the Runner's cumulative cache accounting.
type Summary struct {
	// Simulations is the number of distinct configurations actually
	// simulated (memo-cache misses).
	Simulations int64
	// CacheHits is the number of requests served from — or coalesced
	// onto — an existing run.
	CacheHits int64
	// SimWall is total wall-clock time spent inside the simulator,
	// summed across parallel runs.
	SimWall time.Duration
}

// Summary returns the Runner's cache accounting so far.
func (r *Runner) Summary() Summary {
	return Summary{
		Simulations: r.misses.Load(),
		CacheHits:   r.hits.Load(),
		SimWall:     time.Duration(r.simNanos.Load()),
	}
}

// LogSummary writes a one-line sweep-cost report, the line cmd/paperexp
// prints at suite end.
func (r *Runner) LogSummary(w io.Writer) {
	s := r.Summary()
	fmt.Fprintf(w, "runner: %d simulations, %d cache hits, %.1fs simulated wall time\n",
		s.Simulations, s.CacheHits, s.SimWall.Seconds())
}

// benchSet returns the sorted distinct benchmarks of ws.
func benchSet(ws []workload.Workload) []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range ws {
		for _, b := range w.Benchmarks {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	sort.Strings(out)
	return out
}

// refIPCAll sweeps the DDR2 single-core reference over benchmarks and
// returns each benchmark's IPC (the paper's SMT-speedup denominator).
func (r *Runner) refIPCAll(benchmarks []string) (map[string]float64, error) {
	ws := make([]workload.Workload, len(benchmarks))
	for i, b := range benchmarks {
		ws[i] = workload.Workload{Name: b, Benchmarks: []string{b}}
	}
	pts, err := r.sweep("ddr2-ref", []sweep.NamedConfig{
		{Name: "ddr2", Config: config.DDR2Baseline()},
	}, ws)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(pts))
	for _, p := range pts {
		out[p.Workload] = p.Results.IPC[0]
	}
	return out, nil
}

// refIPC returns each benchmark's single-core IPC on the reference system.
func (r *Runner) refIPC(benchmarks []string) ([]float64, error) {
	distinct := append([]string(nil), benchmarks...)
	sort.Strings(distinct)
	distinct = slices.Compact(distinct)
	m, err := r.refIPCAll(distinct)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(benchmarks))
	for i, b := range benchmarks {
		out[i] = m[b]
	}
	return out, nil
}

// Speedup runs cfg on w and returns the SMT speedup against the DDR2
// single-core reference.
func (r *Runner) Speedup(cfg config.Config, w workload.Workload) (float64, error) {
	res, err := r.Run(cfg, w.Benchmarks)
	if err != nil {
		return 0, err
	}
	ref, err := r.refIPC(w.Benchmarks)
	if err != nil {
		return 0, err
	}
	return workload.SMTSpeedup(res.IPC, ref), nil
}

// speedupAll computes SMT speedups of cfg across ws: one sweep over
// cfg × ws plus the DDR2 reference sweep, both through the shared cache.
func (r *Runner) speedupAll(cfg config.Config, ws []workload.Workload) ([]float64, error) {
	pts, err := r.sweep("speedup", []sweep.NamedConfig{{Name: "cfg", Config: cfg}}, ws)
	if err != nil {
		return nil, err
	}
	refs, err := r.refIPCAll(benchSet(ws))
	if err != nil {
		return nil, err
	}
	byName := make(map[string]system.Results, len(pts))
	for _, p := range pts {
		byName[p.Workload] = p.Results
	}
	out := make([]float64, len(ws))
	for i, w := range ws {
		ref := make([]float64, len(w.Benchmarks))
		for k, b := range w.Benchmarks {
			ref[k] = refs[b]
		}
		out[i] = workload.SMTSpeedup(byName[w.Name].IPC, ref)
	}
	return out, nil
}

// coreGroups partitions the options' workload set by core count, in
// presentation order (1, 2, 4, 8), skipping empty groups.
func (r *Runner) coreGroups() []coreGroup {
	var groups []coreGroup
	for _, n := range []int{1, 2, 4, 8} {
		ws := workload.ByCores(r.opts.Workloads, n)
		if len(ws) > 0 {
			groups = append(groups, coreGroup{Cores: n, Workloads: ws})
		}
	}
	return groups
}

type coreGroup struct {
	Cores     int
	Workloads []workload.Workload
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
