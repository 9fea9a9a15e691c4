// Package exp regenerates every table and figure of the paper's evaluation
// (Section 5). Each FigureN function declares the grid of configurations ×
// workloads that figure varies and runs it as a sweep through its Runner,
// the one executor of every simulation in a suite: bounded parallelism and
// single-flight result caching shared across figures (the FBD baseline
// appears in Figures 4, 7, 9, 10, 12 and 13 but simulates once).
package exp

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
)

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
//
// A copy of a Runner with other options shares all of that with the
// original; E4 runs its per-seed Figure 7 grids on such copies.
type Runner struct {
	opts Options
	// sem bounds concurrently running simulations at Options.Parallel. A
	// request takes a slot only on a cache miss.
	sem chan struct{}
	// sim is the simulator behind the cache, system.RunWorkload; tests
	// substitute fakes.
	sim   func(cfg config.Config, benchmarks []string) (system.Results, error)
	cache *resultCache
}

// resultCache holds every completed simulation and every one in flight by
// request key, and the accounting Summary reports. Nothing is evicted.
type resultCache struct {
	mu      sync.Mutex
	done    map[requestKey]system.Results
	flights map[requestKey]*flight

	// hits are requests served from, or joined to, another request's run;
	// misses are successful simulations.
	hits     atomic.Int64
	misses   atomic.Int64
	simNanos atomic.Int64
}

// flight is one simulation in progress; requests that join it wait on done.
type flight struct {
	done chan struct{}
	res  system.Results
	err  error
}

// requestKey names one simulation request; see key.
type requestKey [sha256.Size]byte

// key returns the SHA-256 over the JSON encodings of a normalized
// configuration (which embeds the seed and instruction budgets) and the
// benchmark list. Requests that would produce identical Results hash
// identically; any differing knob — timing, geometry, seed, budget,
// benchmark order — gives a different key.
func key(cfg config.Config, benchmarks []string) requestKey {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Config and []string cannot fail to encode.
	_ = enc.Encode(cfg)
	_ = enc.Encode(benchmarks)
	return requestKey(h.Sum(nil))
}

// NewRunner builds a Runner with the given options. Invalid option values
// (see Options.Validate) are a programmer error and panic; front doors
// call Validate first and report a usage error instead.
func NewRunner(opts Options) *Runner {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	o := opts.norm()
	return &Runner{
		opts: o,
		sem:  make(chan struct{}, o.Parallel),
		sim: func(cfg config.Config, benchmarks []string) (system.Results, error) {
			return system.RunWorkload(context.Background(), cfg, benchmarks)
		},
		cache: &resultCache{
			done:    make(map[requestKey]system.Results),
			flights: make(map[requestKey]*flight),
		},
	}
}

// Options returns the normalized options in effect.
func (r *Runner) Options() Options { return r.opts }

// normalize applies the Runner's budget/seed overrides and the core-count
// convention (CPU.Cores = len(benchmarks)) so that direct runs and figure
// sweeps key the cache identically.
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
	return r.do(r.normalize(cfg, len(benchmarks)), benchmarks, func() {})
}

// do is the one path every simulation request takes, with cfg already
// normalized. A cached result, or an identical run already in flight,
// answers it as a hit. A miss waits for a slot of the parallelism bound
// and simulates. admitted is called once the request holds a slot or has
// found a result it can wait for without one; sweeps use it to dispatch
// their points in cost order. Errors are never cached: a failed run is
// forgotten, so a later request re-simulates, while the requests that
// joined it see its error.
func (r *Runner) do(cfg config.Config, benchmarks []string, admitted func()) (system.Results, error) {
	c, k := r.cache, key(cfg, benchmarks)
	c.mu.Lock()
	if res, ok := c.done[k]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		admitted()
		return res, nil
	}
	if f, ok := c.flights[k]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		admitted()
		<-f.done
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()

	r.sem <- struct{}{}
	admitted()
	start := time.Now()
	f.res, f.err = r.sim(cfg, benchmarks)
	c.simNanos.Add(time.Since(start).Nanoseconds())
	<-r.sem

	c.mu.Lock()
	delete(c.flights, k)
	if f.err == nil {
		c.done[k] = f.res
		c.misses.Add(1)
	}
	c.mu.Unlock()
	close(f.done)
	return f.res, f.err
}

// sweep runs the grid cfgs × ws and returns its results in grid order:
// config-major, then workload. The points run concurrently through do,
// dispatched longest first: most cores first, ties in grid order. Every
// point carries the Runner's budgets, so core count orders the cost, and
// the longest simulations cannot end a figure alone on one slot. Each
// point is dispatched once the one before it holds a slot or has found it
// needs none. The first failing point in grid order fails the sweep with
// its error.
func (r *Runner) sweep(cfgs []config.Config, ws []workload.Workload) ([]system.Results, error) {
	order := make([]int, len(cfgs)*len(ws))
	for i := range order {
		order[i] = i
	}
	cores := func(i int) int { return len(ws[i%len(ws)].Benchmarks) }
	slices.SortStableFunc(order, func(a, b int) int { return cores(b) - cores(a) })

	out := make([]system.Results, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for _, i := range order {
		admitted := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := ws[i%len(ws)].Benchmarks
			out[i], errs[i] = r.do(r.normalize(cfgs[i/len(ws)], len(b)), b, func() { close(admitted) })
		}()
		<-admitted
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: sweep point config %d, workload %s: %w", i/len(ws), ws[i%len(ws)].Name, err)
		}
	}
	return out, nil
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
		Simulations: r.cache.misses.Load(),
		CacheHits:   r.cache.hits.Load(),
		SimWall:     time.Duration(r.cache.simNanos.Load()),
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

// Speedup runs cfg on w and returns the SMT speedup against the DDR2
// single-core reference.
func (r *Runner) Speedup(cfg config.Config, w workload.Workload) (float64, error) {
	s, err := r.speedups([]config.Config{cfg}, []workload.Workload{w})
	if err != nil {
		return 0, err
	}
	return s[0][0], nil
}

// speedups returns the SMT speedup of every point of cfgs × ws against the
// DDR2 single-core reference (the paper's denominator), indexed
// [config][workload]. It runs two sweeps: the reference runs of ws's
// benchmarks, then every config × every workload as one wave. The
// reference goes first, so the barrier between the two waits on
// single-core simulations only.
func (r *Runner) speedups(cfgs []config.Config, ws []workload.Workload) ([][]float64, error) {
	bs := benchSet(ws)
	refWs := make([]workload.Workload, len(bs))
	for i, b := range bs {
		refWs[i] = workload.Workload{Name: b, Benchmarks: []string{b}}
	}
	refs, err := r.sweep([]config.Config{config.DDR2Baseline()}, refWs)
	if err != nil {
		return nil, err
	}
	refIPC := make(map[string]float64, len(refs))
	for i, b := range bs {
		refIPC[b] = refs[i].IPC[0]
	}

	res, err := r.sweep(cfgs, ws)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(cfgs))
	for c := range out {
		out[c] = make([]float64, len(ws))
		for i, w := range ws {
			ref := make([]float64, len(w.Benchmarks))
			for k, b := range w.Benchmarks {
				ref[k] = refIPC[b]
			}
			out[c][i] = workload.SMTSpeedup(res[c*len(ws)+i].IPC, ref)
		}
	}
	return out, nil
}

// coreGroups partitions the options' workload set by core count, in
// presentation order (1, 2, 4, 8), skipping empty groups. It also returns
// the groups' workloads end to end: the workload axis of a figure's wave.
func (r *Runner) coreGroups() ([]coreGroup, []workload.Workload) {
	var (
		groups []coreGroup
		all    []workload.Workload
	)
	for _, n := range []int{1, 2, 4, 8} {
		ws := workload.ByCores(r.opts.Workloads, n)
		if len(ws) > 0 {
			groups = append(groups, coreGroup{Cores: n, Workloads: ws, first: len(all)})
			all = append(all, ws...)
		}
	}
	return groups, all
}

type coreGroup struct {
	Cores     int
	Workloads []workload.Workload
	first     int // index of Workloads[0] on the wave's workload axis
}

// of returns the group's share of xs, a row indexed by the wave's workload
// axis.
func (g coreGroup) of(xs []float64) []float64 { return xs[g.first : g.first+len(g.Workloads)] }

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
