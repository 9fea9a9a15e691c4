// Package sweep is the parameter-sweep engine: it expands a declarative
// grid specification — configurations × workloads × seeds — into
// independently executable shards (one per grid point), runs them on a
// bounded worker pool behind a single-flight LRU result cache, streams
// per-point results as they complete, and checkpoints completed points to
// an append-only NDJSON journal so that a killed sweep resumes without
// recomputing anything it already finished.
//
// Every figure of the paper's evaluation is a sweep (internal/exp builds
// its figures on this engine), and the simulation service exposes the same
// engine over HTTP (POST /v1/sweeps in internal/simserver).
//
// Resume guarantee: results are canonicalized through their JSON encoding
// before they are journaled or emitted, and stats.Histogram round-trips
// losslessly, so a sweep interrupted after any number of completed shards
// and resumed from its journal produces a merged result set that is
// bit-identical (reflect.DeepEqual) to an uninterrupted run.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
)

// RunFunc executes one simulation. The default is the real simulator
// (system.RunWorkloadContext); tests and embedding servers substitute fakes
// or instrumented wrappers.
type RunFunc func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error)

// NamedConfig is one configuration dimension value of a sweep grid.
type NamedConfig struct {
	Name   string        `json:"name"`
	Config config.Config `json:"config"`
	// Fidelity overrides the spec-level tier for this config's points
	// ("" inherits; see Spec.Fidelity). A grid can triage most configs
	// analytically and run the interesting one cycle-accurately.
	Fidelity string `json:"fidelity,omitempty"`
}

// Spec declares a sweep grid. The grid is the cross product
// Configs × Workloads × Seeds; each grid point is one shard, simulated
// independently. Spec is pure data — execution knobs that do not affect
// the results (Parallel, Journal) are excluded from the spec fingerprint
// that guards journal resumption.
type Spec struct {
	// Name labels the sweep (progress displays, journal header).
	Name string `json:"name"`
	// Configs is the configuration dimension (at least one entry).
	Configs []NamedConfig `json:"configs"`
	// Workloads is the workload dimension (at least one entry).
	Workloads []workload.Workload `json:"workloads"`
	// Seeds is the seed dimension. Empty means one pass per (config,
	// workload) keeping each config's own Seed; a non-zero entry
	// overrides cfg.Seed for that point.
	Seeds []int64 `json:"seeds,omitempty"`
	// MaxInsts > 0 overrides every config's instruction budget.
	MaxInsts int64 `json:"max_insts,omitempty"`
	// WarmupInsts >= 0 overrides every config's warmup budget (0 is a
	// valid override: no warmup); negative keeps each config's value.
	WarmupInsts int64 `json:"warmup_insts,omitempty"`
	// Fidelity selects the simulation tier of every point:
	// "cycle-accurate" (or "", the backward-compatible default),
	// "sampled" or "analytic". Per-config Fidelity overrides it
	// point-wise. The tier is part of the result identity — estimate
	// points cache and journal under tier-tagged keys, so they never
	// masquerade as full-detail results.
	Fidelity string `json:"fidelity,omitempty"`
	// Parallel bounds concurrently running shards (0 = GOMAXPROCS).
	Parallel int `json:"parallel,omitempty"`
	// Journal is the checkpoint file path; empty disables checkpointing.
	Journal string `json:"-"`
	// ShareWarmup warms each group of points with an identical warmup
	// prefix (see WarmupKey) once: the group's first point snapshots the
	// machine at the warmup boundary and the rest restore it instead of
	// re-simulating the prefix. Results are bit-identical with or without
	// sharing, so this is an execution knob, excluded from the spec
	// fingerprint like Parallel and Journal.
	ShareWarmup bool `json:"-"`
}

// Validate reports whether the spec describes a runnable grid.
func (s Spec) Validate() error {
	if len(s.Configs) == 0 {
		return errors.New("sweep: spec has no configs")
	}
	if len(s.Workloads) == 0 {
		return errors.New("sweep: spec has no workloads")
	}
	if s.Parallel < 0 {
		return fmt.Errorf("sweep: negative parallelism %d", s.Parallel)
	}
	if s.MaxInsts < 0 {
		return fmt.Errorf("sweep: negative instruction budget %d", s.MaxInsts)
	}
	seen := map[string]bool{}
	for _, nc := range s.Configs {
		if seen[nc.Name] {
			return fmt.Errorf("sweep: duplicate config name %q", nc.Name)
		}
		seen[nc.Name] = true
	}
	seen = map[string]bool{}
	for _, w := range s.Workloads {
		if len(w.Benchmarks) == 0 {
			return fmt.Errorf("sweep: workload %q has no benchmarks", w.Name)
		}
		if seen[w.Name] {
			return fmt.Errorf("sweep: duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
	seenSeed := map[int64]bool{}
	for _, s := range s.Seeds {
		if seenSeed[s] {
			return fmt.Errorf("sweep: duplicate seed %d", s)
		}
		seenSeed[s] = true
	}
	if _, err := fidelity.Parse(s.Fidelity); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, nc := range s.Configs {
		if _, err := fidelity.Parse(nc.Fidelity); err != nil {
			return fmt.Errorf("sweep: config %q: %w", nc.Name, err)
		}
	}
	return nil
}

// pointFidelity resolves the effective tier of one grid point: the
// config-level override, else the spec level, normalized so that the
// cycle-accurate default is always the empty string (stable JSON, stable
// fingerprints).
func (s Spec) pointFidelity(nc NamedConfig) string {
	f := nc.Fidelity
	if f == "" {
		f = s.Fidelity
	}
	t, err := fidelity.Parse(f)
	if err != nil || t == fidelity.CycleAccurate {
		return ""
	}
	return string(t)
}

// pointConfig resolves the effective configuration of one grid point: the
// named config with the spec's budget overrides and the point's seed.
func (s Spec) pointConfig(nc NamedConfig, seed int64) config.Config {
	cfg := nc.Config
	if seed != 0 {
		cfg.Seed = seed
	}
	if s.MaxInsts > 0 {
		cfg.MaxInsts = s.MaxInsts
	}
	if s.WarmupInsts >= 0 {
		cfg.WarmupInsts = s.WarmupInsts
	}
	return cfg
}

// Fingerprint returns the spec's identity hash: everything that affects
// the produced results (configs, workloads, seeds, budgets) and nothing
// that does not (name, parallelism, journal path). A journal written under
// one fingerprint refuses to resume a spec with another.
func (s Spec) Fingerprint() string {
	type identity struct {
		Configs     []NamedConfig       `json:"configs"`
		Workloads   []workload.Workload `json:"workloads"`
		Seeds       []int64             `json:"seeds"`
		MaxInsts    int64               `json:"max_insts"`
		WarmupInsts int64               `json:"warmup_insts"`
		// omitempty keeps every pre-fidelity journal fingerprint valid:
		// a cycle-accurate spec hashes exactly as it always did.
		Fidelity string `json:"fidelity,omitempty"`
	}
	fid := ""
	if t, err := fidelity.Parse(s.Fidelity); err == nil && t != fidelity.CycleAccurate {
		fid = string(t)
	}
	b, _ := json.Marshal(identity{s.Configs, s.Workloads, s.Seeds, s.MaxInsts, s.WarmupInsts, fid})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Point is one completed grid point. Point carries only deterministic
// fields — no wall times, cache provenance or attempt counts — so the
// point stream of a resumed sweep is bit-identical to an uninterrupted
// one.
type Point struct {
	// Index is the point's position in expansion order
	// (config-major, then workload, then seed).
	Index int `json:"index"`
	// Config and Workload name the grid coordinates; Seed is the
	// effective trace seed of the run.
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Key is the canonical result-cache key of the point's resolved
	// configuration (see Key); tier-tagged for estimate points.
	Key string `json:"key"`
	// Fidelity is the tier the point ran at ("" = cycle-accurate, the
	// only value pre-fidelity journals contain).
	Fidelity string `json:"fidelity,omitempty"`
	// Results holds the simulation output (zero when Err is set).
	// Sweep results never carry a memtrace summary: Results.Trace is
	// stripped during canonicalization.
	Results system.Results `json:"results"`
	// Err is the failure message of a deterministically failing point
	// ("" on success). Failed points are not journaled; a resumed sweep
	// re-runs them.
	Err string `json:"err,omitempty"`
}

// PointDef is one expanded, not-yet-executed grid point: the resolved
// configuration and workload of one shard, addressed by Index in
// expansion order and by the content hash Key. It carries everything
// needed to run the shard without the enclosing Spec.
type PointDef struct {
	Index      int           `json:"index"`
	Config     string        `json:"config"`
	Workload   string        `json:"workload"`
	Seed       int64         `json:"seed"`
	Cfg        config.Config `json:"cfg"`
	Benchmarks []string      `json:"benchmarks"`
	Key        string        `json:"key"`
	Fidelity   string        `json:"fidelity,omitempty"`
}

// Points enumerates the grid in deterministic order (config-major, then
// workload, then seed) — the same order every time for the same spec, so
// Index is a stable address across processes and resumes.
func (s Spec) Points() []PointDef {
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0} // sentinel: keep each config's own seed
	}
	defs := make([]PointDef, 0, len(s.Configs)*len(s.Workloads)*len(seeds))
	for _, nc := range s.Configs {
		for _, w := range s.Workloads {
			for _, seed := range seeds {
				cfg := s.pointConfig(nc, seed)
				cfg.CPU.Cores = len(w.Benchmarks)
				fid := s.pointFidelity(nc)
				defs = append(defs, PointDef{
					Index:      len(defs),
					Config:     nc.Name,
					Workload:   w.Name,
					Seed:       cfg.Seed,
					Cfg:        cfg,
					Benchmarks: w.Benchmarks,
					Key:        fidelity.Key(fidelity.Tier(fid), cfg, w.Benchmarks),
					Fidelity:   fid,
				})
			}
		}
	}
	return defs
}

// Progress is a point-in-time snapshot of a sweep's execution.
type Progress struct {
	// Total is the grid size; Completed counts successful points
	// (including replayed ones), Failed the points that errored.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Replayed counts points restored from the journal without
	// simulating; CacheHits counts fresh points served by the result
	// cache or coalesced onto an in-flight identical run.
	Replayed  int `json:"replayed"`
	CacheHits int `json:"cache_hits"`
	// Warmups counts warmup phases actually simulated. Without warmup
	// sharing it matches the number of fresh runs with a warmup budget;
	// with ShareWarmup it drops to one per warmup group.
	Warmups int `json:"warmups"`
}

// TierRunFunc executes one estimate-tier simulation (tier is "sampled" or
// "analytic"). The default is fidelity.Run.
type TierRunFunc func(ctx context.Context, tier string, cfg config.Config, benchmarks []string) (system.Results, error)

// Options carries the execution dependencies a Spec deliberately excludes.
type Options struct {
	// Run overrides the simulation function (default: the real
	// simulator, system.RunWorkloadContext).
	Run RunFunc
	// RunTier overrides the executor of sampled/analytic points
	// (default: fidelity.Run). Cycle-accurate points always go through
	// Run.
	RunTier TierRunFunc
	// Cache is a shared single-flight result cache; nil builds a
	// private unbounded one. Sharing the serving cache lets sweep
	// points and job submissions deduplicate against each other.
	Cache *Cache
}

// Engine executes one sweep spec. Build with New, start with Start, watch
// with Progress.
type Engine struct {
	spec    Spec
	run     RunFunc
	runTier TierRunFunc
	cache   *Cache
	defs    []PointDef

	completed atomic.Int64
	failed    atomic.Int64
	replayed  atomic.Int64
	cacheHits atomic.Int64
	warmups   atomic.Int64

	warmMu     sync.Mutex
	warmGroups map[string]*warmupGroup

	started atomic.Bool
}

// New validates and expands spec into an executable engine.
func New(spec Spec, opts Options) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	run := opts.Run
	if run == nil {
		run = system.RunWorkloadContext
	}
	runTier := opts.RunTier
	if runTier == nil {
		runTier = func(ctx context.Context, tier string, cfg config.Config, benchmarks []string) (system.Results, error) {
			return fidelity.Run(ctx, fidelity.Tier(tier), cfg, benchmarks)
		}
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewCache(0)
	}
	return &Engine{
		spec:       spec,
		run:        run,
		runTier:    runTier,
		cache:      cache,
		defs:       spec.Points(),
		warmGroups: make(map[string]*warmupGroup),
	}, nil
}

// Total returns the grid size.
func (e *Engine) Total() int { return len(e.defs) }

// Progress returns the current execution counters.
func (e *Engine) Progress() Progress {
	return Progress{
		Total:     len(e.defs),
		Completed: int(e.completed.Load()),
		Failed:    int(e.failed.Load()),
		Replayed:  int(e.replayed.Load()),
		CacheHits: int(e.cacheHits.Load()),
		Warmups:   int(e.warmups.Load()),
	}
}

// Start launches the sweep and returns the point stream. Points restored
// from the journal are emitted first (in index order), then fresh points
// in completion order; the channel closes once every shard has been
// executed, failed or skipped because ctx was cancelled. Start may be
// called once per Engine.
//
// Cancelling ctx stops dispatch and cancels in-flight simulations through
// the simulator's context plumbing; cancelled points are not emitted and
// not journaled, so a later run resumes them cleanly.
func (e *Engine) Start(ctx context.Context) (<-chan Point, error) {
	if e.started.Swap(true) {
		return nil, errors.New("sweep: engine already started")
	}

	var (
		j        *Journal
		replayed map[int]Point
		err      error
	)
	if e.spec.Journal != "" {
		j, replayed, err = OpenJournal(e.spec.Journal, e.spec.Name, e.spec.Fingerprint())
		if err != nil {
			return nil, err
		}
	}
	// Keep only replayed points whose key still matches its grid slot —
	// a defense in depth behind the fingerprint check.
	byIndex := make(map[int]Point, len(replayed))
	for _, def := range e.defs {
		if p, ok := replayed[def.Index]; ok && p.Key == def.Key {
			byIndex[def.Index] = p
		}
	}

	parallel := e.spec.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}

	// Buffered to the grid size: workers never block on a slow or
	// abandoned consumer, and an abandoned sweep still drains, journals
	// and terminates.
	out := make(chan Point, len(e.defs))

	go func() {
		defer close(out)
		if j != nil {
			defer j.Close()
		}

		// Replay journaled points first, in index order, and seed the
		// result cache so dependent reads (figure aggregation, job
		// submissions) hit instead of re-simulating.
		indices := make([]int, 0, len(byIndex))
		for idx := range byIndex {
			indices = append(indices, idx)
		}
		sort.Ints(indices)
		for _, idx := range indices {
			p := byIndex[idx]
			e.cache.Put(p.Key, p.Results)
			e.replayed.Add(1)
			e.completed.Add(1)
			out <- p
		}

		work := make(chan PointDef)
		var wg sync.WaitGroup
		for i := 0; i < parallel; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for def := range work {
					e.runPoint(ctx, def, j, out)
				}
			}()
		}
		for _, def := range e.defs {
			if _, done := byIndex[def.Index]; done {
				continue
			}
			if ctx.Err() != nil {
				break
			}
			work <- def
		}
		close(work)
		wg.Wait()
	}()
	return out, nil
}

// runPoint executes one shard: single-flight cached simulation,
// canonicalization, journaling, emission.
func (e *Engine) runPoint(ctx context.Context, def PointDef, j *Journal, out chan<- Point) {
	res, hit, err := e.cache.Do(ctx, def.Key, func() (system.Results, error) {
		return e.runShard(ctx, def)
	})
	p := Point{
		Index:    def.Index,
		Config:   def.Config,
		Workload: def.Workload,
		Seed:     def.Seed,
		Key:      def.Key,
		Fidelity: def.Fidelity,
	}
	switch {
	case err == nil:
		canon, cerr := Canonicalize(res)
		if cerr != nil {
			e.failed.Add(1)
			p.Err = cerr.Error()
			out <- p
			return
		}
		p.Results = canon
		if hit {
			e.cacheHits.Add(1)
		}
		if j != nil {
			j.Append(p)
		}
		e.completed.Add(1)
		out <- p
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Shutdown, not a point failure: emit nothing, journal nothing;
		// a resumed sweep re-runs the point.
	default:
		e.failed.Add(1)
		p.Err = err.Error()
		out <- p
	}
}

// Run expands and executes spec with default options, returning the point
// stream (see Engine.Start). It is the one-call library API:
//
//	ch, err := sweep.Run(ctx, spec)
//	for p := range ch { ... }
func Run(ctx context.Context, spec Spec) (<-chan Point, error) {
	eng, err := New(spec, Options{})
	if err != nil {
		return nil, err
	}
	return eng.Start(ctx)
}

// Canonicalize round-trips res through its JSON encoding — the journal's
// storage format — and strips the memtrace summary (trace artifacts belong
// to the job API, not to sweep points). Because every Results field
// (including stats.Histogram) marshals losslessly, canonicalization is the
// identity on trace-free results; applying it to every emitted point makes
// fresh and journal-replayed points byte-for-byte interchangeable.
func Canonicalize(res system.Results) (system.Results, error) {
	res.Trace = nil
	b, err := json.Marshal(res)
	if err != nil {
		return system.Results{}, err
	}
	var out system.Results
	if err := json.Unmarshal(b, &out); err != nil {
		return system.Results{}, err
	}
	return out, nil
}

// Collect drains ch and returns every point sorted by Index — the merged
// result set of a sweep, in grid order regardless of completion order.
func Collect(ch <-chan Point) []Point {
	var pts []Point
	for p := range ch {
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, k int) bool { return pts[i].Index < pts[k].Index })
	return pts
}
