package exp

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/stats"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
)

// fakeSim is a deterministic stand-in simulator: results are a pure
// function of the request, including a populated latency histogram, so
// bit-identity assertions exercise the full Results shape.
func fakeSim(_ context.Context, t fidelity.Tier, cfg config.Config, benchmarks []string) (system.Results, error) {
	f := fnv.New64a()
	f.Write([]byte(fidelity.Key(t, cfg, benchmarks)))
	mix := int64(f.Sum64() % 1_000_003)
	h := &stats.Histogram{}
	for i := int64(1); i <= 64; i++ {
		h.Observe(clock.Time(mix*i%97_000 + 1))
	}
	ipc := make([]float64, len(benchmarks))
	committed := make([]int64, len(benchmarks))
	for i := range benchmarks {
		ipc[i] = float64(mix%11+int64(i)+1) / 4
		committed[i] = cfg.MaxInsts
	}
	return system.Results{
		Benchmarks:       append([]string(nil), benchmarks...),
		Cores:            len(benchmarks),
		IPC:              ipc,
		Committed:        committed,
		Cycles:           cfg.MaxInsts * 3,
		Reads:            mix % 5000,
		AvgReadLatencyNS: float64(mix%300) + 0.5,
		LatencyHist:      h,
	}, nil
}

// fakeRunner is a Runner over sim with small budgets, two slots and the
// other options from opts.
func fakeRunner(opts Options, sim func(context.Context, fidelity.Tier, config.Config, []string) (system.Results, error)) *Runner {
	opts.MaxInsts = 10_000
	opts.WarmupInsts = 1_000
	if opts.Parallel == 0 {
		opts.Parallel = 2
	}
	r := NewRunner(opts)
	r.sim = sim
	return r
}

// testGrid returns nConfigs distinct configurations and nWorkloads (at
// most four) distinct workloads of one or two benchmarks.
func testGrid(nConfigs, nWorkloads int) ([]sweep.NamedConfig, []workload.Workload) {
	var cfgs []sweep.NamedConfig
	for i := 0; i < nConfigs; i++ {
		c := config.Default()
		if i%2 == 1 {
			c = config.WithAMBPrefetch(c)
		}
		c.CPU.ROBEntries += 8 * i
		cfgs = append(cfgs, sweep.NamedConfig{Name: fmt.Sprintf("cfg-%d", i), Config: c})
	}
	mixes := [][]string{{"swim"}, {"swim", "mgrid"}, {"vpr"}, {"applu", "vpr"}}
	var ws []workload.Workload
	for i := 0; i < nWorkloads; i++ {
		ws = append(ws, workload.Workload{Name: fmt.Sprintf("wl-%d", i), Benchmarks: mixes[i]})
	}
	return cfgs, ws
}

// journalFingerprint returns the fingerprint in the header of the journal
// at path.
func journalFingerprint(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var h struct{ Fingerprint string }
	if err := json.Unmarshal(line, &h); err != nil {
		t.Fatalf("journal header %q: %v", line, err)
	}
	return h.Fingerprint
}

// journals returns the journal files in dir.
func journals(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestExpandOrderAndOverrides: points come back config-major, then
// workload, with dense indices; every simulated config carries the
// Runner's budgets and seed and one core per benchmark; and at Parallel 1
// the simulations start most cores first, ties in grid order.
func TestExpandOrderAndOverrides(t *testing.T) {
	cfgs, ws := testGrid(2, 2)
	var mu sync.Mutex
	var order []string
	r := fakeRunner(Options{Seed: 5, Parallel: 1}, func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string) (system.Results, error) {
		if cfg.MaxInsts != 10_000 || cfg.WarmupInsts != 1_000 || cfg.Seed != 5 || cfg.CPU.Cores != len(b) {
			t.Errorf("config not normalized: budgets %d/%d, seed %d, %d cores for %d benchmarks",
				cfg.MaxInsts, cfg.WarmupInsts, cfg.Seed, cfg.CPU.Cores, len(b))
		}
		mu.Lock()
		order = append(order, fidelity.Key(tier, cfg, b))
		mu.Unlock()
		return fakeSim(ctx, tier, cfg, b)
	})
	pts, err := r.sweep("grid", cfgs, ws)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ cfg, wl string }{
		{"cfg-0", "wl-0"}, {"cfg-0", "wl-1"}, {"cfg-1", "wl-0"}, {"cfg-1", "wl-1"},
	}
	if len(pts) != len(want) || len(order) != len(want) {
		t.Fatalf("%d points from %d simulations, want %d", len(pts), len(order), len(want))
	}
	for i, p := range pts {
		if p.Index != i || p.Config != want[i].cfg || p.Workload != want[i].wl || p.Seed != 5 {
			t.Errorf("point %d = {%d %s %s %d}, want {%d %s %s 5}",
				i, p.Index, p.Config, p.Workload, p.Seed, i, want[i].cfg, want[i].wl)
		}
	}
	// wl-1 runs two cores and wl-0 one: both wl-1 points first.
	for k, i := range []int{1, 3, 0, 2} {
		if order[k] != pts[i].Key {
			t.Errorf("simulation %d was not point %d (%s/%s)", k, i, want[i].cfg, want[i].wl)
		}
	}
}

// TestFigure7IsOneWave runs Figure 7 over the quick workloads on a fake
// simulator. At Parallel 2 the FBD and FBD-AP 8-core points must be in
// flight together: each waits, up to a deadline, for the other to start.
// At Parallel 1 the simulations must start in the wave's order: the DDR2
// reference runs, then every config × workload point, most cores first,
// ties in grid order.
func TestFigure7IsOneWave(t *testing.T) {
	t.Run("parallel=2", func(t *testing.T) {
		var mu sync.Mutex
		started := 0
		together := make(chan struct{})
		r := fakeRunner(Options{Workloads: QuickWorkloads(), Parallel: 2}, func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string) (system.Results, error) {
			if len(b) == 8 {
				mu.Lock()
				if started++; started == 2 {
					close(together)
				}
				mu.Unlock()
				select {
				case <-together:
				case <-time.After(10 * time.Second):
					return system.Results{}, errors.New("the other 8-core point did not start within 10s")
				}
			}
			return fakeSim(ctx, tier, cfg, b)
		})
		if _, err := Figure7(r); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("parallel=1", func(t *testing.T) {
		var mu sync.Mutex
		var order []string
		r := fakeRunner(Options{Workloads: QuickWorkloads(), Parallel: 1}, func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string) (system.Results, error) {
			mu.Lock()
			order = append(order, fidelity.Key(tier, cfg, b))
			mu.Unlock()
			return fakeSim(ctx, tier, cfg, b)
		})
		if _, err := Figure7(r); err != nil {
			t.Fatal(err)
		}
		key := func(cfg config.Config, b []string) string {
			return fidelity.Key(fidelity.CycleAccurate, r.normalize(cfg, len(b)), b)
		}
		ws := QuickWorkloads()
		var want []string
		for _, b := range benchSet(ws) {
			want = append(want, key(config.DDR2Baseline(), []string{b}))
		}
		for _, n := range []int{8, 4, 2, 1} {
			for _, cfg := range []config.Config{config.FBDIMMBaseline(), config.WithAMBPrefetch(config.Default())} {
				for _, w := range workload.ByCores(ws, n) {
					want = append(want, key(cfg, w.Benchmarks))
				}
			}
		}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("simulations started in another order than the wave's:\n got %.8q\nwant %.8q", order, want)
		}
	})
}

// TestSeedSensitivityReusesFigure7: E4 at the runner's own seed is served
// entirely from the Figure 7 simulations the runner already holds, and
// reproduces Figure 7's average gains exactly.
func TestSeedSensitivityReusesFigure7(t *testing.T) {
	var runs atomic.Int64
	r := fakeRunner(Options{Workloads: QuickWorkloads()}, func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		return fakeSim(ctx, tier, cfg, b)
	})
	f7, err := Figure7(r)
	if err != nil {
		t.Fatal(err)
	}
	before := runs.Load()
	e4, err := ExtensionSeedSensitivity(r, []int64{r.Options().Seed})
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load() - before; n != 0 {
		t.Errorf("E4 at the runner's seed simulated %d points again", n)
	}
	for _, row := range e4.Rows {
		if want := f7.AvgGainPct[row.Cores]; row.MeanPct != want {
			t.Errorf("@%d cores: E4 mean gain %v, Figure 7 %v", row.Cores, row.MeanPct, want)
		}
	}
}

// TestSingleFlightAcrossPoints: two config dimension values with identical
// content must simulate once; the second point is a cache hit.
func TestSingleFlightAcrossPoints(t *testing.T) {
	var runs atomic.Int64
	r := fakeRunner(Options{}, func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		return fakeSim(ctx, tier, cfg, b)
	})
	c := config.Default()
	pts, err := r.sweep("dedup", []sweep.NamedConfig{
		{Name: "a", Config: c},
		{Name: "b", Config: c}, // same content, different label
	}, []workload.Workload{{Name: "w", Benchmarks: []string{"swim"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if runs.Load() != 1 {
		t.Fatalf("simulated %d times, want 1", runs.Load())
	}
	if !reflect.DeepEqual(pts[0].Results, pts[1].Results) {
		t.Fatal("deduped points differ")
	}
	if s := r.Summary(); s.Simulations != 1 || s.CacheHits != 1 {
		t.Fatalf("summary %+v, want 1 simulation and 1 cache hit", s)
	}
}

// TestSpecFidelityTiersEveryPoint: the Runner's tier reaches every point's
// run and tags its key and Point, and a sampled grid journals apart from
// the same grid at cycle-accurate, which an explicit cycle-accurate tier
// leaves unchanged — the contract paperexp -fidelity rests on.
func TestSpecFidelityTiersEveryPoint(t *testing.T) {
	dir := t.TempDir()
	cfgs, ws := testGrid(2, 2)
	var runs, wrongTier atomic.Int64
	r := fakeRunner(Options{Fidelity: string(fidelity.Sampled), Journal: dir}, func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		if tier != fidelity.Sampled {
			wrongTier.Add(1)
		}
		return fakeSim(ctx, tier, cfg, b)
	})
	pts, err := r.sweep("tiers", cfgs, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 || runs.Load() != 4 {
		t.Fatalf("got %d points from %d runs, want 4 and 4", len(pts), runs.Load())
	}
	if n := wrongTier.Load(); n != 0 {
		t.Errorf("%d of 4 points ran at a tier other than the sampled tier", n)
	}
	for _, p := range pts {
		if p.Fidelity != string(fidelity.Sampled) {
			t.Errorf("point %d Fidelity = %q, want %q", p.Index, p.Fidelity, fidelity.Sampled)
		}
		if !strings.HasPrefix(p.Key, "sampled:") {
			t.Errorf("point %d key %q lacks the sampled: prefix", p.Index, p.Key)
		}
	}

	for _, tier := range []string{"", string(fidelity.CycleAccurate)} {
		if _, err := fakeRunner(Options{Fidelity: tier, Journal: dir}, fakeSim).sweep("tiers", cfgs, ws); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(journals(t, dir)); n != 2 {
		t.Errorf("%d journals for a sampled and two cycle-accurate runs, want 2", n)
	}
}

// TestParallelBound: never more than Parallel simulations in flight.
func TestParallelBound(t *testing.T) {
	cfgs, ws := testGrid(4, 2)
	var cur, peak atomic.Int64
	r := fakeRunner(Options{Parallel: 2}, func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string) (system.Results, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return fakeSim(ctx, tier, cfg, b)
	})
	if _, err := r.sweep("bound", cfgs, ws); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds Parallel=2", got)
	}
}

// TestErrorPointsEmittedNotJournaled: a failing point fails its sweep with
// its error and is not journaled, so a resumed sweep re-runs it and only
// it; the replayed point serves later requests from the cache.
func TestErrorPointsEmittedNotJournaled(t *testing.T) {
	dir := t.TempDir()
	cfgs, ws := testGrid(1, 2)
	boom := errors.New("bank exploded")
	r := fakeRunner(Options{Journal: dir}, func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string) (system.Results, error) {
		if len(b) == 2 { // wl-1 has two benchmarks
			return system.Results{}, boom
		}
		return fakeSim(ctx, tier, cfg, b)
	})
	_, err := r.sweep("errors", cfgs, ws)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "cfg-0/wl-1") {
		t.Fatalf("err = %v, want the failing point's error naming cfg-0/wl-1", err)
	}

	// The failed point must not be in the journal: a resumed sweep
	// re-attempts it and replays the other.
	resumed := fakeRunner(Options{Journal: dir}, fakeSim)
	pts, err := resumed.sweep("errors", cfgs, ws)
	if err != nil {
		t.Fatalf("resumed sweep still failing: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("resumed sweep returned %d points, want 2", len(pts))
	}
	if s := resumed.Summary(); s.Simulations != 1 {
		t.Fatalf("resume simulated %d points, want only the failed one", s.Simulations)
	}
	if _, err := resumed.Run(cfgs[0].Config, ws[0].Benchmarks); err != nil {
		t.Fatal(err)
	}
	if s := resumed.Summary(); s.Simulations != 1 {
		t.Errorf("a request for the replayed point simulated it again")
	}
}

// TestKillAndResumeBitIdentical is the resume property test: a sweep cut
// after 1, 3 or 7 fresh points and resumed from its journal yields a
// merged point set reflect.DeepEqual to an uninterrupted run of the same
// grid.
func TestKillAndResumeBitIdentical(t *testing.T) {
	cfgs, ws := testGrid(3, 4) // 12 points
	want, err := fakeRunner(Options{}, fakeSim).sweep("resume", cfgs, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 12 {
		t.Fatalf("reference run produced %d points", len(want))
	}

	for _, killAfter := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("killAfter=%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			killed := fakeRunner(Options{Journal: dir, AbortAfterPoints: killAfter}, fakeSim)
			if _, err := killed.sweep("resume", cfgs, ws); !errors.Is(err, ErrAborted) {
				t.Fatalf("cut run err = %v, want ErrAborted", err)
			}

			resumed := fakeRunner(Options{Journal: dir}, fakeSim)
			got, err := resumed.sweep("resume", cfgs, ws)
			if err != nil {
				t.Fatal(err)
			}
			if s := resumed.Summary(); s.Simulations > int64(12-killAfter) {
				t.Fatalf("resume simulated %d points; the cut run journaled %d", s.Simulations, killAfter)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("resumed sweep diverged from uninterrupted run")
			}
		})
	}
}

// TestJournalIdentityPinned pins the grid identity journals are found by:
// the Figure 8 grid of the committed journal fixtures must fingerprint to
// their headers, at both tiers. A change to the spec encoding, the
// variant list or the Runner's normalization that would orphan existing
// journals fails here.
func TestJournalIdentityPinned(t *testing.T) {
	for _, tc := range []struct{ fidelity, fixture string }{
		{"", "figure8.ndjson"},
		{string(fidelity.Sampled), "figure8_sampled.ndjson"},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := t.TempDir()
			r := NewRunner(Options{
				MaxInsts:    20_000,
				WarmupInsts: 2_000,
				Seed:        1,
				Workloads:   QuickWorkloads(),
				Journal:     dir,
				Fidelity:    tc.fidelity,
			})
			r.sim = fakeSim
			if _, err := Figure8(r); err != nil {
				t.Fatal(err)
			}
			paths := journals(t, dir)
			if len(paths) != 1 {
				t.Fatalf("Figure 8 wrote %d journals, want 1", len(paths))
			}
			want := journalFingerprint(t, filepath.Join("..", "sweep", "testdata", tc.fixture))
			if got := journalFingerprint(t, paths[0]); got != want {
				t.Errorf("Figure 8 grid fingerprints to %.12s…, want the fixture's %.12s…", got, want)
			}
		})
	}
}
