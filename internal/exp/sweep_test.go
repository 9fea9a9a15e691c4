package exp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/stats"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
)

// fakeSim is a deterministic stand-in simulator: results are a pure
// function of the request, including a populated latency histogram, so
// bit-identity assertions exercise the full Results shape.
func fakeSim(cfg config.Config, benchmarks []string) (system.Results, error) {
	k := key(cfg, benchmarks)
	f := fnv.New64a()
	f.Write(k[:])
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
func fakeRunner(opts Options, sim func(config.Config, []string) (system.Results, error)) *Runner {
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
func testGrid(nConfigs, nWorkloads int) ([]config.Config, []workload.Workload) {
	var cfgs []config.Config
	for i := 0; i < nConfigs; i++ {
		c := config.Default()
		if i%2 == 1 {
			c = config.WithAMBPrefetch(c)
		}
		c.CPU.ROBEntries += 8 * i
		cfgs = append(cfgs, c)
	}
	mixes := [][]string{{"swim"}, {"swim", "mgrid"}, {"vpr"}, {"applu", "vpr"}}
	var ws []workload.Workload
	for i := 0; i < nWorkloads; i++ {
		ws = append(ws, workload.Workload{Name: fmt.Sprintf("wl-%d", i), Benchmarks: mixes[i]})
	}
	return cfgs, ws
}

// TestExpandOrderAndOverrides: points come back config-major, then
// workload; every simulated config carries the Runner's budgets and seed
// and one core per benchmark; and at Parallel 1 the simulations start
// most cores first, ties in grid order.
func TestExpandOrderAndOverrides(t *testing.T) {
	cfgs, ws := testGrid(2, 2)
	var mu sync.Mutex
	var order []requestKey
	r := fakeRunner(Options{Seed: 5, Parallel: 1}, func(cfg config.Config, b []string) (system.Results, error) {
		if cfg.MaxInsts != 10_000 || cfg.WarmupInsts != 1_000 || cfg.Seed != 5 || cfg.CPU.Cores != len(b) {
			t.Errorf("config not normalized: budgets %d/%d, seed %d, %d cores for %d benchmarks",
				cfg.MaxInsts, cfg.WarmupInsts, cfg.Seed, cfg.CPU.Cores, len(b))
		}
		mu.Lock()
		order = append(order, key(cfg, b))
		mu.Unlock()
		return fakeSim(cfg, b)
	})
	pts, err := r.sweep(cfgs, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 || len(order) != 4 {
		t.Fatalf("%d points from %d simulations, want 4", len(pts), len(order))
	}
	keys := make([]requestKey, len(pts))
	for i, p := range pts {
		w := ws[i%len(ws)]
		cfg := r.normalize(cfgs[i/len(ws)], len(w.Benchmarks))
		keys[i] = key(cfg, w.Benchmarks)
		if want, _ := fakeSim(cfg, w.Benchmarks); !reflect.DeepEqual(p, want) {
			t.Errorf("point %d is not config %d on %s", i, i/len(ws), w.Name)
		}
	}
	// wl-1 runs two cores and wl-0 one: both wl-1 points first.
	for k, i := range []int{1, 3, 0, 2} {
		if order[k] != keys[i] {
			t.Errorf("simulation %d was not point %d", k, i)
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
		r := fakeRunner(Options{Workloads: QuickWorkloads(), Parallel: 2}, func(cfg config.Config, b []string) (system.Results, error) {
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
			return fakeSim(cfg, b)
		})
		if _, err := Figure7(r); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("parallel=1", func(t *testing.T) {
		var mu sync.Mutex
		var order []requestKey
		r := fakeRunner(Options{Workloads: QuickWorkloads(), Parallel: 1}, func(cfg config.Config, b []string) (system.Results, error) {
			mu.Lock()
			order = append(order, key(cfg, b))
			mu.Unlock()
			return fakeSim(cfg, b)
		})
		if _, err := Figure7(r); err != nil {
			t.Fatal(err)
		}
		keyOf := func(cfg config.Config, b []string) requestKey {
			return key(r.normalize(cfg, len(b)), b)
		}
		ws := QuickWorkloads()
		var want []requestKey
		for _, b := range benchSet(ws) {
			want = append(want, keyOf(config.DDR2Baseline(), []string{b}))
		}
		for _, n := range []int{8, 4, 2, 1} {
			for _, cfg := range []config.Config{config.FBDIMMBaseline(), config.WithAMBPrefetch(config.Default())} {
				for _, w := range workload.ByCores(ws, n) {
					want = append(want, keyOf(cfg, w.Benchmarks))
				}
			}
		}
		if !slices.Equal(order, want) {
			t.Fatalf("%d simulations started in another order than the wave's %d", len(order), len(want))
		}
	})
}

// TestSeedSensitivityReusesFigure7: E4 at the runner's own seed is served
// entirely from the Figure 7 simulations the runner already holds, and
// reproduces Figure 7's average gains exactly.
func TestSeedSensitivityReusesFigure7(t *testing.T) {
	var runs atomic.Int64
	r := fakeRunner(Options{Workloads: QuickWorkloads()}, func(cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		return fakeSim(cfg, b)
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

// TestSeedSensitivityCountsSimulations: the simulations of E4's per-seed
// Figure 7 grids count in the Runner's Summary, the source of paperexp's
// runner line.
func TestSeedSensitivityCountsSimulations(t *testing.T) {
	var runs atomic.Int64
	r := fakeRunner(Options{Workloads: QuickWorkloads()}, func(cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		return fakeSim(cfg, b)
	})
	if _, err := ExtensionSeedSensitivity(r, nil); err != nil {
		t.Fatal(err)
	}
	if s := r.Summary(); s.Simulations == 0 || s.Simulations != runs.Load() {
		t.Errorf("Summary counts %d simulations; the simulator ran %d", s.Simulations, runs.Load())
	}
}

// TestSingleFlightAcrossPoints: two config dimension values with identical
// content must simulate once; the second point is a cache hit.
func TestSingleFlightAcrossPoints(t *testing.T) {
	var runs atomic.Int64
	r := fakeRunner(Options{}, func(cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		return fakeSim(cfg, b)
	})
	c := config.Default()
	pts, err := r.sweep([]config.Config{c, c}, []workload.Workload{{Name: "w", Benchmarks: []string{"swim"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if runs.Load() != 1 {
		t.Fatalf("simulated %d times, want 1", runs.Load())
	}
	if !reflect.DeepEqual(pts[0], pts[1]) {
		t.Fatal("deduped points differ")
	}
	if s := r.Summary(); s.Simulations != 1 || s.CacheHits != 1 {
		t.Fatalf("summary %+v, want 1 simulation and 1 cache hit", s)
	}
}

// TestJoinedPointAdmittedAtOnce: a sweep point that joins an identical
// simulation already in flight lets the next point dispatch at once. At
// Parallel 2 the grid [A, A, B] must run B beside A: A's simulation waits,
// up to a deadline, for B's to start.
func TestJoinedPointAdmittedAtOnce(t *testing.T) {
	a := config.Default()
	b := a
	b.CPU.ROBEntries += 8
	bStarted := make(chan struct{})
	r := fakeRunner(Options{Parallel: 2}, func(cfg config.Config, bs []string) (system.Results, error) {
		if cfg.CPU.ROBEntries == b.CPU.ROBEntries {
			close(bStarted)
		} else {
			select {
			case <-bStarted:
			case <-time.After(10 * time.Second):
				return system.Results{}, errors.New("B did not start within 10s of A")
			}
		}
		return fakeSim(cfg, bs)
	})
	if _, err := r.sweep([]config.Config{a, a, b}, []workload.Workload{{Name: "w", Benchmarks: []string{"swim"}}}); err != nil {
		t.Fatal(err)
	}
	if s := r.Summary(); s.Simulations != 2 || s.CacheHits != 1 {
		t.Errorf("summary %+v, want 2 simulations and 1 cache hit", s)
	}
}

// TestParallelBound: never more than Parallel simulations in flight.
func TestParallelBound(t *testing.T) {
	cfgs, ws := testGrid(4, 2)
	var cur, peak atomic.Int64
	r := fakeRunner(Options{Parallel: 2}, func(cfg config.Config, b []string) (system.Results, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return fakeSim(cfg, b)
	})
	if _, err := r.sweep(cfgs, ws); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds Parallel=2", got)
	}
}

// TestErrorPointRerunsAlone: a failing point fails its sweep with its
// error, naming the point, and is not cached, so a rerun of the sweep
// simulates that point and only it.
func TestErrorPointRerunsAlone(t *testing.T) {
	cfgs, ws := testGrid(1, 2)
	boom := errors.New("bank exploded")
	var failing atomic.Bool
	failing.Store(true)
	var runs atomic.Int64
	r := fakeRunner(Options{}, func(cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		if failing.Load() && len(b) == 2 { // wl-1 has two benchmarks
			return system.Results{}, boom
		}
		return fakeSim(cfg, b)
	})
	_, err := r.sweep(cfgs, ws)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "config 0, workload wl-1") {
		t.Fatalf("err = %v, want the failing point's error naming config 0, workload wl-1", err)
	}

	failing.Store(false)
	before := runs.Load()
	pts, err := r.sweep(cfgs, ws)
	if err != nil {
		t.Fatalf("rerun still failing: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("rerun returned %d points, want 2", len(pts))
	}
	if n := runs.Load() - before; n != 1 {
		t.Fatalf("rerun simulated %d points, want only the failed one", n)
	}
}
