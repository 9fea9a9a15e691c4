package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/sweep"
	"fbdsim/internal/workload"
)

// testRunner returns a runner with tiny budgets and the quick workload set.
func testRunner() *Runner {
	return NewRunner(Options{
		MaxInsts:    60_000,
		WarmupInsts: 8_000,
		Workloads:   QuickWorkloads(),
	})
}

// TestIdleLatencyDecomposition is experiment V1: the model must reproduce
// the paper's idle latencies exactly.
func TestIdleLatencyDecomposition(t *testing.T) {
	l, err := MeasureIdleLatencies()
	if err != nil {
		t.Fatal(err)
	}
	if l.FBDMiss != 63*clock.Nanosecond {
		t.Errorf("FB-DIMM idle miss = %v, want 63ns", l.FBDMiss)
	}
	if l.AMBHit != 33*clock.Nanosecond {
		t.Errorf("AMB hit = %v, want 33ns", l.AMBHit)
	}
	if l.DDR2 != 60*clock.Nanosecond {
		t.Errorf("DDR2 idle miss = %v, want 60ns (Figure 5)", l.DDR2)
	}
	var buf bytes.Buffer
	l.Format(&buf)
	if !strings.Contains(buf.String(), "63") {
		t.Error("Format output missing paper reference")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.norm()
	if o.MaxInsts <= 0 || o.WarmupInsts <= 0 || o.Seed == 0 || o.Parallel <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if len(o.Workloads) != len(workload.All()) {
		t.Errorf("default workload set = %d, want full paper set", len(o.Workloads))
	}
}

func TestQuickWorkloads(t *testing.T) {
	ws := QuickWorkloads()
	cores := map[int]bool{}
	for _, w := range ws {
		cores[w.Cores()] = true
	}
	for _, n := range []int{1, 2, 4, 8} {
		if !cores[n] {
			t.Errorf("quick set missing a %d-core mix", n)
		}
	}
}

// TestRunnerMemoization: identical requests simulate once.
func TestRunnerMemoization(t *testing.T) {
	r := testRunner()
	a, err := r.Run(config.Default(), []string{"vpr"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(config.Default(), []string{"vpr"})
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC[0] != b.IPC[0] {
		t.Error("memoized results differ")
	}
	if r.cache.Len() != 1 {
		t.Errorf("cache entries = %d, want 1", r.cache.Len())
	}
	// A different config is a different entry.
	if _, err := r.Run(config.DDR2Baseline(), []string{"vpr"}); err != nil {
		t.Fatal(err)
	}
	if r.cache.Len() != 2 {
		t.Errorf("cache entries = %d, want 2", r.cache.Len())
	}
}

// TestRunnerSweep: a figure-style grid through the Runner's sweep path —
// distinct configs simulate, identical configs dedup against the shared
// cache, and points come back in grid order.
func TestRunnerSweep(t *testing.T) {
	r := testRunner()
	sp := config.Default()
	nosp := config.Default()
	nosp.CPU.SoftwarePrefetch = false
	pts, err := r.sweep("grid", []sweep.NamedConfig{
		{Name: "sp", Config: sp},
		{Name: "nosp", Config: nosp},
		{Name: "sp-again", Config: sp}, // same content as "sp": must dedup
	}, []workload.Workload{{Name: "1C-vpr", Benchmarks: []string{"vpr"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Index != i || p.Err != "" || p.Results.IPC[0] <= 0 {
			t.Errorf("point %d malformed: %+v", i, p)
		}
	}
	if s := r.Summary(); s.Simulations != 2 {
		t.Errorf("simulations = %d, want 2 (sp-again dedups)", s.Simulations)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	r := testRunner()
	_, err := r.sweep("bad", []sweep.NamedConfig{{Name: "d", Config: config.Default()}},
		[]workload.Workload{{Name: "w", Benchmarks: []string{"nosuch"}}})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Parallel: -1}).Validate(); err == nil {
		t.Error("negative Parallel accepted")
	}
	if err := (Options{MaxInsts: -5}).Validate(); err == nil {
		t.Error("negative MaxInsts accepted")
	}
	if err := (Options{WarmupInsts: -1}).Validate(); err == nil {
		t.Error("negative WarmupInsts accepted")
	}
	if err := (Options{AbortAfterPoints: -2}).Validate(); err == nil {
		t.Error("negative AbortAfterPoints accepted")
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRunner accepted negative parallelism")
		}
	}()
	NewRunner(Options{Parallel: -3})
}

// TestRunnerJournalResume: an aborted journaled suite resumes to results
// identical to an uninterrupted one — the exp-level half of the sweep
// engine's resume guarantee.
func TestRunnerJournalResume(t *testing.T) {
	skipIfShort(t)
	dir := t.TempDir()
	ws := []workload.Workload{
		{Name: "1C-swim", Benchmarks: []string{"swim"}},
		{Name: "1C-vpr", Benchmarks: []string{"vpr"}},
	}
	opts := Options{MaxInsts: 40_000, WarmupInsts: 4_000, Workloads: ws, Parallel: 1}
	grid := func(r *Runner) ([]sweep.Point, error) {
		nosp := config.Default()
		nosp.CPU.SoftwarePrefetch = false
		return r.sweep("resume-grid", []sweep.NamedConfig{
			{Name: "sp", Config: config.Default()},
			{Name: "nosp", Config: nosp},
		}, ws)
	}

	ref, err := grid(NewRunner(opts))
	if err != nil {
		t.Fatal(err)
	}

	abortOpts := opts
	abortOpts.Journal = dir
	abortOpts.AbortAfterPoints = 1
	if _, err := grid(NewRunner(abortOpts)); !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted run err = %v, want ErrAborted", err)
	}

	resumeOpts := opts
	resumeOpts.Journal = dir
	r := NewRunner(resumeOpts)
	got, err := grid(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("resumed suite diverged from uninterrupted run")
	}
	if s := r.Summary(); s.Simulations >= int64(len(ref)) {
		t.Errorf("resume re-simulated everything (%d sims for %d points)", s.Simulations, len(ref))
	}
}

// TestEveryFigureAbortsThroughJournal: each of Figures 4–13, run on its own
// with a journal and AbortAfterPoints 1, writes a journal and stops with
// ErrAborted — the contract behind paperexp's exit code 3 and the
// kill/resume smoke, which holds only for figures that run their
// simulations through the sweep engine.
func TestEveryFigureAbortsThroughJournal(t *testing.T) {
	figures := []struct {
		name string
		run  func(*Runner) error
	}{
		{"Figure4", func(r *Runner) error { _, err := Figure4(r); return err }},
		{"Figure5", func(r *Runner) error { _, err := Figure5(r); return err }},
		{"Figure6", func(r *Runner) error { _, err := Figure6(r); return err }},
		{"Figure7", func(r *Runner) error { _, err := Figure7(r); return err }},
		{"Figure8", func(r *Runner) error { _, err := Figure8(r); return err }},
		{"Figure9", func(r *Runner) error { _, err := Figure9(r); return err }},
		{"Figure10", func(r *Runner) error { _, err := Figure10(r); return err }},
		{"Figure11", func(r *Runner) error { _, err := Figure11(r); return err }},
		{"Figure12", func(r *Runner) error { _, err := Figure12(r); return err }},
		{"Figure13", func(r *Runner) error { _, err := Figure13(r); return err }},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			dir := t.TempDir()
			r := NewRunner(Options{
				MaxInsts:         20_000,
				WarmupInsts:      2_000,
				Parallel:         1,
				Workloads:        []workload.Workload{{Name: "1C-swim", Benchmarks: []string{"swim"}}},
				Journal:          dir,
				AbortAfterPoints: 1,
			})
			if err := fig.run(r); !errors.Is(err, ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted", err)
			}
			if files, err := os.ReadDir(dir); err != nil || len(files) == 0 {
				t.Errorf("no journal written (%v)", err)
			}
		})
	}
}

func TestSpeedupSelfReferenceIsOne(t *testing.T) {
	r := testRunner()
	w := workload.Workload{Name: "1C", Benchmarks: []string{"vpr"}}
	s, err := r.Speedup(config.DDR2Baseline(), w)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1.0 {
		t.Errorf("DDR2 single-core speedup = %g, want exactly 1 (self-reference)", s)
	}
}

// TestFigure7Shape: AMB prefetching helps every quick workload, with no
// negative speedups — the paper's headline claim.
func TestFigure7Shape(t *testing.T) {
	skipIfShort(t)
	r := testRunner()
	d, err := Figure7(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != len(QuickWorkloads()) {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	for _, row := range d.Rows {
		if row.GainPct < 0 {
			t.Errorf("%s: negative AP speedup %.1f%% (paper: none)", row.Workload, row.GainPct)
		}
		if row.FBDAP <= 0 || row.FBD <= 0 {
			t.Errorf("%s: degenerate speedups %+v", row.Workload, row)
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		if g, ok := d.AvgGainPct[n]; ok && (g < 2 || g > 60) {
			t.Errorf("@%d cores: avg gain %.1f%% outside plausible band", n, g)
		}
	}
	var buf bytes.Buffer
	d.Format(&buf)
	if !strings.Contains(buf.String(), "FBD-AP") {
		t.Error("Format output malformed")
	}
}

// TestFigure8Shape: coverage rises with K and respects the (K-1)/K bound;
// efficiency falls with K; associativity helps coverage monotonically.
func TestFigure8Shape(t *testing.T) {
	skipIfShort(t)
	r := testRunner()
	d, err := Figure8(r)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Figure8Row{}
	for _, row := range d.Rows {
		byLabel[row.Variant.Label] = row
		k := row.Variant.RegionLines
		if bound := float64(k-1) / float64(k); row.Coverage > bound+1e-9 {
			t.Errorf("%s: coverage %.3f exceeds bound %.3f", row.Variant.Label, row.Coverage, bound)
		}
	}
	if byLabel["#CL=2"].Coverage >= byLabel["#CL=4 (default)"].Coverage {
		t.Error("coverage should rise from K=2 to K=4")
	}
	if byLabel["#CL=2"].Efficiency <= byLabel["#CL=8"].Efficiency {
		t.Error("efficiency should fall from K=2 to K=8")
	}
	if byLabel["direct-mapped"].Coverage > byLabel["4-way"].Coverage {
		t.Error("higher associativity should not lose coverage")
	}
}

// TestFigure9Shape: both gain sources are non-negative everywhere.
func TestFigure9Shape(t *testing.T) {
	skipIfShort(t)
	r := testRunner()
	d, err := Figure9(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d.Rows {
		if row.APFL < row.FBD*0.98 {
			t.Errorf("@%d cores: APFL %.3f below FBD %.3f", row.Cores, row.APFL, row.FBD)
		}
		if row.AP < row.APFL*0.97 {
			t.Errorf("@%d cores: AP %.3f far below APFL %.3f", row.Cores, row.AP, row.APFL)
		}
	}
}

// TestFigure12Shape: AP+SP ends up at least as fast as either alone, and
// close to additive (complementarity).
func TestFigure12Shape(t *testing.T) {
	skipIfShort(t)
	r := testRunner()
	d, err := Figure12(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d.Rows {
		if row.APSP < row.AP*0.97 || row.APSP < row.SP*0.97 {
			t.Errorf("@%d cores: AP+SP %.3f below its parts (AP %.3f, SP %.3f)",
				row.Cores, row.APSP, row.AP, row.SP)
		}
		if row.AP < 0.98 || row.SP < 0.98 {
			t.Errorf("@%d cores: a prefetching arm lost to no-prefetching (AP %.3f, SP %.3f)",
				row.Cores, row.AP, row.SP)
		}
	}
}

// TestFigure13Shape: AMB prefetching cuts activations everywhere; K=4
// saves dynamic power at low core counts; larger K always spends more
// column accesses.
func TestFigure13Shape(t *testing.T) {
	skipIfShort(t)
	r := testRunner()
	d, err := Figure13(r)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Figure13Row{}
	for _, row := range d.Rows {
		byKey[row.Variant.Label+string(rune(row.Cores))] = row
		if row.ACTRatio >= 1 {
			t.Errorf("@%d %s: activations did not drop (%.3f)", row.Cores, row.Variant.Label, row.ACTRatio)
		}
		if row.ColRatio <= 1 {
			t.Errorf("@%d %s: column accesses did not rise (%.3f)", row.Cores, row.Variant.Label, row.ColRatio)
		}
	}
	for _, cores := range []int{1, 2} {
		if row, ok := byKey["#CL=4"+string(rune(cores))]; ok && row.PowerRatio >= 1 {
			t.Errorf("@%d cores K=4 power ratio %.3f, expected saving", cores, row.PowerRatio)
		}
	}
}

// TestFigure4And5Consistency: Figure 5 reuses Figure 4's runs, so both
// complete from one cache without error and cover every workload.
func TestFigure4And5Consistency(t *testing.T) {
	skipIfShort(t)
	r := testRunner()
	f4, err := Figure4(r)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Figure5(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Rows) != len(QuickWorkloads()) {
		t.Errorf("figure 4 rows = %d", len(f4.Rows))
	}
	if len(f5.Rows) != 2*len(QuickWorkloads()) {
		t.Errorf("figure 5 rows = %d", len(f5.Rows))
	}
	for _, row := range f5.Rows {
		if row.BandwidthGBs <= 0 || row.LatencyNS < 51 {
			t.Errorf("figure 5 row implausible: %+v", row)
		}
	}
}

// TestFigure11DefaultIsUnity: the default variant normalizes to exactly 1.
func TestFigure11DefaultIsUnity(t *testing.T) {
	skipIfShort(t)
	r := testRunner()
	d, err := Figure11(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d.Rows {
		if row.Variant.Label == "#CL=4 (default)" && row.Normalized != 1.0 {
			t.Errorf("@%d cores default normalized = %g, want 1", row.Cores, row.Normalized)
		}
		if row.Normalized < 0.5 || row.Normalized > 1.5 {
			t.Errorf("@%d cores %s: normalized %.3f implausible",
				row.Cores, row.Variant.Label, row.Normalized)
		}
	}
}

// TestRunnerContextCancelDoesNotPoison: a cancelled run returns ctx.Err()
// and is evicted from the memo cache, so the next identical request
// re-simulates successfully.
func TestRunnerContextCancelDoesNotPoison(t *testing.T) {
	r := testRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx, config.Default(), []string{"vpr"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run err = %v, want Canceled", err)
	}
	if entries := r.cache.Len(); entries != 0 {
		t.Fatalf("cancelled entry not evicted (%d cached)", entries)
	}
	res, err := r.RunContext(context.Background(), config.Default(), []string{"vpr"})
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if res.IPC[0] <= 0 {
		t.Error("retry produced an empty result")
	}
}

// TestRunnerSummary: hit/miss counters and simulated wall time accumulate.
func TestRunnerSummary(t *testing.T) {
	r := testRunner()
	if _, err := r.Run(config.Default(), []string{"vpr"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(config.Default(), []string{"vpr"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(config.DDR2Baseline(), []string{"vpr"}); err != nil {
		t.Fatal(err)
	}
	s := r.Summary()
	if s.Simulations != 2 || s.CacheHits != 1 {
		t.Errorf("summary = %+v, want 2 simulations / 1 hit", s)
	}
	if s.SimWall <= 0 {
		t.Error("simulated wall time not recorded")
	}
	var buf bytes.Buffer
	r.LogSummary(&buf)
	if !strings.Contains(buf.String(), "2 simulations, 1 cache hits") {
		t.Errorf("LogSummary output %q", buf.String())
	}
}

// skipIfShort skips simulation-heavy tests under -short so the race-enabled
// CI lane stays fast; the full run is unchanged.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation-heavy test; skipped in -short")
	}
}
