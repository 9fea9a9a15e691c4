package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/stats"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
)

// fakeResults is a deterministic stand-in for a simulation: the results
// are a pure function of index, including a populated latency histogram,
// so bit-identity assertions exercise the full Results shape.
func fakeResults(index int) system.Results {
	h := &stats.Histogram{}
	mix := int64(index)*31 + 10_007
	for i := int64(1); i <= 64; i++ {
		h.Observe(clock.Time(mix*i%97_000 + 1))
	}
	return system.Results{
		Benchmarks:       []string{"swim"},
		Cores:            1,
		IPC:              []float64{float64(mix%11+1) / 4},
		Committed:        []int64{10_000},
		Cycles:           30_000 + int64(index),
		Reads:            mix % 5000,
		AvgReadLatencyNS: float64(mix%300) + 0.5,
		LatencyHist:      h,
	}
}

// testPoints returns n completed points in canonical (journal) form.
func testPoints(t *testing.T, n int) []Point {
	t.Helper()
	pts := make([]Point, n)
	for i := range pts {
		res, err := Canonicalize(fakeResults(i))
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = Point{
			Index:    i,
			Config:   fmt.Sprintf("cfg-%d", i/2),
			Workload: fmt.Sprintf("wl-%d", i%2),
			Seed:     1,
			Key:      fmt.Sprintf("key-%d", i),
			Results:  res,
		}
	}
	return pts
}

func testSpec(nConfigs, nWorkloads int) Spec {
	var cfgs []NamedConfig
	for i := 0; i < nConfigs; i++ {
		c := config.Default()
		if i%2 == 1 {
			c = config.WithAMBPrefetch(c)
		}
		cfgs = append(cfgs, NamedConfig{Name: fmt.Sprintf("cfg-%d", i), Config: c})
	}
	var wls []workload.Workload
	for i := 0; i < nWorkloads; i++ {
		wls = append(wls, workload.Workload{
			Name:       fmt.Sprintf("wl-%d", i),
			Benchmarks: []string{"swim", "mgrid"}[:i%2+1],
		})
	}
	return Spec{
		Name:        "test",
		Configs:     cfgs,
		Workloads:   wls,
		Seed:        1,
		MaxInsts:    10_000,
		WarmupInsts: 1_000,
	}
}

// writeJournal opens a fresh journal for spec at path, appends pts and
// closes it.
func writeJournal(t *testing.T, spec Spec, path string, pts []Point) {
	t.Helper()
	j, replayed, err := OpenJournal(path, spec.Name, spec.Fingerprint())
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d points", len(replayed))
	}
	for _, p := range pts {
		j.Append(p)
	}
	j.Close()
}

// replay opens the journal at path for spec, closes it again and returns
// its points in index order; it fails the test if the indices are not
// dense from 0.
func replay(t *testing.T, spec Spec, path string) []Point {
	t.Helper()
	j, byIndex, err := OpenJournal(path, spec.Name, spec.Fingerprint())
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.Close()
	pts := make([]Point, len(byIndex))
	for i := range pts {
		p, ok := byIndex[i]
		if !ok {
			t.Fatalf("replayed %d points but no index %d", len(byIndex), i)
		}
		pts[i] = p
	}
	return pts
}

// TestFingerprintIgnoresExecutionKnobs: the name labels a journal but is
// not part of the grid's identity; the budgets are.
func TestFingerprintIgnoresExecutionKnobs(t *testing.T) {
	a := testSpec(2, 2)
	b := a
	b.Name = "other"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint changed with the sweep name")
	}
	c := a
	c.MaxInsts = 20_000
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint ignored a budget change")
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	s := testSpec(1, 1)
	writeJournal(t, s, path, testPoints(t, 1))

	other := s
	other.MaxInsts = 99_999 // different grid identity, same journal path
	if _, _, err := OpenJournal(path, other.Name, other.Fingerprint()); err == nil || !strings.Contains(err.Error(), "different sweep spec") {
		t.Fatalf("mismatched journal accepted: %v", err)
	}
}

// TestJournalTruncatedTail: a torn final record (the classic kill -9
// mid-write artifact) is discarded; everything before it replays, and the
// record appended again after resume replays with it.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	s := testSpec(2, 2)
	want := testPoints(t, 4)
	writeJournal(t, s, path, want)

	// Tear the journal: chop the last record in half.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-37], 0o644); err != nil {
		t.Fatal(err)
	}

	j, replayed, err := OpenJournal(path, s.Name, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 3 {
		t.Fatalf("replayed %d points, want the 3 before the tear", len(replayed))
	}
	j.Append(want[3]) // the resumed sweep recomputes the torn point
	j.Close()
	if got := replay(t, s, path); !reflect.DeepEqual(got, want) {
		t.Fatal("torn-tail resume diverged from original points")
	}
}

// TestCanonicalizeIsIdentityOnRealRun pins the whole-pipeline property the
// resume guarantee needs: for a real (untraced) simulation, Canonicalize
// is the identity — nothing in Results is lossy under JSON.
func TestCanonicalizeIsIdentityOnRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	cfg := config.Default()
	cfg.MaxInsts = 5_000
	cfg.WarmupInsts = 1_000
	cfg.CPU.Cores = 1
	res, err := system.RunWorkload(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Canonicalize(res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, canon) {
		t.Fatal("canonicalization is not the identity on a real untraced run")
	}
}

// Concurrency smoke: many goroutines share one cache through Do.
func TestCacheConcurrentDo(t *testing.T) {
	c := NewCache()
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Do(context.Background(), "k", func() (system.Results, error) {
				runs.Add(1)
				return system.Results{Cores: 4}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
}
