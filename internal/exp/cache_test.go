package exp

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

// TestKeyDistinguishesInputs: the request key is deterministic and changes
// with every input that changes Results.
func TestKeyDistinguishesInputs(t *testing.T) {
	k := func(cfg config.Config, benchmarks ...string) requestKey { return key(cfg, benchmarks) }
	base := config.Default()
	other := base
	other.Seed = base.Seed + 1
	k1 := k(base, "swim")
	if k1 != k(base, "swim") {
		t.Fatal("key not deterministic")
	}
	if k1 == k(other, "swim") {
		t.Fatal("seed change did not change key")
	}
	if k1 == k(base, "mgrid") {
		t.Fatal("benchmark change did not change key")
	}
	if k(base, "swim", "mgrid") == k(base, "mgrid", "swim") {
		t.Fatal("benchmark order did not change key")
	}
	budget := base
	budget.MaxInsts = 123
	if k1 == k(budget, "swim") {
		t.Fatal("instruction budget change did not change key")
	}
	if k1 == k(config.WithAMBPrefetch(base), "swim") {
		t.Fatal("config change did not change key")
	}
}

// TestCacheUnbounded: the cache keeps every result, so a thousand distinct
// requests, asked again, simulate nothing.
func TestCacheUnbounded(t *testing.T) {
	r := fakeRunner(Options{}, fakeSim)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 1000; i++ {
			cfg := config.Default()
			cfg.CPU.ROBEntries = 8 + i
			if _, err := r.Run(cfg, []string{"swim"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := r.Summary(); s.Simulations != 1000 || s.CacheHits != 1000 {
		t.Fatalf("summary %+v, want 1000 simulations and 1000 cache hits", s)
	}
}

// TestCacheDoErrorNotCached: a failed simulation is forgotten, so the next
// identical request simulates again.
func TestCacheDoErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	r := fakeRunner(Options{}, func(cfg config.Config, b []string) (system.Results, error) {
		if calls++; calls == 1 {
			return system.Results{}, boom
		}
		return fakeSim(cfg, b)
	})
	if _, err := r.Run(config.Default(), []string{"swim"}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	res, err := r.Run(config.Default(), []string{"swim"})
	if err != nil || res.Cores != 1 {
		t.Fatalf("retry: res=%+v err=%v", res, err)
	}
	if calls != 2 {
		t.Fatalf("simulator called %d times, want 2 (error must not be cached)", calls)
	}
	if s := r.Summary(); s.Simulations != 1 || s.CacheHits != 0 {
		t.Fatalf("summary %+v, want 1 simulation and no cache hit", s)
	}
}

// TestCacheDoCoalescedWaiterSeesError: a request that finds an identical
// simulation in flight observes that simulation's error rather than
// running its own. White-box: the flight is planted and completed directly
// so the ordering is deterministic.
func TestCacheDoCoalescedWaiterSeesError(t *testing.T) {
	r := fakeRunner(Options{}, func(config.Config, []string) (system.Results, error) {
		t.Error("waiter ran its own simulation despite one in flight")
		return system.Results{}, nil
	})
	boom := errors.New("boom")
	b := []string{"swim"}
	f := &flight{done: make(chan struct{}), err: boom}
	r.cache.mu.Lock()
	r.cache.flights[key(r.normalize(config.Default(), len(b)), b)] = f
	r.cache.mu.Unlock()
	close(f.done)

	if _, err := r.Run(config.Default(), b); !errors.Is(err, boom) {
		t.Fatalf("waiter saw %v, want boom", err)
	}
	if s := r.Summary(); s.CacheHits != 1 {
		t.Errorf("coalesced waiter not counted as a cache hit: %+v", s)
	}
}

// TestCacheConcurrentDo: many goroutines asking for one result simulate it
// once.
func TestCacheConcurrentDo(t *testing.T) {
	var runs atomic.Int64
	r := fakeRunner(Options{}, func(cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		return fakeSim(cfg, b)
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(config.Default(), []string{"swim"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("simulated %d times, want 1", runs.Load())
	}
	if s := r.Summary(); s.Simulations != 1 || s.CacheHits != 15 {
		t.Fatalf("summary %+v, want 1 simulation and 15 cache hits", s)
	}
}
