package sweep

import (
	"context"
	"errors"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

func TestKeyDistinguishesInputs(t *testing.T) {
	base := config.Default()
	other := base
	other.Seed = base.Seed + 1
	k1 := Key(base, []string{"swim"})
	if k1 != Key(base, []string{"swim"}) {
		t.Fatal("key not deterministic")
	}
	if len(k1) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(k1))
	}
	if k1 == Key(other, []string{"swim"}) {
		t.Fatal("seed change did not change key")
	}
	if k1 == Key(base, []string{"mgrid"}) {
		t.Fatal("benchmark change did not change key")
	}
	if Key(base, []string{"swim", "mgrid"}) == Key(base, []string{"mgrid", "swim"}) {
		t.Fatal("benchmark order did not change key")
	}
	budget := base
	budget.MaxInsts = 123
	if k1 == Key(budget, []string{"swim"}) {
		t.Fatal("instruction budget change did not change key")
	}
	if k1 == Key(config.WithAMBPrefetch(base), []string{"swim"}) {
		t.Fatal("config change did not change key")
	}
}

func TestCacheUnbounded(t *testing.T) {
	c := NewCache()
	for i := 0; i < 1000; i++ {
		c.Put(string(rune(i)), system.Results{Cores: i})
	}
	if c.Len() != 1000 {
		t.Fatalf("unbounded cache evicted: len=%d", c.Len())
	}
}

func TestCacheDoErrorNotCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func() (system.Results, error) {
		calls++
		return system.Results{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	res, hit, err := c.Do(context.Background(), "k", func() (system.Results, error) {
		calls++
		return system.Results{Cores: 9}, nil
	})
	if err != nil || hit || res.Cores != 9 {
		t.Fatalf("retry: res=%+v hit=%v err=%v", res, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2 (error must not be cached)", calls)
	}
}

// TestCacheDoCoalescedWaiterSeesError: a Do call that finds an in-flight
// computation for its key observes that computation's error rather than
// running its own fn. White-box: the flight is planted and completed
// directly so the ordering is deterministic.
func TestCacheDoCoalescedWaiterSeesError(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	f := &flight{done: make(chan struct{}), err: boom}
	c.mu.Lock()
	c.flight["k"] = f
	c.mu.Unlock()
	close(f.done)

	_, hit, err := c.Do(context.Background(), "k", func() (system.Results, error) {
		t.Error("waiter ran its own fn despite in-flight computation")
		return system.Results{}, nil
	})
	if !hit {
		t.Error("coalesced waiter not reported as hit")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("waiter saw %v, want boom", err)
	}
}

// TestCacheDoWaiterContextCancel: a waiter whose context expires while the
// flight is still running gives up with ctx.Err().
func TestCacheDoWaiterContextCancel(t *testing.T) {
	c := NewCache()
	f := &flight{done: make(chan struct{})} // never completes
	c.mu.Lock()
	c.flight["k"] = f
	c.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() (system.Results, error) {
		t.Error("cancelled waiter ran fn")
		return system.Results{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
