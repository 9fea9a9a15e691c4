package sweep

import (
	"context"
	"sync"

	"fbdsim/internal/system"
)

// Cache is a goroutine-safe, unbounded cache of completed simulation
// results with single-flight execution: concurrent Do calls for the same
// key run the simulation once and share the outcome. Its caller, exp.Runner,
// keys it by fidelity.Key for every request (direct runs, sweep points and
// journal replay alike), so one function names a simulation request
// everywhere.
type Cache struct {
	mu     sync.Mutex
	items  map[string]system.Results
	flight map[string]*flight
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	res  system.Results
	err  error
}

// NewCache builds an empty Cache.
func NewCache() *Cache {
	return &Cache{
		items:  make(map[string]system.Results),
		flight: make(map[string]*flight),
	}
}

// Put stores res under key.
func (c *Cache) Put(key string, res system.Results) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items[key] = res
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Do returns the result for key, computing it with fn on a miss. Concurrent
// calls for the same key coalesce onto one fn execution. hit reports whether
// the result came from the cache or an in-flight computation rather than
// this call's own fn.
//
// Errors are never cached: a failed or cancelled computation is forgotten,
// so a later Do with the same key re-runs fn instead of replaying the error
// (waiters already coalesced onto the failed flight do observe its error).
// A waiter whose own ctx expires first returns ctx.Err() without waiting
// further.
func (c *Cache) Do(ctx context.Context, key string, fn func() (system.Results, error)) (res system.Results, hit bool, err error) {
	c.mu.Lock()
	if res, ok := c.items[key]; ok {
		c.mu.Unlock()
		return res, true, nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.res, true, f.err
		case <-ctx.Done():
			return system.Results{}, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()

	f.res, f.err = fn()

	c.mu.Lock()
	delete(c.flight, key)
	if f.err == nil {
		c.items[key] = f.res
	}
	c.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}
