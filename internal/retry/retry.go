// Package retry provides capped exponential backoff with optional full
// jitter and context-aware sleeping. fbdserve's job-retry loop backs off
// transient failures with it; keeping the policy in its own package keeps
// the cap/jitter/cancellation semantics tested in one place.
package retry

import (
	"context"
	"math"
	"math/rand"
	"time"
)

// Defaults applied by Policy.norm when the corresponding field is zero.
const (
	DefaultInitial    = 50 * time.Millisecond
	DefaultMax        = 2 * time.Second
	DefaultMultiplier = 2.0
)

// Policy describes a capped exponential backoff schedule. The zero value
// is usable and backs off 50ms, 100ms, ... capped at 2s, without jitter.
type Policy struct {
	// Initial is the delay before the first retry (attempt 1).
	Initial time.Duration
	// Max caps the delay; every attempt beyond the cap waits Max.
	Max time.Duration
	// Multiplier is the per-attempt growth factor (values < 1 fall back
	// to the default of 2).
	Multiplier float64
	// Jitter enables "full jitter": each sleep is drawn uniformly from
	// [0, Delay(attempt)), which decorrelates a thundering herd of
	// retriers. Delay itself is never jittered, so callers can reason
	// about the deterministic envelope.
	Jitter bool
	// Rand supplies the jitter source as a func returning [0, 1).
	// Nil uses math/rand's global source; tests inject a fixed value.
	Rand func() float64
}

func (p Policy) norm() Policy {
	if p.Initial <= 0 {
		p.Initial = DefaultInitial
	}
	if p.Max <= 0 {
		p.Max = DefaultMax
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// Delay returns the deterministic (pre-jitter) backoff before retry
// attempt n, 1-based: Initial*Multiplier^(n-1), saturating at Max.
// Attempts below 1 are treated as 1; overflow saturates at Max.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.norm()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.Initial) * math.Pow(p.Multiplier, float64(attempt-1))
	if !(d < float64(p.Max)) { // catches NaN, +Inf and plain overflow
		return p.Max
	}
	return time.Duration(d)
}

// Sleep waits out the backoff before retry attempt n (jittered when
// Policy.Jitter is set) or until ctx ends, whichever comes first. It
// returns nil after a full sleep and ctx.Err() when cancelled, so the
// caller's retry loop reads `if p.Sleep(ctx, n) != nil { return }`.
func (p Policy) Sleep(ctx context.Context, attempt int) error {
	p = p.norm()
	d := p.Delay(attempt)
	if p.Jitter {
		d = time.Duration(p.Rand() * float64(d))
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do calls fn until it succeeds, sleeping the policy's backoff between
// failures. attempts caps the number of calls (<= 0 means retry until
// ctx ends). It returns nil on the first success; ctx.Err() if the
// context ends first; otherwise the last error once attempts is spent.
func Do(ctx context.Context, p Policy, attempts int, fn func() error) error {
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if last = fn(); last == nil {
			return nil
		}
		if attempts > 0 && attempt >= attempts {
			return last
		}
		if err := p.Sleep(ctx, attempt); err != nil {
			return err
		}
	}
}
