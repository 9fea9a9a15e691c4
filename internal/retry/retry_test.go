package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDelay(t *testing.T) {
	tests := []struct {
		name    string
		p       Policy
		attempt int
		want    time.Duration
	}{
		{"zero value attempt 1", Policy{}, 1, DefaultInitial},
		{"zero value attempt 2 doubles", Policy{}, 2, 2 * DefaultInitial},
		{"zero value saturates at default max", Policy{}, 20, DefaultMax},
		{"attempt below 1 clamps to 1", Policy{}, 0, DefaultInitial},
		{"negative attempt clamps to 1", Policy{}, -5, DefaultInitial},
		{
			"explicit schedule",
			Policy{Initial: 10 * time.Millisecond, Max: time.Second},
			3,
			40 * time.Millisecond,
		},
		{
			"explicit cap",
			Policy{Initial: 10 * time.Millisecond, Max: 25 * time.Millisecond},
			3,
			25 * time.Millisecond,
		},
		{
			"huge attempt saturates instead of overflowing",
			Policy{Initial: time.Second, Max: time.Minute},
			100000,
			time.Minute,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Delay(tt.attempt); got != tt.want {
				t.Fatalf("Delay(%d) = %v, want %v", tt.attempt, got, tt.want)
			}
		})
	}
}

func TestDelayIsMonotoneUpToCap(t *testing.T) {
	p := Policy{Initial: 7 * time.Millisecond, Max: 500 * time.Millisecond}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 32; attempt++ {
		d := p.Delay(attempt)
		if d < prev {
			t.Fatalf("Delay(%d) = %v < Delay(%d) = %v", attempt, d, attempt-1, prev)
		}
		if d > p.Max {
			t.Fatalf("Delay(%d) = %v exceeds cap %v", attempt, d, p.Max)
		}
		prev = d
	}
	if prev != p.Max {
		t.Fatalf("schedule never reached the cap: last %v, want %v", prev, p.Max)
	}
}

// Jitter must scale the deterministic delay by the injected random value
// and never exceed the pre-jitter envelope.
func TestSleepJitterUsesInjectedRand(t *testing.T) {
	p := Policy{
		Initial: 40 * time.Millisecond,
		Max:     time.Second,
		Jitter:  true,
		Rand:    func() float64 { return 0.25 },
	}
	start := time.Now()
	if err := p.Sleep(context.Background(), 1); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	got := time.Since(start)
	if got < 10*time.Millisecond {
		t.Fatalf("jittered sleep %v shorter than 0.25×Initial = 10ms", got)
	}
	if got > 40*time.Millisecond+500*time.Millisecond {
		t.Fatalf("jittered sleep %v far exceeds the pre-jitter delay", got)
	}
}

// A jitter draw of zero must not hang or sleep: it returns immediately.
func TestSleepZeroJitterReturnsImmediately(t *testing.T) {
	p := Policy{Initial: time.Hour, Max: time.Hour, Jitter: true, Rand: func() float64 { return 0 }}
	start := time.Now()
	if err := p.Sleep(context.Background(), 1); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("zero-jitter sleep took %v, want immediate return", d)
	}
}

func TestSleepHonorsContextCancellation(t *testing.T) {
	p := Policy{Initial: time.Hour, Max: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- p.Sleep(ctx, 1) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Sleep after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancellation")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled Sleep took %v, want prompt return", d)
	}
}
