package simserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/system"
)

// TestPanicRecovery: a panicking simulation fails its job with the panic
// message, is not retried, and leaves the worker pool healthy enough to
// run the next job.
func TestPanicRecovery(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Run: func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
			if calls.Add(1) == 1 {
				panic("model corrupted its own state")
			}
			return system.Results{Benchmarks: benchmarks}, nil
		},
	})

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 1}`)
	final := waitState(t, ts, v.ID, StateFailed)
	if !strings.Contains(final.Error, "simulation panicked") ||
		!strings.Contains(final.Error, "model corrupted") {
		t.Errorf("failed job error = %q, want the panic message", final.Error)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("runner calls after the panic = %d, want 1 (no retry)", n)
	}

	// The single worker survived: a different job still runs to completion.
	_, v2, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 2}`)
	waitState(t, ts, v2.ID, StateDone)

	// And the server still reports itself live and ready.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s after a panic = %d, want 200", path, resp.StatusCode)
		}
	}
}

func readyStatus(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

// TestReadyz: ready when idle, 503 "saturated" when the queue is full (while
// /healthz stays 200), ready again after draining, 503 "shutting down" after
// Shutdown.
func TestReadyz(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Options{Workers: 1, QueueDepth: 1, Run: fakeRun(&calls, started, release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body := readyStatus(t, ts); status != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("idle readyz = %d %v, want 200 ready", status, body)
	}

	// Fill the worker, then the queue.
	postJob(t, ts, `{"benchmarks": ["swim"], "seed": 1}`)
	<-started
	postJob(t, ts, `{"benchmarks": ["swim"], "seed": 2}`)

	status, body := readyStatus(t, ts)
	if status != http.StatusServiceUnavailable || body["status"] != "saturated" {
		t.Errorf("saturated readyz = %d %v, want 503 saturated", status, body)
	}
	// Liveness is unaffected by saturation.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while saturated = %d, want 200", resp.StatusCode)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if status, _ := readyStatus(t, ts); status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never recovered after the queue drained")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if status, body := readyStatus(t, ts); status != http.StatusServiceUnavailable || body["status"] != "shutting down" {
		t.Errorf("post-shutdown readyz = %d %v, want 503 shutting down", status, body)
	}
}

// TestConcurrentSubmitShutdown races many submissions against Shutdown:
// every submission must resolve to a definite status (202/200/429/503),
// nothing may panic or deadlock, and every accepted job must reach a
// terminal state. Run with -race.
func TestConcurrentSubmitShutdown(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release) // jobs complete instantly
	s := New(Options{Workers: 2, QueueDepth: 4, Run: fakeRun(&calls, nil, release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 24
	var wg sync.WaitGroup
	ids := make([]string, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, v, _ := postJob(t, ts, fmt.Sprintf(`{"benchmarks": ["swim"], "seed": %d}`, i))
			statuses[i], ids[i] = status, v.ID
		}(i)
	}
	// Shut down mid-flight.
	shutdownErr := make(chan error, 1)
	go func() {
		time.Sleep(time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	wg.Wait()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown during submissions: %v", err)
	}

	for i := 0; i < n; i++ {
		switch statuses[i] {
		case http.StatusAccepted, http.StatusOK:
			// Accepted before intake closed: must have drained to a terminal
			// state (done; never stuck queued/running).
			_, v := getJob(t, ts, ids[i])
			if !State(v.State).terminal() {
				t.Errorf("job %s left in state %q after shutdown", ids[i], v.State)
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Backpressure or post-shutdown refusal: both are correct.
		default:
			t.Errorf("submission %d: unexpected status %d", i, statuses[i])
		}
	}
}

// TestConcurrentCancelVsWorker races DELETE against the worker picking the
// job out of the queue: whichever wins, the job ends terminal and the
// runner count matches the jobs that actually started. Run with -race.
func TestConcurrentCancelVsWorker(t *testing.T) {
	for round := 0; round < 10; round++ {
		var calls atomic.Int64
		release := make(chan struct{})
		close(release)
		s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, Run: fakeRun(&calls, nil, release)})

		_, v, _ := postJob(t, ts, fmt.Sprintf(`{"benchmarks": ["swim"], "seed": %d}`, round))
		done := make(chan struct{})
		go func() {
			defer close(done)
			deleteJob(t, ts, v.ID)
		}()
		<-done
		_, final := getJob(t, ts, v.ID)
		if !State(final.State).terminal() {
			t.Fatalf("round %d: job ended in %q", round, final.State)
		}
		// A cancelled-while-queued job must not have run.
		j := s.lookup(v.ID)
		j.mu.Lock()
		started := !j.started.IsZero()
		j.mu.Unlock()
		if final.State == string(StateCancelled) && !started && calls.Load() > 0 {
			t.Fatalf("round %d: job cancelled while queued still ran", round)
		}
	}
}
