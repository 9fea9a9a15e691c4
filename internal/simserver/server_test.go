package simserver

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
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

// fakeRun builds a controllable RunFunc: it signals each start on started
// (if non-nil), then blocks until release is closed or the context is
// cancelled. calls counts invocations.
func fakeRun(calls *atomic.Int64, started chan<- struct{}, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
		calls.Add(1)
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
			return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}, nil
		case <-ctx.Done():
			return system.Results{}, ctx.Err()
		}
	}
}

// instantEstimates wraps a cycle-accurate fake so that sampled and analytic
// runs return at once without reaching it.
func instantEstimates(run RunFunc) RunFunc {
	return func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
		if tier != "" {
			return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}, nil
		}
		return run(ctx, tier, cfg, benchmarks, opts)
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, jobView, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v, resp.Header
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (int, jobView) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) jobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, v := getJob(t, ts, id)
		if v.State == string(want) {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	_, v := getJob(t, ts, id)
	t.Fatalf("job %s never reached %q (last state %q)", id, want, v.State)
	return v
}

// TestAnalyticFastLaneBypassesQueue pins the two-lane admission contract:
// with the only general worker busy and a cycle-accurate job queued behind
// it, an analytic job still completes, because the fast lane has its own
// worker.
func TestAnalyticFastLaneBypassesQueue(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 2) // one send per cycle-accurate job
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Run:     instantEstimates(fakeRun(&calls, started, release)),
	})

	if code, _, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 1}`); code != http.StatusAccepted {
		t.Fatalf("first cycle-accurate submit: %d", code)
	}
	<-started // the general worker is now busy
	code, queued, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 2}`)
	if code != http.StatusAccepted {
		t.Fatalf("second cycle-accurate submit: %d", code)
	}
	code, est, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 3, "fidelity": "analytic"}`)
	if code != http.StatusAccepted {
		t.Fatalf("analytic submit: %d", code)
	}
	waitState(t, ts, est.ID, StateDone)
	if _, v := getJob(t, ts, queued.ID); v.State != string(StateQueued) {
		t.Errorf("cycle-accurate job behind the busy worker is %q, want queued", v.State)
	}
}

// TestCoalescing32 is acceptance criterion (a): 32 concurrent identical
// submissions run exactly one simulation; the other 31 are coalesced or
// cache hits.
func TestCoalescing32(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 4,
		Run:     fakeRun(&calls, nil, release),
	})

	const n = 32
	body := `{"benchmarks": ["swim"], "seed": 7}`
	statuses := make([]int, n)
	views := make([]jobView, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], views[i], _ = postJob(t, ts, body)
		}(i)
	}
	wg.Wait()
	close(release)

	var firstID, key string
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusAccepted && statuses[i] != http.StatusOK {
			t.Fatalf("submission %d: status %d", i, statuses[i])
		}
		if views[i].ID == "" || views[i].Key == "" {
			t.Fatalf("submission %d: missing id/key: %+v", i, views[i])
		}
		if firstID == "" {
			firstID, key = views[i].ID, views[i].Key
		}
		if views[i].Key != key {
			t.Errorf("submission %d: key %q != %q", i, views[i].Key, key)
		}
	}
	waitState(t, ts, firstID, StateDone)

	if got := calls.Load(); got != 1 {
		t.Errorf("simulations run = %d, want exactly 1", got)
	}
	// Exactly one submission queued a fresh simulation; the other n-1
	// were coalesced onto it or served from the cache.
	shared := 0
	for _, v := range views {
		if v.Coalesced || v.Cached {
			shared++
		}
	}
	if shared != n-1 {
		t.Errorf("coalesced/cached submissions = %d, want %d", shared, n-1)
	}

	// The completed result is servable directly by key ...
	resp, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("results by key: status %d", resp.StatusCode)
	}
	// ... and a fresh identical submission is a pure cache hit.
	status, v, _ := postJob(t, ts, body)
	if status != http.StatusOK || !v.Cached || v.State != string(StateDone) || v.Results == nil {
		t.Errorf("post-completion submit: status %d view %+v", status, v)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("cache hit re-ran the simulation (calls = %d)", got)
	}
}

// TestKeyCanonical: a job's key, which coalescing, the result cache and
// /v1/results/{key} all index by, is a 64-hex digest of the resolved
// request. Spellings that resolve to the same machine and workload share
// it; every input that changes the simulation separates it.
func TestKeyCanonical(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Run:     instantEstimates(fakeRun(&calls, nil, release)),
	})
	key := func(body string) string {
		t.Helper()
		status, v, _ := postJob(t, ts, body)
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit %s: status %d", body, status)
		}
		return v.Key
	}

	base := key(`{"benchmarks": ["swim", "applu"]}`)
	if _, err := hex.DecodeString(base); err != nil || len(base) != 64 {
		t.Fatalf("key %q is not 64 hex chars", base)
	}
	for _, body := range []string{
		`{"benchmarks": ["swim", "applu"]}`,
		`{"preset": "fbd", "seed": 0, "benchmarks": ["swim", "applu"]}`,
		`{"benchmarks": ["swim", "applu"], "fidelity": "cycle-accurate"}`,
	} {
		if got := key(body); got != base {
			t.Errorf("%s: key %s, want %s (same resolved request)", body, got, base)
		}
	}
	for _, v := range []struct{ name, body string }{
		{"benchmark order", `{"benchmarks": ["applu", "swim"]}`},
		{"benchmark set", `{"benchmarks": ["swim"]}`},
		{"seed", `{"benchmarks": ["swim", "applu"], "seed": 99}`},
		{"budget", `{"benchmarks": ["swim", "applu"], "max_insts": 123}`},
		{"config", `{"preset": "fbd-ap", "benchmarks": ["swim", "applu"]}`},
		{"fidelity", `{"benchmarks": ["swim", "applu"], "fidelity": "analytic"}`},
	} {
		if key(v.body) == base {
			t.Errorf("%s: distinct requests share a key", v.name)
		}
	}
}

// TestOpenModeUnchanged: the server checks no credentials. A request that
// carries an Authorization header is served exactly like one without, and
// job views carry no tenant or scheduler-class fields.
func TestOpenModeUnchanged(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, nil, release)})

	do := func(method, path, auth, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	status, raw := do("POST", "/v1/jobs", "Bearer key-anything", `{"benchmarks": ["swim"], "seed": 1}`)
	var v jobView
	if err := json.Unmarshal(raw, &v); status != http.StatusAccepted || err != nil {
		t.Fatalf("submit with a stray token: %d (%s)", status, raw)
	}
	waitState(t, ts, v.ID, StateDone)

	for _, path := range []string{"/v1/jobs/" + v.ID, "/v1/jobs"} {
		plainStatus, plain := do("GET", path, "", "")
		tokenStatus, withToken := do("GET", path, "Bearer key-anything", "")
		if plainStatus != http.StatusOK || tokenStatus != http.StatusOK || !bytes.Equal(plain, withToken) {
			t.Errorf("GET %s: %d %s without a token, %d %s with one; want identical 200s",
				path, plainStatus, plain, tokenStatus, withToken)
		}
	}
	_, raw = do("GET", "/v1/jobs/"+v.ID, "", "")
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"tenant", "class"} {
		if _, ok := fields[k]; ok {
			t.Errorf("job view carries %q: %s", k, raw)
		}
	}
}

// TestQueueFullBackpressure is acceptance criterion (b): a full queue
// returns 429 with a Retry-After header.
func TestQueueFullBackpressure(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 3 * time.Second,
		Run:        fakeRun(&calls, started, release),
	})

	// Job A occupies the single worker ...
	status, _, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 1}`)
	if status != http.StatusAccepted {
		t.Fatalf("job A: status %d", status)
	}
	<-started
	// ... job B fills the queue ...
	status, _, _ = postJob(t, ts, `{"benchmarks": ["swim"], "seed": 2}`)
	if status != http.StatusAccepted {
		t.Fatalf("job B: status %d", status)
	}
	// ... and job C must be rejected with backpressure.
	status, _, hdr := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 3}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("job C: status %d, want 429", status)
	}
	if got := hdr.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	// The rejected submission left no job behind.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list jobsView
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) != 2 {
		t.Errorf("jobs listed after a rejection = %d (%v), want 2", len(list.Jobs), err)
	}
	close(release)
}

// TestCancelRunningJob is acceptance criterion (c) against a fake runner:
// DELETE on a running job returns, with the job terminal, well within
// 100 ms, because cancellation propagates through the context.
func TestCancelRunningJob(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{}) // never closed: only ctx can stop the job
	_, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, started, release)})

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	<-started

	begin := time.Now()
	status, final := deleteJob(t, ts, v.ID)
	elapsed := time.Since(begin)
	if status != http.StatusOK {
		t.Fatalf("DELETE status %d", status)
	}
	if final.State != string(StateCancelled) {
		t.Errorf("state after cancel = %q", final.State)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want < 100ms", elapsed)
	}
	if _, v := getJob(t, ts, v.ID); v.State != string(StateCancelled) {
		t.Errorf("state on a later poll = %q, want cancelled", v.State)
	}
}

// TestCancelRealSimulation is criterion (c) end to end: a genuine
// simulation with a huge instruction budget stops through the context
// plumbing within 100 ms of the DELETE.
func TestCancelRealSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulator cancellation latency; skipped in -short")
	}
	s, ts := newTestServer(t, Options{Workers: 1})
	_ = s
	// A budget far beyond anything that completes in test time.
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "max_insts": 500000000}`)
	waitState(t, ts, v.ID, StateRunning)

	begin := time.Now()
	status, final := deleteJob(t, ts, v.ID)
	elapsed := time.Since(begin)
	if status != http.StatusOK {
		t.Fatalf("DELETE status %d", status)
	}
	if final.State != string(StateCancelled) {
		t.Errorf("state after cancel = %q", final.State)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("real-simulation cancellation took %v, want < 100ms", elapsed)
	}
}

// TestCancelQueuedJob: cancelling a job that never started is immediate
// and the worker skips it.
func TestCancelQueuedJob(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Run: fakeRun(&calls, started, release)})

	postJob(t, ts, `{"benchmarks": ["swim"], "seed": 1}`)
	<-started
	_, queued, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 2}`)
	status, final := deleteJob(t, ts, queued.ID)
	if status != http.StatusOK || final.State != string(StateCancelled) {
		t.Fatalf("cancel queued: status %d state %q", status, final.State)
	}
	close(release)
	// Drain: the worker must not have executed the cancelled job.
	waitState(t, ts, queued.ID, StateCancelled)
	if got := calls.Load(); got != 1 {
		t.Errorf("runner calls = %d, want 1 (cancelled job must be skipped)", got)
	}
}

// TestGracefulShutdownDrains is acceptance criterion (d): shutdown waits
// for in-flight jobs and refuses later submissions.
func TestGracefulShutdownDrains(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Options{Workers: 1, Run: fakeRun(&calls, started, release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Give shutdown a moment to flip intake off, then finish the job.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown errored: %v", err)
	}

	// The in-flight job drained to completion ...
	_, final := getJob(t, ts, v.ID)
	if final.State != string(StateDone) {
		t.Errorf("in-flight job state after shutdown = %q, want done", final.State)
	}
	// ... and a post-shutdown submit is refused.
	status, _, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit status = %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown = %d, want 503", resp.StatusCode)
	}
}

// TestShutdownGraceExpiryCancels: when the grace period lapses, running
// jobs are cancelled rather than awaited forever.
func TestShutdownGraceExpiryCancels(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{}) // never closed
	s := New(Options{Workers: 1, Run: fakeRun(&calls, started, release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	_, final := getJob(t, ts, v.ID)
	if final.State != string(StateCancelled) {
		t.Errorf("job state after forced shutdown = %q, want cancelled", final.State)
	}
}

// TestSubmitValidation rejects malformed requests with 400.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxInsts: 1000})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"bogus": 1, "benchmarks": ["swim"]}`},
		{"no benchmarks", `{"seed": 1}`},
		{"unknown benchmark", `{"benchmarks": ["nosuch"]}`},
		{"unknown preset", `{"preset": "ddr9", "benchmarks": ["swim"]}`},
		{"unknown config field", `{"benchmarks": ["swim"], "config": {"Bogus": 1}}`},
		{"invalid config", `{"benchmarks": ["swim"], "config": {"Mem": {"LogicalChannels": 3}}}`},
		{"over insts cap", `{"benchmarks": ["swim"], "max_insts": 100000}`},
	}
	for _, c := range cases {
		if status, _, _ := postJob(t, ts, c.body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, status)
		}
	}
	// art and mcf are valid for direct runs even though excluded from mixes.
	if status, _, _ := postJob(t, ts, `{"benchmarks": ["art"], "max_insts": 500}`); status != http.StatusAccepted {
		t.Errorf("art: status %d, want 202", status)
	}
}

// TestLookupErrors: unknown ids and keys return 404.
func TestLookupErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if status, _ := getJob(t, ts, "job-999"); status != http.StatusNotFound {
		t.Errorf("get unknown job: %d", status)
	}
	if status, _ := deleteJob(t, ts, "job-999"); status != http.StatusNotFound {
		t.Errorf("delete unknown job: %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/results/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result key: %d", resp.StatusCode)
	}
}

// TestFailedJob: a runner error marks the job failed with its message.
func TestFailedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Run: func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
			return system.Results{}, fmt.Errorf("model exploded")
		},
	})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	final := waitState(t, ts, v.ID, StateFailed)
	if final.Error == "" {
		t.Error("failed job must carry its error")
	}
	if !strings.Contains(final.Error, "model exploded") {
		t.Errorf("failed job error = %q, want the runner's message", final.Error)
	}
	// Failures are not cached: a retry runs again.
	_, v2, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	waitState(t, ts, v2.ID, StateFailed)
}

// TestJobTimeout: the per-job deadline cancels overlong runs.
func TestJobTimeout(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{}) // never closed
	_, ts := newTestServer(t, Options{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		Run:        fakeRun(&calls, nil, release),
	})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	final := waitState(t, ts, v.ID, StateCancelled)
	if final.State != string(StateCancelled) {
		t.Errorf("timed-out job state = %q", final.State)
	}
}

// TestPresets: each preset resolves to a distinct cache key.
func TestPresets(t *testing.T) {
	keys := map[string]bool{}
	for _, preset := range []string{"ddr2", "fbd", "fbd-ap", "fbd-apfl"} {
		var calls atomic.Int64
		release := make(chan struct{})
		close(release)
		_, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, nil, release)})
		_, v, _ := postJob(t, ts, fmt.Sprintf(`{"preset": %q, "benchmarks": ["swim"]}`, preset))
		if v.Key == "" {
			t.Fatalf("%s: no key", preset)
		}
		if keys[v.Key] {
			t.Errorf("%s: key collides with another preset", preset)
		}
		keys[v.Key] = true
	}
}

// TestJobThroughputReporting: a completed job reports its simulation
// throughput (sim cycles / wall second) next to the simulated cycles it is
// derived from.
func TestJobThroughputReporting(t *testing.T) {
	run := func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
		time.Sleep(5 * time.Millisecond) // guarantee a measurable wall time
		return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), Cycles: 2_000_000}, nil
	}
	_, ts := newTestServer(t, Options{Workers: 1, Run: run})

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	done := waitState(t, ts, v.ID, StateDone)
	if done.SimCyclesPerSec <= 0 {
		t.Fatalf("done job reports sim_cycles_per_sec = %v, want > 0", done.SimCyclesPerSec)
	}
	if done.WallMS <= 0 {
		t.Fatalf("done job reports wall_ms = %v, want > 0", done.WallMS)
	}
	// cycles / (wall seconds) must be consistent with the reported wall time.
	want := 2_000_000 / (done.WallMS / 1000)
	if ratio := done.SimCyclesPerSec / want; ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("sim_cycles_per_sec = %v, want about %v", done.SimCyclesPerSec, want)
	}
	if done.Results == nil || done.Results.Cycles != 2_000_000 {
		t.Fatalf("done job results = %+v, want 2000000 cycles", done.Results)
	}
}
