package simserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

// laneRig is a server with one general worker and one fast worker whose
// runs are logged in dispatch order. The first cycle-accurate job parks the
// general worker until unpark; with parkFast, the first analytic job parks
// the fast worker too, so everything submitted afterwards stays queued in
// its lane.
type laneRig struct {
	s       *Server
	ts      *httptest.Server
	release chan struct{}
	once    sync.Once

	mu    sync.Mutex
	order []string // "<tier>/<seed>" per non-blocker run, in dispatch order
}

func newLaneRig(t *testing.T, queueDepth int, parkFast bool) *laneRig {
	t.Helper()
	r := &laneRig{release: make(chan struct{})}
	parked := make(chan struct{}, 2)
	var cycleRuns, tierRuns atomic.Int64
	run := func(ctx context.Context, tier string, blocker bool, cfg config.Config, benchmarks []string) (system.Results, error) {
		if blocker {
			parked <- struct{}{}
			select {
			case <-r.release:
			case <-ctx.Done():
				return system.Results{}, ctx.Err()
			}
		} else {
			r.mu.Lock()
			r.order = append(r.order, fmt.Sprintf("%s/%d", tier, cfg.Seed))
			r.mu.Unlock()
		}
		return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}, nil
	}
	r.s, r.ts = newTestServer(t, Options{
		Workers:     1,
		FastWorkers: 1,
		QueueDepth:  queueDepth,
		Run: func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
			return run(ctx, "cycle", cycleRuns.Add(1) == 1, cfg, benchmarks)
		},
		RunTier: func(ctx context.Context, tier string, cfg config.Config, benchmarks []string) (system.Results, error) {
			return run(ctx, tier, parkFast && tierRuns.Add(1) == 1, cfg, benchmarks)
		},
	})
	// Registered after newTestServer's cleanup, so it runs first: the
	// blockers return before Shutdown waits for the pools.
	t.Cleanup(r.unpark)

	waitParked := func() {
		t.Helper()
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("blocker job never started")
		}
	}
	// Park the general worker first: once it is busy, only the fast worker
	// can pick up the analytic blocker.
	r.mustSubmit(t, `{"benchmarks": ["swim"], "seed": 1}`)
	waitParked()
	if parkFast {
		r.mustSubmit(t, `{"benchmarks": ["swim"], "seed": 1, "fidelity": "analytic"}`)
		waitParked()
	}
	return r
}

func (r *laneRig) unpark() { r.once.Do(func() { close(r.release) }) }

func (r *laneRig) mustSubmit(t *testing.T, body string) jobView {
	t.Helper()
	status, v, _ := postJob(t, r.ts, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, want 202", body, status)
	}
	return v
}

func (r *laneRig) dispatched() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// checkDepths asserts both reporting surfaces of the lane depths: /metrics
// carries queue_depth (FIFO lane) and fast_queue_depth, /readyz the FIFO
// lane's depth against its capacity.
func (r *laneRig) checkDepths(t *testing.T, fifo, fast int) {
	t.Helper()
	resp, err := http.Get(r.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["queue_depth"] != float64(fifo) || m["fast_queue_depth"] != float64(fast) {
		t.Errorf("metrics queue_depth/fast_queue_depth = %v/%v, want %d/%d",
			m["queue_depth"], m["fast_queue_depth"], fifo, fast)
	}
	_, ready := readyStatus(t, r.ts)
	if ready["queue_depth"] != float64(fifo) || ready["queue_capacity"] != float64(cap(r.s.queue)) {
		t.Errorf("readyz queue_depth/queue_capacity = %v/%v, want %d/%d",
			ready["queue_depth"], ready["queue_capacity"], fifo, cap(r.s.queue))
	}
}

// TestSchedulerLaneCapacity: the analytic fast lane and the FIFO lane have
// independent capacity. Each rejects with 429 queue_full once it is full,
// and a full lane never takes room from the other.
func TestSchedulerLaneCapacity(t *testing.T) {
	r := newLaneRig(t, 2, true)
	for seed := 2; seed <= 3; seed++ {
		r.mustSubmit(t, fmt.Sprintf(`{"benchmarks": ["swim"], "seed": %d, "fidelity": "analytic"}`, seed))
		r.mustSubmit(t, fmt.Sprintf(`{"benchmarks": ["swim"], "seed": %d}`, seed))
	}
	for _, c := range []struct{ lane, body string }{
		{"fast", `{"benchmarks": ["swim"], "seed": 4, "fidelity": "analytic"}`},
		{"fifo", `{"benchmarks": ["swim"], "seed": 4}`},
		{"fifo (sampled)", `{"benchmarks": ["swim"], "seed": 5, "fidelity": "sampled"}`},
	} {
		status, ev, raw := doRequest(t, r.ts, "POST", "/v1/jobs", c.body)
		if status != http.StatusTooManyRequests || ev.Error.Code != codeQueueFull {
			t.Errorf("%s lane over capacity: %d %q, want 429 %q (%s)",
				c.lane, status, ev.Error.Code, codeQueueFull, raw)
		}
	}
	if fast, fifo := len(r.s.fastQueue), len(r.s.queue); fast != 2 || fifo != 2 {
		t.Fatalf("depths (fast, fifo) = (%d, %d), want (2, 2)", fast, fifo)
	}
}

// TestSchedulerQueuedCounts: queued jobs are counted per lane — sampled
// and cycle-accurate jobs in the FIFO lane, analytic jobs in the fast lane
// — and both counts fall to zero once the pools drain.
func TestSchedulerQueuedCounts(t *testing.T) {
	r := newLaneRig(t, 16, true)
	var ids []string
	for _, body := range []string{
		`{"benchmarks": ["swim"], "seed": 2}`,
		`{"benchmarks": ["swim"], "seed": 3, "fidelity": "sampled"}`,
		`{"benchmarks": ["swim"], "seed": 4}`,
		`{"benchmarks": ["swim"], "seed": 5, "fidelity": "analytic"}`,
		`{"benchmarks": ["swim"], "seed": 6, "fidelity": "analytic"}`,
	} {
		ids = append(ids, r.mustSubmit(t, body).ID)
	}
	r.checkDepths(t, 3, 2)

	r.unpark()
	for _, id := range ids {
		waitState(t, r.ts, id, StateDone)
	}
	r.checkDepths(t, 0, 0)
}

// TestSchedulerMaxClassFiltering: the fast worker drains only the analytic
// lane. With the general worker busy, an idle fast worker leaves queued
// cycle-accurate and sampled jobs alone yet still serves an analytic job
// submitted after them; the general worker runs the others once free.
func TestSchedulerMaxClassFiltering(t *testing.T) {
	r := newLaneRig(t, 16, false)
	slow := []jobView{
		r.mustSubmit(t, `{"benchmarks": ["swim"], "seed": 2}`),
		r.mustSubmit(t, `{"benchmarks": ["swim"], "seed": 3, "fidelity": "sampled"}`),
	}
	// Give an idle fast worker the chance to take work it must not see.
	time.Sleep(20 * time.Millisecond)
	est := r.mustSubmit(t, `{"benchmarks": ["swim"], "seed": 4, "fidelity": "analytic"}`)
	waitState(t, r.ts, est.ID, StateDone)
	for _, j := range slow {
		if _, v := getJob(t, r.ts, j.ID); v.State != string(StateQueued) {
			t.Errorf("job %s (fidelity %q) is %q while the general worker is busy, want queued",
				j.ID, j.Fidelity, v.State)
		}
	}
	if got, want := r.dispatched(), []string{"analytic/4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}

	r.unpark()
	for _, j := range slow {
		waitState(t, r.ts, j.ID, StateDone)
	}
}

// TestFairnessUnderFlood: a flood of 200 cycle-accurate jobs fills the
// FIFO lane behind a busy general worker, then 20 analytic jobs arrive.
// Every analytic job finishes before a single flood job is dispatched, so
// the analytic queue wait does not grow with the depth of the flood. The
// flood itself is then served first in, first out.
func TestFairnessUnderFlood(t *testing.T) {
	const (
		floodJobs    = 200
		analyticJobs = 20
	)
	r := newLaneRig(t, floodJobs+analyticJobs+8, false)

	flood := make([]string, floodJobs)
	for i := range flood {
		flood[i] = r.mustSubmit(t, fmt.Sprintf(`{"benchmarks": ["swim"], "seed": %d}`, 2+i)).ID
	}
	estimates := make([]string, analyticJobs)
	for i := range estimates {
		estimates[i] = r.mustSubmit(t,
			fmt.Sprintf(`{"benchmarks": ["swim"], "seed": %d, "fidelity": "analytic"}`, 1000+i)).ID
	}
	for _, id := range estimates {
		waitState(t, r.ts, id, StateDone)
	}
	got := r.dispatched()
	for i, d := range got {
		if want := fmt.Sprintf("analytic/%d", 1000+i); d != want {
			t.Fatalf("dispatch %d = %s before the flood moved, want %s", i, d, want)
		}
	}
	if len(got) != analyticJobs {
		t.Fatalf("%d runs dispatched while the flood was parked, want %d analytic", len(got), analyticJobs)
	}
	if n := len(r.s.queue); n != floodJobs {
		t.Fatalf("FIFO lane depth = %d after the analytic jobs, want the whole flood (%d)", n, floodJobs)
	}

	r.unpark()
	for _, id := range flood {
		waitState(t, r.ts, id, StateDone)
	}
	got = r.dispatched()[analyticJobs:]
	for i, d := range got {
		if want := fmt.Sprintf("cycle/%d", 2+i); d != want {
			t.Fatalf("flood dispatch %d = %s, want %s (FIFO order)", i, d, want)
		}
	}
}

// TestAcquireSlotClosedScheduler: sweep points take their slots from the
// sweep's own pool, never from the job lanes, so closing the lanes at
// shutdown does not gate them. Points that acquire the slot after Shutdown
// began still run, and Shutdown drains the sweep in full.
func TestAcquireSlotClosedScheduler(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, SweepParallel: 1, Run: fakeRun(&calls, started, release)})

	status, sv := postSweep(t, ts, `{
		"configs": [{"preset": "fbd"}],
		"workloads": [{"benchmarks": ["swim"]}],
		"seeds": [1, 2, 3]
	}`)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d", status)
	}
	select {
	case <-started: // the first point holds the sweep's only slot
	case <-time.After(5 * time.Second):
		t.Fatal("first sweep point never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, body := readyStatus(t, ts); body["status"] == "shutting down" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never closed intake")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown = %v, want a full drain", err)
	}
	_, final := getSweep(t, ts, sv.ID)
	if final.State != string(StateDone) || final.Progress.Completed != 3 {
		t.Fatalf("sweep after shutdown: state %q, %d/3 points", final.State, final.Progress.Completed)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("simulations = %d, want 3", got)
	}
}
