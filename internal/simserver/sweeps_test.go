package simserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
)

func postSweep(t *testing.T, ts *httptest.Server, body string) (int, sweepView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v sweepView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

func getSweep(t *testing.T, ts *httptest.Server, id string) (int, sweepView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v sweepView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// waitSweepState polls until the sweep reaches want or the deadline passes.
func waitSweepState(t *testing.T, ts *httptest.Server, id string, want State) sweepView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, v := getSweep(t, ts, id)
		if v.State == string(want) {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	_, v := getSweep(t, ts, id)
	t.Fatalf("sweep %s never reached %q (last state %q)", id, want, v.State)
	return v
}

// readSweepPoints fetches and decodes the NDJSON results stream.
func readSweepPoints(t *testing.T, ts *httptest.Server, id, query string) []sweep.Point {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results Content-Type = %q", ct)
	}
	var pts []sweep.Point
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var p sweep.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestSweepLifecycle runs a 2×2 grid end to end: submission is accepted,
// progress converges, every point streams out, and a job submitted for one
// of the grid points afterwards is a pure cache hit (the shared cache).
func TestSweepLifecycle(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	s, ts := newTestServer(t, Options{Workers: 2, Run: fakeRun(&calls, nil, release)})

	status, v := postSweep(t, ts, `{
		"name": "grid",
		"configs": [{"name": "fbd", "preset": "fbd"}, {"name": "ddr2", "preset": "ddr2"}],
		"workloads": [{"benchmarks": ["swim"]}, {"name": "pair", "benchmarks": ["swim", "applu"]}],
		"seeds": [7]
	}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if v.ID == "" || v.Name != "grid" || v.Fingerprint == "" {
		t.Fatalf("submit view %+v", v)
	}
	if v.Progress.Total != 4 {
		t.Fatalf("total = %d, want 4", v.Progress.Total)
	}

	final := waitSweepState(t, ts, v.ID, StateDone)
	if final.Progress.Completed != 4 || final.Progress.Failed != 0 || final.Points != 4 {
		t.Fatalf("final view %+v", final)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("simulations = %d, want 4 distinct points", got)
	}
	if got := s.Metrics().SweepPoints.Value(); got != 4 {
		t.Errorf("sweep_points_total = %d, want 4", got)
	}
	if got := s.Metrics().SweepsCompleted.Value(); got != 1 {
		t.Errorf("sweeps_completed = %d, want 1", got)
	}

	pts := readSweepPoints(t, ts, v.ID, "")
	if len(pts) != 4 {
		t.Fatalf("streamed %d points, want 4", len(pts))
	}
	seen := map[int]bool{}
	for _, p := range pts {
		if p.Err != "" {
			t.Errorf("point %d failed: %s", p.Index, p.Err)
		}
		if p.Key == "" || p.Config == "" || p.Workload == "" {
			t.Errorf("point missing coordinates: %+v", p)
		}
		seen[p.Index] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Errorf("index %d never streamed", i)
		}
	}

	// The sweep populated the shared cache: an identical job submission
	// must be answered without another simulation.
	status, jv, _ := postJob(t, ts, `{"preset": "fbd", "benchmarks": ["swim"], "seed": 7}`)
	if status != http.StatusOK || !jv.Cached {
		t.Fatalf("post-sweep job: status %d view %+v, want cached hit", status, jv)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("cache hit re-simulated (calls = %d)", got)
	}
}

// TestSweepFollowStreams: a ?follow=1 results stream delivers points as
// they complete and ends when the sweep does.
func TestSweepFollowStreams(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, started, release)})

	_, v := postSweep(t, ts, `{
		"configs": [{"preset": "fbd"}],
		"workloads": [{"benchmarks": ["swim"]}, {"benchmarks": ["applu"]}],
		"parallel": 1
	}`)

	got := make(chan []sweep.Point, 1)
	go func() { got <- readSweepPoints(t, ts, v.ID, "?follow=1") }()

	<-started // first shard is running; the follower is (or will be) waiting
	close(release)

	select {
	case pts := <-got:
		if len(pts) != 2 {
			t.Fatalf("follow streamed %d points, want 2", len(pts))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow stream never terminated")
	}
	waitSweepState(t, ts, v.ID, StateDone)
}

// TestSweepCancel: DELETE stops in-flight shards through the context and
// reports the cancelled state.
func TestSweepCancel(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{}) // never closed: only cancellation stops it
	s, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, started, release)})

	_, v := postSweep(t, ts, `{
		"configs": [{"preset": "fbd"}],
		"workloads": [{"benchmarks": ["swim"]}, {"benchmarks": ["applu"]}],
		"parallel": 1
	}`)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var final sweepView
	_ = json.NewDecoder(resp.Body).Decode(&final)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if final.State != string(StateCancelled) {
		t.Errorf("state after cancel = %q", final.State)
	}
	if c := s.Metrics().SweepsCancelled.Value(); c != 1 {
		t.Errorf("sweeps_cancelled = %d, want 1", c)
	}
	// Cancelled shards are not emitted as points.
	if final.Points >= final.Progress.Total {
		t.Errorf("cancelled sweep emitted %d/%d points", final.Points, final.Progress.Total)
	}
}

// TestSweepValidation: malformed grids are refused at submission with the
// bad_request envelope, before anything runs.
func TestSweepValidation(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, Options{Workers: 1, MaxInsts: 1000, MaxSweepPoints: 8, Run: fakeRun(&calls, nil, release)})

	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"bogus": 1}`},
		{"no configs", `{"workloads": [{"benchmarks": ["swim"]}]}`},
		{"no workloads", `{"configs": [{"preset": "fbd"}]}`},
		{"unknown preset", `{"configs": [{"preset": "ddr9"}], "workloads": [{"benchmarks": ["swim"]}]}`},
		{"bad overlay", `{"configs": [{"config": {"Bogus": 1}}], "workloads": [{"benchmarks": ["swim"]}]}`},
		{"invalid config", `{"configs": [{"config": {"Mem": {"LogicalChannels": 3}}}], "workloads": [{"benchmarks": ["swim"]}]}`},
		{"unknown benchmark", `{"configs": [{"preset": "fbd"}], "workloads": [{"benchmarks": ["nosuch"]}]}`},
		{"empty workload", `{"configs": [{"preset": "fbd"}], "workloads": [{"name": "w", "benchmarks": []}]}`},
		{"duplicate config names", `{"configs": [{"name": "a", "preset": "fbd"}, {"name": "a", "preset": "ddr2"}], "workloads": [{"benchmarks": ["swim"]}]}`},
		{"duplicate seeds", `{"configs": [{"preset": "fbd"}], "workloads": [{"benchmarks": ["swim"]}], "seeds": [3, 3]}`},
		{"over insts cap", `{"configs": [{"preset": "fbd"}], "workloads": [{"benchmarks": ["swim"]}], "max_insts": 100000}`},
		{"over grid cap", `{"configs": [{"preset": "fbd"}], "workloads": [{"benchmarks": ["swim"]}], "seeds": [1,2,3,4,5,6,7,8,9]}`},
	}
	for _, c := range cases {
		status, _ := postSweep(t, ts, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, status)
		}
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("rejected sweeps ran %d simulations", got)
	}
}

// TestSweepSharedCacheAcrossSweeps: two sweeps with an overlapping grid
// point simulate the overlap once.
func TestSweepSharedCacheAcrossSweeps(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, Options{Workers: 2, Run: fakeRun(&calls, nil, release)})

	body := `{"configs": [{"preset": "fbd"}], "workloads": [{"benchmarks": ["swim"]}], "seeds": [5]}`
	_, a := postSweep(t, ts, body)
	waitSweepState(t, ts, a.ID, StateDone)
	_, b := postSweep(t, ts, body)
	final := waitSweepState(t, ts, b.ID, StateDone)

	if got := calls.Load(); got != 1 {
		t.Errorf("overlapping sweeps ran %d simulations, want 1", got)
	}
	if final.Progress.CacheHits != 1 {
		t.Errorf("second sweep cache hits = %d, want 1", final.Progress.CacheHits)
	}
	if a.Fingerprint == "" || a.Fingerprint != final.Fingerprint {
		t.Errorf("identical specs should share a fingerprint: %q vs %q", a.Fingerprint, final.Fingerprint)
	}
}

// TestSweepPointFailuresReported: a deterministically failing point is
// reported in the stream with Err set and counted, and the sweep still
// completes.
func TestSweepPointFailuresReported(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Run: func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
			if benchmarks[0] == "applu" {
				return system.Results{}, fmt.Errorf("model exploded")
			}
			return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks)}, nil
		},
	})

	_, v := postSweep(t, ts, `{
		"configs": [{"preset": "fbd"}],
		"workloads": [{"benchmarks": ["swim"]}, {"benchmarks": ["applu"]}]
	}`)
	final := waitSweepState(t, ts, v.ID, StateDone)
	if final.Progress.Failed != 1 || final.Progress.Completed != 1 {
		t.Fatalf("progress %+v, want 1 completed 1 failed", final.Progress)
	}
	var failed int
	for _, p := range readSweepPoints(t, ts, v.ID, "") {
		if p.Err != "" {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("streamed failed points = %d, want 1", failed)
	}
}
