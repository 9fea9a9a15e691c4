package simserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/memtrace"
	"fbdsim/internal/system"
	"fbdsim/internal/telemetry"
)

// This file is the acceptance suite for the live-telemetry API: SSE
// streams deliver lifecycle states, epoch samples and a terminal end
// event; the streamed epoch series is byte-equal to the job's final
// timeline CSV; a late reader replays the whole history; cancel and
// shutdown close streams promptly; a stalled reader never blocks the
// simulation; and the stats/version/dashboard endpoints render what the
// stream holds. Everything here runs under -race.

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id    string
	event string
	data  string
}

// sseReader incrementally parses an SSE response body.
type sseReader struct {
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

// openSSE connects to url with a 10-second deadline so a stream that fails
// to close fails the test instead of hanging it.
func openSSE(t *testing.T, url string) *sseReader {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("SSE status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE Content-Type = %q", ct)
	}
	r := &sseReader{resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(r.close)
	return r
}

func (r *sseReader) close() {
	r.resp.Body.Close()
	r.cancel()
}

// next reads one frame; ok is false when the stream ends.
func (r *sseReader) next(t *testing.T) (sseFrame, bool) {
	t.Helper()
	var f sseFrame
	seen := false
	for {
		line, err := r.br.ReadString('\n')
		if err != nil {
			if seen {
				t.Fatalf("stream ended mid-frame: %v", err)
			}
			return f, false
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				return f, true
			}
		case strings.HasPrefix(line, "id: "):
			f.id, seen = line[len("id: "):], true
		case strings.HasPrefix(line, "event: "):
			f.event, seen = line[len("event: "):], true
		case strings.HasPrefix(line, "data: "):
			f.data, seen = line[len("data: "):], true
		}
	}
}

// collect reads frames until the terminal end event or stream close.
func (r *sseReader) collect(t *testing.T) []sseFrame {
	t.Helper()
	var frames []sseFrame
	for {
		f, ok := r.next(t)
		if !ok {
			return frames
		}
		frames = append(frames, f)
		if f.event == "end" {
			return frames
		}
	}
}

// sinkRun returns a RunFunc that honors the epoch-sink seam the way the
// real system does: when the config enables tracing it drives a genuine
// memtrace.Recorder — one warmup epoch, a measurement reset, three full
// epochs and a trailing partial one — with the run's EpochSink attached, so
// the stream sees exactly the rows the final Summary retains.
func sinkRun() RunFunc {
	return func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
		res := system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}
		if !cfg.Trace.Enabled {
			return res, nil
		}
		rec := memtrace.New(memtrace.Config{})
		rec.SetSink(opts.EpochSink)
		ev := func(id int64, at clock.Time) memtrace.Event {
			return memtrace.Event{
				ID: id, Created: at, Arrived: at + clock.Nanosecond,
				Issued: at + 3*clock.Nanosecond, CmdAt: at + 4*clock.Nanosecond,
				ServiceAt: at + 8*clock.Nanosecond, Done: at + 10*clock.Nanosecond,
			}
		}
		// Warmup traffic the measurement reset discards.
		rec.Complete(ev(1, 5*clock.Nanosecond))
		rec.Sample(50*clock.Nanosecond, memtrace.Gauges{ACT: 2, PRE: 2, ColRead: 1})
		g := memtrace.Gauges{ACT: 4, PRE: 4, ColRead: 2}
		rec.ResetMeasurement(100*clock.Nanosecond, g)

		now := 100 * clock.Nanosecond
		id := int64(10)
		for i := 0; i < 3; i++ {
			rec.Complete(ev(id, now+20*clock.Nanosecond))
			rec.Complete(ev(id+1, now+40*clock.Nanosecond))
			id += 2
			now += 1000 * clock.Nanosecond
			g.ACT += 8
			g.PRE += 7
			g.ColRead += 5
			g.ColWrit += 3
			g.QueueDepth = i + 1
			rec.Sample(now, g)
		}
		rec.Complete(ev(id, now+20*clock.Nanosecond))
		g.ACT += 2
		res.Trace = rec.Summarize(now+500*clock.Nanosecond, g)
		return res, nil
	}
}

// burstRun publishes n epochs through the seam after release, for tests
// that need volume rather than shape.
func burstRun(n int, started chan<- struct{}, release <-chan struct{}) RunFunc {
	return func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
		case <-ctx.Done():
			return system.Results{}, ctx.Err()
		}
		res := system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}
		if cfg.Trace.Enabled {
			rec := memtrace.New(memtrace.Config{MaxEpochs: n + 1})
			rec.SetSink(opts.EpochSink)
			var g memtrace.Gauges
			now := clock.Time(0)
			for i := 0; i < n; i++ {
				now += 1000 * clock.Nanosecond
				g.ACT++
				rec.Sample(now, g)
			}
			res.Trace = rec.Summarize(now+clock.Nanosecond, g)
		}
		return res, nil
	}
}

// TestSSEJobStreamMatchesTimeline is the tentpole acceptance check: a
// traced job's SSE stream carries queued → running → epoch/reset samples →
// end, and the epochs streamed after the measurement reset render to a
// timeline CSV byte-equal to the job's final /timeline artifact.
func TestSSEJobStreamMatchesTimeline(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: sinkRun()})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "trace": true}`)
	waitState(t, ts, v.ID, StateDone)

	// Subscribing after completion must replay the full retained history.
	r := openSSE(t, ts.URL+"/v1/jobs/"+v.ID+"/events")
	frames := r.collect(t)
	if len(frames) == 0 {
		t.Fatal("no frames received")
	}
	if frames[0].event != "state" || !strings.Contains(frames[0].data, "queued") {
		t.Errorf("first frame = %+v, want queued state", frames[0])
	}
	last := frames[len(frames)-1]
	if last.event != "end" || !strings.Contains(last.data, "done") {
		t.Errorf("last frame = %+v, want end/done", last)
	}

	var running, resets int
	lastReset := -1
	prevID := int64(-1)
	for i, f := range frames {
		var seq int64
		if err := json.Unmarshal([]byte(f.id), &seq); err != nil {
			t.Fatalf("frame %d: non-numeric id %q", i, f.id)
		}
		if seq <= prevID {
			t.Fatalf("frame %d: id %d not increasing past %d", i, seq, prevID)
		}
		prevID = seq
		switch f.event {
		case "state":
			if strings.Contains(f.data, "running") {
				running++
			}
		case "reset":
			resets++
			lastReset = i
		}
	}
	if running != 1 {
		t.Errorf("running state events = %d, want 1", running)
	}
	if resets != 1 {
		t.Errorf("reset events = %d, want 1 (one measurement restart)", resets)
	}

	// Epochs after the last reset are the measured window.
	var epochs []memtrace.Epoch
	for _, f := range frames[lastReset+1:] {
		if f.event != "epoch" {
			continue
		}
		var ep memtrace.Epoch
		if err := json.Unmarshal([]byte(f.data), &ep); err != nil {
			t.Fatalf("epoch frame: %v", err)
		}
		epochs = append(epochs, ep)
	}
	if len(epochs) != 4 {
		t.Fatalf("measured epochs streamed = %d, want 4 (3 full + trailing)", len(epochs))
	}

	// Byte-equality with the final artifact: render the streamed series
	// through the same CSV writer and diff against GET /timeline.
	streamed := &memtrace.Summary{Epochs: epochs}
	var got bytes.Buffer
	if err := streamed.WriteTimelineCSV(&got); err != nil {
		t.Fatal(err)
	}
	code, want, _ := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("/timeline status = %d", code)
	}
	if got.String() != want {
		t.Errorf("streamed epochs diverge from final timeline CSV:\n--- streamed ---\n%s\n--- final ---\n%s", got.String(), want)
	}
}

// TestSSELiveFollow proves events flow over a live connection, not only
// via replay: a subscriber attached while the job runs sees the terminal
// event the moment the job is released.
func TestSSELiveFollow(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, started, release)})

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	<-started
	r := openSSE(t, ts.URL+"/v1/jobs/"+v.ID+"/events")

	// Replay delivers the lifecycle so far.
	sawRunning := false
	for !sawRunning {
		f, ok := r.next(t)
		if !ok {
			t.Fatal("stream closed before running state")
		}
		if f.event == "state" && strings.Contains(f.data, "running") {
			sawRunning = true
		}
	}

	close(release)
	for {
		f, ok := r.next(t)
		if !ok {
			t.Fatal("stream closed without end event")
		}
		if f.event == "end" {
			if !strings.Contains(f.data, "done") {
				t.Errorf("end data = %q, want done", f.data)
			}
			break
		}
	}
	if _, ok := r.next(t); ok {
		t.Error("frames after end event")
	}
}

// TestSSECancelClosesStream: DELETE on a running job ends its SSE stream
// promptly with a cancelled end event.
func TestSSECancelClosesStream(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, started, release)})

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	<-started
	r := openSSE(t, ts.URL+"/v1/jobs/"+v.ID+"/events")

	if code, _ := deleteJob(t, ts, v.ID); code != http.StatusOK {
		t.Fatalf("DELETE status = %d", code)
	}

	deadline := time.Now().Add(5 * time.Second)
	sawEnd := false
	for {
		f, ok := r.next(t)
		if !ok {
			break
		}
		if f.event == "end" {
			sawEnd = true
			if !strings.Contains(f.data, "cancelled") {
				t.Errorf("end data = %q, want cancelled", f.data)
			}
		}
	}
	if !sawEnd {
		t.Error("no end event after cancel")
	}
	if time.Now().After(deadline) {
		t.Error("stream did not close promptly after cancel")
	}
}

// TestSSEShutdownClosesStream: server shutdown unblocks live SSE readers
// immediately instead of holding the HTTP drain until the grace deadline.
func TestSSEShutdownClosesStream(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, started, release)})

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	<-started
	r := openSSE(t, ts.URL+"/v1/jobs/"+v.ID+"/events")
	for {
		f, ok := r.next(t)
		if !ok {
			t.Fatal("stream closed before running state")
		}
		if f.event == "state" && strings.Contains(f.data, "running") {
			break
		}
	}

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	closed := time.Now()
	for {
		if _, ok := r.next(t); !ok {
			break
		}
	}
	if elapsed := time.Since(closed); elapsed > 3*time.Second {
		t.Errorf("SSE stream took %v to close after shutdown began", elapsed)
	}
	close(release) // let the drain finish
	<-shutdownDone
}

// TestSSESlowSubscriberDoesNotBlockJob: a subscriber that never reads must
// not stall the simulation feeding its stream — publishing appends to the
// log and never waits on a reader. The assertion is that the job still
// finishes promptly.
func TestSSESlowSubscriberDoesNotBlockJob(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 1, Run: burstRun(500, started, release)})

	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "trace": true}`)
	<-started

	// A subscriber that connects and then never reads the body.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	close(release)
	waitState(t, ts, v.ID, StateDone) // 5s deadline inside
}

// TestJobStatsWindow: the stats endpoint serves the samples published
// since the measurement reset, fused with dynamic energy, and validates
// ?window.
func TestJobStatsWindow(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: sinkRun()})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "trace": true}`)
	waitState(t, ts, v.ID, StateDone)

	var st telemetry.Stats
	code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Resets != 1 {
		t.Errorf("stats state/resets = %q/%d, want done/1", st.State, st.Resets)
	}
	// The measurement reset cleared the warmup epoch, so the window holds
	// exactly the measured series.
	if len(st.Samples) != 4 {
		t.Fatalf("retained samples = %d, want 4", len(st.Samples))
	}
	if st.Latest == nil || st.Latest.StartNS != st.Samples[3].StartNS {
		t.Errorf("latest sample not the newest retained one")
	}
	if st.Samples[0].SimCyclesPerSec != 0 {
		t.Errorf("first post-reset sample rate = %g, want 0 (no prior wall point)", st.Samples[0].SimCyclesPerSec)
	}
	for i, sm := range st.Samples {
		if sm.DynamicEnergy <= 0 {
			t.Errorf("sample %d: dynamic energy %g, want > 0", i, sm.DynamicEnergy)
		}
	}

	code, body, _ = getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/stats?window=2")
	if code != http.StatusOK {
		t.Fatalf("windowed stats status = %d", code)
	}
	var win telemetry.Stats
	if err := json.Unmarshal([]byte(body), &win); err != nil {
		t.Fatal(err)
	}
	if len(win.Samples) != 2 || win.Samples[0].StartNS != st.Samples[2].StartNS {
		t.Errorf("window=2 returned %d samples starting %g, want the newest 2", len(win.Samples), win.Samples[0].StartNS)
	}

	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/stats?window=nope"); code != http.StatusBadRequest {
		t.Errorf("bad window status = %d, want 400", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/nope/stats"); code != http.StatusNotFound {
		t.Errorf("unknown job stats status = %d, want 404", code)
	}
}

// TestSSELateSubscriberReplaysWholeHistory: a reader connecting after a
// traced job finished gets every event from id 1 with no gap, even when the
// job published more events than a 4096-entry ring would hold.
func TestSSELateSubscriberReplaysWholeHistory(t *testing.T) {
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, Options{Workers: 1, Run: burstRun(5000, nil, release)})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "trace": true}`)
	waitState(t, ts, v.ID, StateDone)

	frames := openSSE(t, ts.URL+"/v1/jobs/"+v.ID+"/events").collect(t)
	epochs := 0
	for i, f := range frames {
		if f.id != strconv.Itoa(i+1) {
			t.Fatalf("frame %d has id %q, want %d: the replay has a gap", i, f.id, i+1)
		}
		if f.event == "epoch" {
			epochs++
		}
	}
	// 5000 full epochs plus the trailing partial one Summarize flushes.
	if epochs != 5001 {
		t.Errorf("replayed %d epoch events, want 5001", epochs)
	}
	if last := frames[len(frames)-1]; last.event != "end" {
		t.Errorf("last frame = %+v, want end", last)
	}
}

// TestSSENotFound: event streams for unknown entities are plain 404s, not
// hanging connections.
func TestSSENotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: tracedRun()})
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/nope/events"); code != http.StatusNotFound {
		t.Errorf("job events status = %d, want 404", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/sweeps/nope/events"); code != http.StatusNotFound {
		t.Errorf("sweep events status = %d, want 404", code)
	}
}

// TestSweepSSE: a sweep's stream carries its state, one point event per
// completed grid point (the same JSON documents the NDJSON follower
// serves) and a terminal end event.
func TestSweepSSE(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, Options{Workers: 2, Run: fakeRun(&calls, nil, release)})

	_, v := postSweep(t, ts, `{
		"configs": [{"preset": "fbd"}, {"preset": "fbd-ap"}],
		"workloads": [{"benchmarks": ["swim"]}],
		"seeds": [1]}`)
	waitSweepState(t, ts, v.ID, StateDone)

	r := openSSE(t, ts.URL+"/v1/sweeps/"+v.ID+"/events")
	frames := r.collect(t)

	var points, states int
	for _, f := range frames {
		switch f.event {
		case "point":
			points++
			var m map[string]any
			if err := json.Unmarshal([]byte(f.data), &m); err != nil {
				t.Fatalf("point data: %v", err)
			}
			if _, ok := m["key"]; !ok {
				t.Errorf("point event missing cache key: %s", f.data)
			}
		case "state":
			states++
		}
	}
	if points != 2 {
		t.Errorf("point events = %d, want 2", points)
	}
	if states == 0 {
		t.Error("no state events")
	}
	last := frames[len(frames)-1]
	if last.event != "end" || !strings.Contains(last.data, "done") {
		t.Errorf("last frame = %+v, want end/done", last)
	}
}

// TestSweepSSEPointsMatchNDJSON: the data lines of a sweep's SSE point
// events equal the lines of its ?follow=1 NDJSON stream byte for byte, in
// the same order, for followers attached while the sweep runs.
func TestSweepSSEPointsMatchNDJSON(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 2, Run: fakeRun(&calls, nil, release)})
	_, v := postSweep(t, ts, `{
		"configs": [{"preset": "fbd"}, {"preset": "fbd-ap"}],
		"workloads": [{"benchmarks": ["swim"]}, {"benchmarks": ["applu"]}],
		"seeds": [1]}`)

	sse := openSSE(t, ts.URL+"/v1/sweeps/"+v.ID+"/events")
	ndjson := openSSERaw(t, ts.URL+"/v1/sweeps/"+v.ID+"/results?follow=1", "")
	if ndjson.StatusCode != http.StatusOK {
		t.Fatalf("follow status = %d", ndjson.StatusCode)
	}
	close(release)

	var fromSSE []string
	for _, f := range sse.collect(t) {
		if f.event == "point" {
			fromSSE = append(fromSSE, f.data)
		}
	}
	body, err := io.ReadAll(ndjson.Body) // ends with the sweep
	if err != nil {
		t.Fatal(err)
	}
	fromNDJSON := strings.SplitAfter(string(body), "\n")
	if fromNDJSON[len(fromNDJSON)-1] != "" {
		t.Fatalf("NDJSON stream does not end with a newline: %q", body)
	}
	fromNDJSON = fromNDJSON[:len(fromNDJSON)-1]
	if len(fromSSE) != 4 || len(fromNDJSON) != 4 {
		t.Fatalf("SSE points = %d, NDJSON lines = %d, want 4 each", len(fromSSE), len(fromNDJSON))
	}
	for i := range fromSSE {
		if fromSSE[i]+"\n" != fromNDJSON[i] {
			t.Errorf("point %d differs:\n  SSE:    %s\n  NDJSON: %s", i, fromSSE[i], fromNDJSON[i])
		}
	}
}

// TestSweepFollowEndsAtShutdown: a ?follow=1 tail on a running sweep ends
// when server shutdown begins, like an SSE stream, instead of holding the
// HTTP drain until the sweep finishes.
func TestSweepFollowEndsAtShutdown(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, started, release)})
	_, v := postSweep(t, ts, `{
		"configs": [{"preset": "fbd"}],
		"workloads": [{"benchmarks": ["swim"]}],
		"parallel": 1}`)
	<-started

	tail := openSSERaw(t, ts.URL+"/v1/sweeps/"+v.ID+"/results?follow=1", "")
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	begin := time.Now()
	if _, err := io.ReadAll(tail.Body); err != nil {
		t.Fatalf("follow body: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 3*time.Second {
		t.Errorf("follow tail took %v to end after shutdown began", elapsed)
	}
	close(release) // let the drain finish
	<-shutdownDone
}

// TestVersionAndBuildInfo: /v1/version reports the build, and the metrics
// registry exports build_info plus the native server histograms.
func TestVersionAndBuildInfo(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	_, ts := newTestServer(t, Options{Workers: 1, Run: fakeRun(&calls, nil, release)})

	code, body, _ := getBody(t, ts.URL+"/v1/version")
	if code != http.StatusOK {
		t.Fatalf("/v1/version status = %d", code)
	}
	var ver map[string]any
	if err := json.Unmarshal([]byte(body), &ver); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"version", "go_version", "uptime_seconds"} {
		if _, ok := ver[k]; !ok {
			t.Errorf("/v1/version missing %q: %s", k, body)
		}
	}

	// One finished job populates the queue-wait and run-duration series.
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"]}`)
	waitState(t, ts, v.ID, StateDone)

	code, prom, _ := getBody(t, ts.URL+"/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"# TYPE build_info untyped\nbuild_info{",
		"} 1\n",
		"# TYPE job_queue_wait_seconds histogram",
		`job_queue_wait_seconds_bucket{le="+Inf"} 1`,
		"job_run_seconds_count 1",
		"uptime_seconds",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, prom)
		}
	}
}

// TestDashboard: both renderings of the dashboard include the header and
// the live entities.
func TestDashboard(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: sinkRun()})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "trace": true}`)
	waitState(t, ts, v.ID, StateDone)

	code, txt, hdr := getBody(t, ts.URL+"/v1/dashboard?format=txt")
	if code != http.StatusOK {
		t.Fatalf("dashboard txt status = %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("txt dashboard Content-Type = %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{"fbdserve", v.ID, "done"} {
		if !strings.Contains(txt, want) {
			t.Errorf("txt dashboard missing %q:\n%s", want, txt)
		}
	}

	code, html, hdr := getBody(t, ts.URL+"/v1/dashboard")
	if code != http.StatusOK {
		t.Fatalf("dashboard html status = %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/html") {
		t.Errorf("html dashboard Content-Type = %q", hdr.Get("Content-Type"))
	}
	if !strings.Contains(html, "<pre>") || !strings.Contains(html, v.ID) {
		t.Errorf("html dashboard missing shell or job id")
	}
}

// syncBuffer is a mutex-guarded log sink: the handler goroutine writes it
// while the test goroutine polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogCorrelation: the middleware echoes (or mints) X-Request-ID
// and logs one line per request carrying the correlation attributes.
func TestAccessLogCorrelation(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	s := New(Options{Workers: 1, Run: fakeRun(&calls, nil, release)})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	var logs syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	hs := httptest.NewServer(AccessLog(logger, s.Handler()))
	t.Cleanup(hs.Close)
	srv := hs.URL

	req, _ := http.NewRequest(http.MethodGet, srv+"/v1/jobs/job-99", nil)
	req.Header.Set("X-Request-ID", "corr-abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "corr-abc" {
		t.Errorf("request ID echo = %q, want corr-abc", got)
	}

	resp2, err := http.Get(srv + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "req-") {
		t.Errorf("minted request ID = %q, want req- prefix", got)
	}

	// The handler logs after writing the response; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out := logs.String()
		if strings.Contains(out, `"request_id":"corr-abc"`) &&
			strings.Contains(out, `"job_id":"job-99"`) &&
			strings.Contains(out, `"status":404`) &&
			strings.Contains(out, `"path":"/healthz"`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log missing correlation attributes:\n%s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---------------------------------------------------------------- resume

// openSSERaw connects with an optional Last-Event-ID header and returns
// the raw response; the caller owns status checking and the body.
func openSSERaw(t *testing.T, url, lastEventID string) *http.Response {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// instantRun completes immediately with fixed results.
func instantRun(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
	return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}, nil
}

// TestSSEResumeSkipsConsumedPrefix: a reconnect carrying Last-Event-ID
// resumes after that sequence number instead of replaying the whole
// history, and a reconnect that already saw the terminal event
// gets 204 No Content.
func TestSSEResumeSkipsConsumedPrefix(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: instantRun})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 9}`)
	waitState(t, ts, v.ID, StateDone)
	url := ts.URL + "/v1/jobs/" + v.ID + "/events"

	full := openSSE(t, url).collect(t)
	if len(full) < 2 {
		t.Fatalf("full stream has %d frames, want at least state+end", len(full))
	}
	if last := full[len(full)-1]; last.event != "end" {
		t.Fatalf("stream did not terminate with end: %+v", last)
	}

	// Resume after the first frame: exactly the remainder, same order.
	resp := openSSERaw(t, url, full[0].id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed stream status = %d, want 200", resp.StatusCode)
	}
	r := &sseReader{resp: resp, br: bufio.NewReader(resp.Body), cancel: func() {}}
	resumed := r.collect(t)
	if len(resumed) != len(full)-1 {
		t.Fatalf("resumed stream has %d frames, want %d\nfull: %+v\nresumed: %+v",
			len(resumed), len(full)-1, full, resumed)
	}
	for i, f := range resumed {
		if f != full[i+1] {
			t.Fatalf("resumed frame %d = %+v, want %+v", i, f, full[i+1])
		}
	}

	// The client consumed everything including "end": nothing will follow.
	resp = openSSERaw(t, url, full[len(full)-1].id)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("fully-consumed reconnect = %d, want 204", resp.StatusCode)
	}
}

// TestSSEResumeTerminalSweep pins the 204 path on the sweep events
// endpoint (both endpoints share serveSSE; this guards the wiring).
func TestSSEResumeTerminalSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: instantRun})
	_, v := postSweep(t, ts, `{
		"configs": [{"preset": "fbd"}],
		"workloads": [{"benchmarks": ["swim"]}],
		"max_insts": 10000
	}`)
	waitSweepState(t, ts, v.ID, StateDone)
	url := ts.URL + "/v1/sweeps/" + v.ID + "/events"

	full := openSSE(t, url).collect(t)
	if len(full) == 0 || full[len(full)-1].event != "end" {
		t.Fatalf("sweep stream did not terminate with end: %+v", full)
	}
	resp := openSSERaw(t, url, full[len(full)-1].id)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("fully-consumed sweep reconnect = %d, want 204", resp.StatusCode)
	}
}

// TestSSEBadLastEventID: a malformed resume header is a 400, not a silent
// full replay (the client would double-process every event).
func TestSSEBadLastEventID(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: instantRun})
	_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 10}`)
	waitState(t, ts, v.ID, StateDone)
	url := ts.URL + "/v1/jobs/" + v.ID + "/events"
	for _, bad := range []string{"abc", "-3", "1.5"} {
		resp := openSSERaw(t, url, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Last-Event-ID %q = %d, want 400", bad, resp.StatusCode)
		}
	}
}
