package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/system"
)

func postPause(t *testing.T, ts *httptest.Server, id string) (int, jobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/pause", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

func getCheckpoint(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestPauseCheckpointResume is the end-to-end pause flow against the real
// simulator: pause a running job, download its checkpoint artifact, resume
// it as a new job with {"from_checkpoint": id}, and verify the resumed run's
// results match an unbroken run of the same machine bit for bit.
func TestPauseCheckpointResume(t *testing.T) {
	// The same config the server builds for the submit body below.
	cfg := config.Default()
	cfg.MaxInsts = 2_000_000
	cfg.WarmupInsts = 5_000
	cfg.CPU.Cores = 1
	baseline, err := system.RunWorkload(context.Background(), cfg, []string{"swim"}, system.Options{})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	baseJSON, _ := json.Marshal(baseline)

	// The real simulator retires a short job faster than a poll loop can
	// observe it running, so gate the pause on the run actually starting.
	started := make(chan struct{}, 2)
	run := func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
		started <- struct{}{}
		return system.RunWorkload(ctx, cfg, benchmarks, opts)
	}
	_, ts := newTestServer(t, Options{Workers: 2, Run: run})
	status, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "max_insts": 2000000, "warmup_insts": 5000}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	<-started

	status, pv := postPause(t, ts, v.ID)
	if status != http.StatusOK {
		t.Fatalf("pause: status %d (%+v)", status, pv)
	}
	if pv.State != string(StatePaused) {
		t.Fatalf("pause left job %q, want paused", pv.State)
	}
	if pv.CheckpointBytes == 0 {
		t.Fatalf("paused job reports no checkpoint artifact")
	}
	if pv.Results != nil {
		t.Fatalf("paused job carries results")
	}

	status, data := getCheckpoint(t, ts, v.ID)
	if status != http.StatusOK {
		t.Fatalf("checkpoint fetch: status %d", status)
	}
	if len(data) != pv.CheckpointBytes {
		t.Fatalf("artifact is %d bytes, view said %d", len(data), pv.CheckpointBytes)
	}
	if !bytes.HasPrefix(data, []byte("FBDSNAP\x00")) {
		t.Fatalf("artifact does not start with the snapshot magic: %q", data[:8])
	}

	status, rv, _ := postJob(t, ts, `{"from_checkpoint": "`+v.ID+`"}`)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("resume submit: status %d (%+v)", status, rv)
	}
	if rv.Key != pv.Key {
		t.Fatalf("resumed job key %q differs from source %q", rv.Key, pv.Key)
	}
	final := waitState(t, ts, rv.ID, StateDone)
	if final.Results == nil {
		t.Fatalf("resumed job has no results")
	}
	gotJSON, _ := json.Marshal(final.Results)
	if string(gotJSON) != string(baseJSON) {
		t.Fatalf("resumed run diverged from unbroken run\nbase:    %s\nresumed: %s", baseJSON, gotJSON)
	}
}

// TestPauseAndCheckpointErrors covers the failure surface of the pause API
// with a controllable fake: wrong states, missing jobs, missing artifacts
// and malformed resume requests are all refused with typed envelopes.
func TestPauseAndCheckpointErrors(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Run:     fakeRun(&calls, started, release),
	})

	if status, _ := postPause(t, ts, "job-404"); status != http.StatusNotFound {
		t.Errorf("pause of unknown job: status %d, want 404", status)
	}
	if status, _ := getCheckpoint(t, ts, "job-404"); status != http.StatusNotFound {
		t.Errorf("checkpoint of unknown job: status %d, want 404", status)
	}

	// Occupy the single worker, then queue a second job behind it.
	_, running, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 1}`)
	<-started
	_, queued, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 2}`)

	if status, _ := postPause(t, ts, queued.ID); status != http.StatusConflict {
		t.Errorf("pause of queued job: status %d, want 409", status)
	}
	if status, _ := getCheckpoint(t, ts, running.ID); status != http.StatusConflict {
		t.Errorf("checkpoint of running job: status %d, want 409", status)
	}

	// The fake ignores the checkpoint plumbing, so a pause fired at it
	// resolves when the run completes: the job reports done, not paused.
	close(release)
	done := waitState(t, ts, running.ID, StateDone)
	waitState(t, ts, queued.ID, StateDone)
	if done.CheckpointBytes != 0 {
		t.Errorf("fake run produced a checkpoint artifact")
	}

	if status, _ := postPause(t, ts, running.ID); status != http.StatusConflict {
		t.Errorf("pause of done job: status %d, want 409", status)
	}
	if status, _ := getCheckpoint(t, ts, running.ID); status != http.StatusNotFound {
		t.Errorf("checkpoint of done job without artifact: status %d, want 404", status)
	}

	if status, _, _ := postJob(t, ts, `{"from_checkpoint": "job-404"}`); status != http.StatusNotFound {
		t.Errorf("resume of unknown job: status %d, want 404", status)
	}
	if status, _, _ := postJob(t, ts, `{"from_checkpoint": "`+running.ID+`"}`); status != http.StatusConflict {
		t.Errorf("resume of done job: status %d, want 409", status)
	}
	if status, _, _ := postJob(t, ts, `{"from_checkpoint": "`+running.ID+`", "benchmarks": ["swim"]}`); status != http.StatusBadRequest {
		t.Errorf("resume with config overrides: status %d, want 400", status)
	}
}
