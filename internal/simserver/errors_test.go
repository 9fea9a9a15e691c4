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
	"time"
)

// doRequest issues one request and decodes the body as the error envelope.
func doRequest(t *testing.T, ts *httptest.Server, method, path, body string) (int, errorView, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var ev errorView
	_ = json.Unmarshal(raw, &ev)
	return resp.StatusCode, ev, raw
}

// TestErrorEnvelope drives every /v1 error path and asserts the one
// uniform envelope: {"error": {"code": ..., "message": ...}} with the
// documented stable code and a non-empty message.
func TestErrorEnvelope(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		Run:        fakeRun(&calls, started, release),
	})

	// A running job (occupies the only worker) for the trace-conflict and
	// queue-full cases.
	_, running, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 1, "trace": true}`)
	<-started
	// Fill the single queue slot so the next submission bounces with 429.
	if status, _, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 2}`); status != http.StatusAccepted {
		t.Fatalf("queue filler not accepted: %d", status)
	}

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"job bad json", "POST", "/v1/jobs", `{`, 400, codeBadRequest},
		{"job unknown field", "POST", "/v1/jobs", `{"bogus": 1}`, 400, codeBadRequest},
		{"job unknown benchmark", "POST", "/v1/jobs", `{"benchmarks": ["nosuch"]}`, 400, codeBadRequest},
		{"job queue full", "POST", "/v1/jobs", `{"benchmarks": ["swim"], "seed": 3}`, 429, codeQueueFull},
		{"job not found", "GET", "/v1/jobs/job-999", "", 404, codeNotFound},
		{"job cancel not found", "DELETE", "/v1/jobs/job-999", "", 404, codeNotFound},
		{"trace not found", "GET", "/v1/jobs/job-999/trace", "", 404, codeNotFound},
		{"trace before done", "GET", "/v1/jobs/" + running.ID + "/trace", "", 409, codeConflict},
		{"timeline before done", "GET", "/v1/jobs/" + running.ID + "/timeline", "", 409, codeConflict},
		{"result not found", "GET", "/v1/results/deadbeef", "", 404, codeNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, ev, raw := doRequest(t, ts, c.method, c.path, c.body)
			if status != c.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, c.wantStatus, raw)
			}
			if ev.Error.Code != c.wantCode {
				t.Errorf("code = %q, want %q (body %s)", ev.Error.Code, c.wantCode, raw)
			}
			if ev.Error.Message == "" {
				t.Errorf("empty error message (body %s)", raw)
			}
			// The envelope is the whole body: no stray top-level fields.
			var top map[string]json.RawMessage
			if err := json.Unmarshal(raw, &top); err != nil {
				t.Fatalf("error body is not a JSON object: %s", raw)
			}
			if len(top) != 1 {
				t.Errorf("error body has %d top-level fields, want only \"error\": %s", len(top), raw)
			}
		})
	}
	close(release)
}

// TestErrorEnvelopeShutdown: submissions after shutdown carry the
// shutting_down code.
func TestErrorEnvelopeShutdown(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	s := New(Options{Workers: 1, Run: fakeRun(&calls, nil, release)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	status, ev, raw := doRequest(t, ts, "POST", "/v1/jobs", `{"benchmarks": ["swim"]}`)
	if status != http.StatusServiceUnavailable || ev.Error.Code != codeShuttingDown {
		t.Errorf("/v1/jobs after shutdown: status %d code %q (body %s)", status, ev.Error.Code, raw)
	}
}
