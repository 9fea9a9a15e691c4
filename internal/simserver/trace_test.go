package simserver

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/memtrace"
	"fbdsim/internal/system"
)

// tracedRun returns a RunFunc whose Results carry a small memtrace summary
// when (and only when) the submitted config enables tracing.
func tracedRun() RunFunc {
	return func(ctx context.Context, tier fidelity.Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
		res := system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}
		if cfg.Trace.Enabled {
			rec := memtrace.New(memtrace.Config{})
			rec.Complete(memtrace.Event{
				ID: 1, Created: 0, Arrived: 2 * clock.Nanosecond,
				Issued: 12 * clock.Nanosecond, CmdAt: 15 * clock.Nanosecond,
				ServiceAt: 35 * clock.Nanosecond, Done: 40 * clock.Nanosecond,
			})
			res.Trace = rec.Summarize(100*clock.Nanosecond, memtrace.Gauges{})
		}
		return res, nil
	}
}

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func TestTraceArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: tracedRun()})
	code, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "trace": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitState(t, ts, v.ID, StateDone)

	code, body, hdr := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content-type = %q", ct)
	}
	if !strings.Contains(body, "traceEvents") {
		t.Errorf("trace body missing traceEvents: %s", body)
	}

	code, body, hdr = getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("timeline = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("timeline content-type = %q", ct)
	}
	if !strings.HasPrefix(body, "start_ns,") {
		t.Errorf("timeline body missing header: %s", body)
	}
}

func TestTraceArtifactErrors(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	_, ts := newTestServer(t, Options{Workers: 1, Run: func(ctx context.Context, tier fidelity.Tier, cfg config.Config, b []string, opts system.Options) (system.Results, error) {
		started <- struct{}{}
		select {
		case <-release:
			return system.Results{Benchmarks: b, IPC: []float64{1}}, nil
		case <-ctx.Done():
			return system.Results{}, ctx.Err()
		}
	}})

	if code, body, _ := getBody(t, ts.URL+"/v1/jobs/nope/trace"); code != http.StatusNotFound {
		t.Errorf("unknown job trace = %d: %s", code, body)
	}

	// A running job: artifacts are not available yet.
	code, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "trace": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	<-started
	if code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/trace"); code != http.StatusConflict {
		t.Errorf("running job trace = %d: %s", code, body)
	}
	close(release)
	waitState(t, ts, v.ID, StateDone)

	// Done, but the fake run ignored the trace flag: 404, not 500.
	if code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/timeline"); code != http.StatusNotFound {
		t.Errorf("untraced job timeline = %d: %s", code, body)
	}
}
