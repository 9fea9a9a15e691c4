package simserver

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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
