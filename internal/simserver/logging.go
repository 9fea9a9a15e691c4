package simserver

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the structured access log: AccessLog wraps the API handler
// so every request emits one slog line with method, path, status, bytes,
// duration and a correlation ID — the client's X-Request-ID when it sent
// one, a server-minted one otherwise (echoed back in the response header
// either way). Requests touching a job also carry a job_id attribute, so
// one `grep job-17` joins the access log with the server's lifecycle log
// for that job.

// statusWriter captures the response status and size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Unwrap supports http.ResponseController passthrough.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// reqSeq mints process-unique request IDs for clients that send none.
var reqSeq atomic.Int64

// jobID extracts the job ID a request path addresses, so log lines
// correlate with the lifecycle log. Empty when the path carries none.
func jobID(path string) string {
	const jobs = "/v1/jobs/"
	if !strings.HasPrefix(path, jobs) {
		return ""
	}
	id, _, _ := strings.Cut(path[len(jobs):], "/")
	return id
}

// AccessLog wraps next so every request logs one structured line to
// logger, correlated by request ID (and job ID when addressed).
func AccessLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = fmt.Sprintf("req-%d", reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}

		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(time.Since(start)) / float64(time.Millisecond),
			"request_id", reqID,
		}
		if id := jobID(r.URL.Path); id != "" {
			attrs = append(attrs, "job_id", id)
		}
		logger.Info("http", attrs...)
	})
}
