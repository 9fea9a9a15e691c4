package simserver

import (
	"fmt"
	"net/http"
	"strconv"

	"fbdsim/internal/telemetry"
)

// This file is the live-telemetry half of the API: every job and sweep owns
// an append-only telemetry.Stream, fed with lifecycle state events,
// per-epoch samples (traced jobs) and completed grid points (sweeps).
//
//	GET /v1/jobs/{id}/events    SSE stream: state transitions, epoch samples, end
//	GET /v1/jobs/{id}/stats     JSON snapshot of the measured epoch samples
//	GET /v1/sweeps/{id}/events  SSE stream: state transitions, grid points, end
//
// The SSE wire format is one frame per stream event,
//
//	id: <seq>
//	event: <state|epoch|reset|point|end>
//	data: <json>
//
// where seq is the stream's monotonically increasing sequence number. A new
// reader first receives the stream's whole history, then live events until
// the entity reaches a terminal state (the "end" event), the client
// disconnects, or the server shuts down. A reader that falls behind is only
// behind: the publisher never waits for it and it is never dropped.

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	s.serveSSE(w, r, j.stream)
}

func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sj := s.sweepFromPath(w, r)
	if sj == nil {
		return
	}
	s.serveSSE(w, r, sj.stream)
}

// handleJobStats serves the telemetry window as one JSON document: the
// epoch samples published since the last measurement reset (?window=N
// trims to the most recent N), the last published state, and the stream
// counters. Cheap to poll — one lock-scoped read, no subscription.
func (s *Server) handleJobStats(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	window := 0
	if q := r.URL.Query().Get("window"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "window must be a non-negative integer")
			return
		}
		window = n
	}
	writeJSON(w, http.StatusOK, j.stream.Snapshot(window))
}

// serveSSE streams one telemetry stream over Server-Sent Events until the
// stream ends, the client leaves, or the server begins shutdown.
//
// Reconnects resume: every frame carries its sequence number in the id:
// field, browsers and spec-conforming clients echo the last one seen back
// as a Last-Event-ID header, and that number becomes the reader's cursor —
// the client sees each event once across any number of reconnects. A
// reconnect after the stream already delivered its terminal event answers
// 204 No Content: the client has everything and should stop reconnecting.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, st *telemetry.Stream) {
	if _, ok := w.(http.Flusher); !ok {
		writeError(w, http.StatusInternalServerError, codeInternal, "response writer does not support streaming")
		return
	}
	var after int64
	if h := r.Header.Get("Last-Event-ID"); h != "" {
		n, err := strconv.ParseInt(h, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"Last-Event-ID must be a non-negative event sequence number")
			return
		}
		after = n
	}
	if events, ended, _ := st.Since(after); ended && len(events) == 0 {
		// The stream is terminal and the client already consumed its last
		// event (including "end"); nothing will ever follow.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	// Data is compact JSON (no raw newlines), so a single data: line is
	// always valid.
	s.follow(w, r, st, after, true, func(ev telemetry.Event) error {
		_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
		return err
	})
}

// follow hands write every event of st after sequence number seq, oldest
// first, flushing after each batch. With wait it then tails the stream
// until the end event, the client disconnecting or server shutdown;
// without, it stops at the events already published. A write error (the
// client is gone) stops it too.
func (s *Server) follow(w http.ResponseWriter, r *http.Request, st *telemetry.Stream, seq int64, wait bool, write func(telemetry.Event) error) {
	flusher, _ := w.(http.Flusher)
	for {
		events, ended, changed := st.Since(seq)
		for _, ev := range events {
			if write(ev) != nil {
				return
			}
			seq = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ended || !wait {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.shutdownCh:
			// Server shutdown: end the stream promptly instead of holding
			// the HTTP drain hostage until the grace period expires.
			return
		}
	}
}
