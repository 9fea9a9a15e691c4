package simserver

import (
	"fmt"
	"net/http"
	"strconv"

	"fbdsim/internal/telemetry"
)

// This file is the live-telemetry half of the API: every job and sweep owns
// a telemetry.Stream in the server's hub, fed with lifecycle state events,
// per-epoch samples (traced jobs) and completed grid points (sweeps).
//
//	GET /v1/jobs/{id}/events    SSE stream: state transitions, epoch samples, end
//	GET /v1/jobs/{id}/stats     latest-window JSON snapshot of the epoch series
//	GET /v1/sweeps/{id}/events  SSE stream: state transitions, grid points, end
//
// The SSE wire format is one frame per hub event,
//
//	id: <seq>
//	event: <state|epoch|reset|point|end>
//	data: <json>
//
// where seq is the stream's monotonically increasing sequence number, so a
// reconnecting client can detect gaps. A new subscriber first receives the
// stream's retained history (bounded by the hub's event ring), then live
// events until the entity reaches a terminal state (the "end" event), the
// client disconnects, or the server shuts down. Subscribers that fall
// behind are dropped — never allowed to block the simulation publishing
// into the hub.

// publishState forwards a lifecycle transition to the job's stream.
// Nil-safe so tests that construct bare jobs keep working.
func (j *job) publishState(state State) {
	if j.stream != nil {
		j.stream.PublishState(string(state))
	}
}

// closeStream ends the job's stream with its terminal state.
func (j *job) closeStream(state State) {
	if j.stream != nil {
		j.stream.Close(string(state))
	}
}

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

// handleJobStats serves the latest telemetry window as one JSON document:
// the retained epoch samples (?window=N trims to the most recent N), the
// last published state, and the stream counters. Cheap to poll — one
// lock-scoped copy, no subscription.
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
// as a Last-Event-ID header, and the replay then skips everything at or
// below it — the client sees each event once across any number of
// reconnects (within the hub's retained ring). A reconnect after the
// stream already delivered its terminal event answers 204 No Content: the
// client has everything and should stop reconnecting.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, st *telemetry.Stream) {
	flusher, ok := w.(http.Flusher)
	if !ok {
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
	if lastSeq, closed := st.Terminal(); closed && after >= lastSeq {
		// The stream is terminal and the client already consumed its last
		// event (including "end"); nothing will ever follow.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	// History and live registration are atomic in the hub: nothing is both
	// missing from the replay and absent from the channel.
	replay, sub := st.SubscribeFrom(after)
	defer sub.Cancel()
	for _, ev := range replay {
		if !writeSSE(w, ev) {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				// Stream closed (terminal state already delivered) or this
				// subscriber fell behind and was dropped.
				return
			}
			if !writeSSE(w, ev) {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.shutdownCh:
			// Server shutdown: end the stream promptly instead of holding
			// the HTTP drain hostage until the grace period expires.
			return
		}
	}
}

// writeSSE emits one event frame; false when the client is gone. Data is
// compact JSON (no raw newlines), so a single data: line is always valid.
func writeSSE(w http.ResponseWriter, ev telemetry.Event) bool {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
	return err == nil
}
