// Package telemetry is the live-introspection log of the serving layer:
// one append-only Stream per job or sweep, which the running simulation
// publishes into at every epoch boundary and which HTTP handlers (SSE
// streams, the NDJSON follower, the stats endpoint, the dashboard) read out
// of without ever touching the simulation goroutine.
//
// The design, in order:
//
//  1. The publisher never blocks. Publishing appends one event under the
//     stream's mutex and closes a notify channel; it never waits on a
//     reader.
//  2. Readers cannot be dropped. A reader holds only a cursor (the last
//     sequence number it consumed) and asks Since for everything after it,
//     so a slow reader is merely behind, a late one replays the whole
//     history, and a reconnect resumes exactly where it stopped.
//  3. The producers bound the log. memtrace hands the sink at most
//     MaxEpochs rows per measurement window, and a sweep emits one point
//     per grid slot, so the log needs no ring and no drop counters.
//
// Events carry a per-stream sequence number starting at 1, which the SSE
// layer exposes as the event id.
package telemetry

import (
	"encoding/json"
	"sync"
	"time"

	"fbdsim/internal/memtrace"
	"fbdsim/internal/power"
)

// Event types published on a stream.
const (
	// EventState marks a lifecycle transition; Data is {"state": ...}.
	EventState = "state"
	// EventEpoch carries one Sample; Data is the Sample JSON.
	EventEpoch = "epoch"
	// EventReset marks a measurement-window restart (the warmup
	// boundary): every epoch published before it belongs to warmup and is
	// not part of the final exported series.
	EventReset = "reset"
	// EventPoint carries one completed sweep grid point; Data is the
	// point's JSON, one line of the sweep NDJSON endpoint.
	EventPoint = "point"
	// EventEnd is the terminal event of a stream; Data is {"state": ...}.
	// No events follow it.
	EventEnd = "end"
)

// Event is one published stream entry. Data is pre-marshaled at publish
// time so every reader shares one rendering. Events are never modified
// after publication.
type Event struct {
	Seq  int64           `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Sample is one memtrace epoch fused with the serving-side derivations the
// dashboard and SSE clients want next to it: the Section 5.5 dynamic-energy
// delta and the wall-clock simulation speed while the epoch ran.
type Sample struct {
	memtrace.Epoch
	// DynamicEnergy is the epoch's DRAM dynamic-energy delta in
	// column-access units under power.PaperWeights (ACT/PRE pairs
	// weighted 4:1 against column accesses).
	DynamicEnergy float64 `json:"dynamic_energy"`
	// SimCyclesPerSec is simulated CPU cycles in the epoch divided by the
	// wall time since the previous epoch landed — the live analogue of
	// the job view's sim_cycles_per_sec. Zero for the first sample of a
	// window.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// Stream is the append-only event log of one entity plus the epoch samples
// of its current measurement window. The zero value is not usable; call
// NewStream.
type Stream struct {
	id string

	mu sync.Mutex
	// events[i] has Seq i+1.
	events []Event
	// samples holds the epoch samples published since the last reset. A
	// reset starts a fresh slice instead of overwriting this one, so
	// slices handed out by Snapshot stay valid.
	samples []Sample
	// changed is closed, and replaced, by every append.
	changed chan struct{}
	closed  bool
	state   string
	resets  int64
}

// NewStream builds an empty stream keyed by id (the job or sweep ID).
func NewStream(id string) *Stream {
	return &Stream{id: id, changed: make(chan struct{})}
}

// Since returns every event with a sequence number above seq (which must
// not be negative), oldest first; seq 0 returns the whole history. ended
// reports that the stream has published its end event, so a reader that
// has consumed the returned events has everything. Otherwise changed is
// closed by the next publish: wait on it, then call Since again with the
// last sequence number read. Because the events and the channel come from
// one critical section, no event can be missed or delivered twice between
// two calls. The returned slice is shared and must not be modified.
func (st *Stream) Since(seq int64) (events []Event, ended bool, changed <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := int64(len(st.events)); seq < n {
		events = st.events[seq:n:n]
	}
	return events, st.closed, st.changed
}

// publishLocked appends one event and wakes every waiting reader. Caller
// holds st.mu; publishes after the end event are dropped.
func (st *Stream) publishLocked(typ string, data json.RawMessage) {
	if st.closed {
		return
	}
	st.events = append(st.events, Event{Seq: int64(len(st.events)) + 1, Type: typ, Data: data})
	close(st.changed)
	st.changed = make(chan struct{})
}

func marshal(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		// Every published payload is a struct of plain fields; a marshal
		// failure is a programming error, not a runtime condition.
		panic("telemetry: marshal: " + err.Error())
	}
	return b
}

type stateBody struct {
	State string `json:"state"`
}

// PublishState records a lifecycle transition.
func (st *Stream) PublishState(state string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.state = state
	st.publishLocked(EventState, marshal(stateBody{State: state}))
}

// PublishSample records one fused epoch sample: into the stats window and
// onto the log as an epoch event.
func (st *Stream) PublishSample(s Sample) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.samples = append(st.samples, s)
	st.publishLocked(EventEpoch, marshal(&s))
}

// PublishReset empties the stats window (the epochs published so far were
// warmup) and tells readers to do the same.
func (st *Stream) PublishReset() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.samples = nil
	st.resets++
	st.publishLocked(EventReset, marshal(struct {
		Reason string `json:"reason"`
	}{Reason: "measurement_start"}))
}

// PublishPoint records one completed sweep grid point, pre-marshaled by
// the caller.
func (st *Stream) PublishPoint(data json.RawMessage) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.publishLocked(EventPoint, data)
}

// Close publishes the terminal end event carrying finalState. Further
// publishes are no-ops. Safe to call more than once.
func (st *Stream) Close(finalState string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.state = finalState
	st.publishLocked(EventEnd, marshal(stateBody{State: finalState}))
	st.closed = true
}

// Stats is the measurement-window snapshot the polling endpoint serves.
type Stats struct {
	ID    string `json:"id"`
	State string `json:"state,omitempty"`
	// Seq is the last published sequence number; clients comparing it
	// across polls can tell whether anything happened.
	Seq int64 `json:"seq"`
	// Resets counts measurement-window restarts (1 once warmup ended).
	Resets int64 `json:"resets"`
	// Samples is the window since the last reset, oldest first; Latest
	// duplicates its last entry for cheap single-value consumers.
	Samples []Sample `json:"samples,omitempty"`
	Latest  *Sample  `json:"latest,omitempty"`
}

// Snapshot returns the measurement-window view: the newest lastN samples
// since the last reset (0 or negative means all of them) plus the stream
// counters. The samples are shared and must not be modified.
func (st *Stream) Snapshot(lastN int) Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := Stats{ID: st.id, State: st.state, Seq: int64(len(st.events)), Resets: st.resets}
	n := len(st.samples)
	if n == 0 {
		return out
	}
	samples := st.samples[:n:n]
	if lastN > 0 && lastN < n {
		samples = samples[n-lastN:]
	}
	out.Samples = samples
	out.Latest = &samples[len(samples)-1]
	return out
}

// JobSink adapts a Stream to the memtrace.Sink seam, fusing each epoch row
// with the power-model energy delta and the live simulation speed. It runs
// on the simulation goroutine; both methods do a bounded amount of work and
// never block.
type JobSink struct {
	st       *Stream
	weights  power.Weights
	lastWall time.Time
	first    bool
}

// NewJobSink builds a sink publishing into st with the paper's 4:1 energy
// calibration.
func NewJobSink(st *Stream) *JobSink {
	return &JobSink{st: st, weights: power.PaperWeights(), first: true}
}

// EpochSample implements memtrace.Sink.
func (s *JobSink) EpochSample(ep memtrace.Epoch) {
	now := time.Now()
	sample := Sample{Epoch: ep, DynamicEnergy: EpochDynamicEnergy(ep, s.weights)}
	if !s.first {
		if wall := now.Sub(s.lastWall).Seconds(); wall > 0 {
			// 1 ns of simulated time is 4 CPU cycles at the modelled 4 GHz.
			simCycles := (ep.EndNS - ep.StartNS) * 4
			sample.SimCyclesPerSec = simCycles / wall
		}
	}
	s.first = false
	s.lastWall = now
	s.st.PublishSample(sample)
}

// WindowReset implements memtrace.Sink.
func (s *JobSink) WindowReset() {
	s.first = true
	s.st.PublishReset()
}

// EpochDynamicEnergy is the Section 5.5 dynamic-energy delta of one epoch
// in column-access units: ACT/PRE pairs (the larger of the two counts, so
// no event is dropped when rows stay open across the boundary) weighted
// against column accesses.
func EpochDynamicEnergy(ep memtrace.Epoch, w power.Weights) float64 {
	pairs := ep.ACTs
	if ep.PREs > pairs {
		pairs = ep.PREs
	}
	return float64(pairs)*w.ACTPREPair + float64(ep.ColReads+ep.ColWrites)*w.ColumnAccess
}
