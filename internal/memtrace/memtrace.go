// Package memtrace is the observability layer of the memory pipeline: an
// optionally-enabled, low-overhead event recorder that stamps every memory
// request with a per-stage timestamp as it flows CPU → MSHR → controller
// queue → southbound link → AMB / DRAM bank → northbound return, so that
// each completed request carries a full latency breakdown (where did the
// cycles go: MSHR backpressure, controller queueing, channel contention,
// AMB service, DRAM core). On top of the raw events it maintains
//
//   - per-stage latency histograms, split by AMB hit vs. miss, surfaced in
//     system.Results as p50/p95/p99 breakdowns,
//   - an epoch sampler emitting a fixed-interval time-series of channel /
//     DIMM-bus utilization, queue depth, AMB hit rate and prefetch
//     accuracy (exportable as CSV, renderable with internal/textplot), and
//   - a Chrome trace_event JSON exporter (one track per channel/DIMM/bank,
//     one slice per request stage) loadable in Perfetto or chrome://tracing.
//
// Tracing is nil-safe and off the hot path when disabled: the controller
// holds a *Recorder that is nil unless config.Trace.Enabled, and every
// per-tick touch point is guarded by that single pointer check. The
// disabled-path cost is bounded by BenchmarkTraceDisabled (see DESIGN.md).
package memtrace

import (
	"fmt"
	"io"

	"fbdsim/internal/clock"
	"fbdsim/internal/stats"
	"fbdsim/internal/textplot"
)

// Stage identifies one segment of a request's lifecycle. The stages of a
// request form a partition of its end-to-end latency: adjacent timestamps
// telescope, so the per-stage durations sum exactly to Done - Created.
type Stage int

const (
	// StageMSHR is the time between MSHR allocation in the cache
	// hierarchy and acceptance into the controller's transaction buffer
	// (non-zero only under controller-queue backpressure).
	StageMSHR Stage = iota
	// StageQueue is the time spent in the controller's transaction buffer
	// (arrival to scheduler pick), including the fixed controller
	// pipeline overhead.
	StageQueue
	// StageSouth is the southbound / command path: waiting for a command
	// slot plus propagation to the AMB or DRAM command decoder.
	StageSouth
	// StageAMB is AMB-cache service time on prefetch hits: waiting for an
	// in-flight prefetched line to land (plus the full-latency penalty
	// under FBD-APFL). Zero on misses and writes.
	StageAMB
	// StageDRAM is the DRAM core: bank conflicts, precharge, activation,
	// column access, and DIMM-bus queueing, up to the first data beat.
	// For writes it extends to the last beat written into the array.
	StageDRAM
	// StageNorth is the northbound return: DIMM-bus streaming, northbound
	// frame slots and AMB hop delays until the line is back at the
	// controller. On the DDR2 baseline this is the shared data bus.
	StageNorth

	// NumStages is the number of lifecycle stages.
	NumStages
)

var stageNames = [NumStages]string{"mshr", "queue", "south", "amb", "dram", "north"}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return stageNames[s]
}

// Event is one completed memory request with its lifecycle timestamps.
// Timestamps are simulation time (picoseconds); zero-valued intermediate
// stamps are clamped into [Created, Done] by Breakdown, so a partially
// stamped event still yields a consistent decomposition.
type Event struct {
	ID   int64 `json:"id"`
	Addr int64 `json:"addr"`
	Core int   `json:"core"`

	Write      bool `json:"write,omitempty"`
	SWPrefetch bool `json:"sw_prefetch,omitempty"`
	AMBHit     bool `json:"amb_hit,omitempty"`

	Channel int `json:"channel"`
	DIMM    int `json:"dimm"`
	Bank    int `json:"bank"`

	// Created is MSHR allocation (or writeback generation) in the cache
	// hierarchy; Arrived is acceptance into the controller queue; Issued
	// is the scheduler pick; CmdAt is command arrival at the AMB / DRAM;
	// ServiceAt is the service point (first data beat on the DIMM bus for
	// DRAM accesses, data-ready for AMB hits); Done is data back at the
	// controller (reads) or written into the array (writes).
	Created   clock.Time `json:"created_ps"`
	Arrived   clock.Time `json:"arrived_ps"`
	Issued    clock.Time `json:"issued_ps"`
	CmdAt     clock.Time `json:"cmd_ps"`
	ServiceAt clock.Time `json:"service_ps"`
	Done      clock.Time `json:"done_ps"`
}

// EndToEnd returns the full lifecycle latency, Done - Created, clamped at
// zero. (A write folded into an earlier batch can carry Done < Arrived:
// the channel books the batch from its head's ready time, and late
// joiners complete with it.)
func (e *Event) EndToEnd() clock.Time {
	if e.Done <= e.Created {
		return 0
	}
	return e.Done - e.Created
}

// Breakdown splits the end-to-end latency into per-stage durations. The
// timestamps are clamped to be monotonically non-decreasing within
// [Created, Done], so every duration is non-negative and the durations sum
// to EndToEnd exactly — the invariant TestStageLatenciesSumToEndToEnd
// checks over random workloads.
func (e *Event) Breakdown() [NumStages]clock.Time {
	var bd [NumStages]clock.Time
	clamp := func(t, lo clock.Time) clock.Time {
		if t < lo {
			t = lo
		}
		if t > e.Done {
			t = e.Done
		}
		return t
	}
	t0 := e.Created
	if t0 > e.Done {
		t0 = e.Done
	}
	t1 := clamp(e.Arrived, t0)
	t2 := clamp(e.Issued, t1)
	t3 := clamp(e.CmdAt, t2)
	t4 := clamp(e.ServiceAt, t3)
	bd[StageMSHR] = t1 - t0
	bd[StageQueue] = t2 - t1
	bd[StageSouth] = t3 - t2
	switch {
	case e.Write:
		// A write's service point sits inside the DRAM operation; the
		// whole post-command segment is DRAM-core time.
		bd[StageDRAM] = e.Done - t3
	case e.AMBHit:
		bd[StageAMB] = t4 - t3
		bd[StageNorth] = e.Done - t4
	default:
		bd[StageDRAM] = t4 - t3
		bd[StageNorth] = e.Done - t4
	}
	return bd
}

// Gauges carries the cumulative pipeline counters the controller samples at
// each epoch boundary; the recorder differences consecutive samples to
// produce per-epoch rates and utilizations.
type Gauges struct {
	// QueueDepth is the instantaneous controller buffer occupancy
	// (reads + writes) at the sample point.
	QueueDepth int
	// NorthBusy, SouthBusy, DIMMBusBusy are cumulative link occupancy
	// times summed over channels (DIMMBusBusy over per-DIMM DDR buses).
	NorthBusy, SouthBusy, DIMMBusBusy clock.Time
	// ACT is the cumulative bank-activation count (bank-pressure proxy).
	ACT int64
	// PRE, ColRead and ColWrit are the cumulative precharge and column
	// access counts. Together with ACT they let a consumer difference the
	// Section 5.5 dynamic-energy estimate (internal/power) per epoch.
	PRE, ColRead, ColWrit int64
	// Prefetched and PrefetchHits are the cumulative AMB prefetch fills
	// and hits; their per-epoch ratio is the prefetch accuracy.
	Prefetched, PrefetchHits int64
}

// Config sizes a Recorder. The zero value gets the documented defaults.
type Config struct {
	// Epoch is the time-series sampling interval (default 1 µs).
	Epoch clock.Time
	// MaxEvents bounds the retained per-request events; completions past
	// the cap still feed histograms and epochs but drop their event
	// record (default 65536).
	MaxEvents int
	// MaxEpochs bounds the retained time-series rows (default 8192).
	MaxEpochs int
	// Channels and DIMMBuses are the utilization denominators: logical
	// channels and total per-DIMM DDR buses (default 1 each).
	Channels, DIMMBuses int
}

func (c Config) norm() Config {
	if c.Epoch <= 0 {
		c.Epoch = clock.Microsecond
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 65536
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 8192
	}
	if c.Channels <= 0 {
		c.Channels = 1
	}
	if c.DIMMBuses <= 0 {
		c.DIMMBuses = c.Channels
	}
	return c
}

// Epoch is one fixed-interval sample of the pipeline's behaviour.
type Epoch struct {
	StartNS float64 `json:"start_ns"`
	EndNS   float64 `json:"end_ns"`

	Reads   int64 `json:"reads"`
	Writes  int64 `json:"writes"`
	AMBHits int64 `json:"amb_hits"`
	// AMBHitRate is AMBHits / Reads over the epoch.
	AMBHitRate float64 `json:"amb_hit_rate"`

	// AvgReadLatencyNS is the mean end-to-end latency of reads completed
	// in the epoch; the per-stage means below sum to it exactly.
	AvgReadLatencyNS float64            `json:"avg_read_latency_ns"`
	StageMeanNS      [NumStages]float64 `json:"stage_mean_ns"`

	// QueueDepth is the controller buffer occupancy at the epoch end.
	QueueDepth int `json:"queue_depth"`
	// NorthUtil, SouthUtil, DIMMBusUtil are busy fractions of the
	// northbound (read) path, southbound (write/command) path and the
	// per-DIMM DDR buses over the epoch.
	NorthUtil   float64 `json:"north_util"`
	SouthUtil   float64 `json:"south_util"`
	DIMMBusUtil float64 `json:"dimmbus_util"`

	// ACTs counts bank activations during the epoch; PREs the precharges;
	// ColReads / ColWrites the column accesses. They are the per-epoch
	// inputs of the Section 5.5 dynamic-energy estimate.
	ACTs      int64 `json:"acts"`
	PREs      int64 `json:"pres"`
	ColReads  int64 `json:"col_reads"`
	ColWrites int64 `json:"col_writes"`
	// PrefetchAccuracy is AMB prefetch hits / fills over the epoch
	// (zero when nothing was prefetched).
	PrefetchAccuracy float64 `json:"prefetch_accuracy"`
}

// epochAccum accumulates the current epoch; sums are exact picoseconds so
// the per-stage means provably add up to the end-to-end mean.
type epochAccum struct {
	start         clock.Time
	reads, writes int64
	ambHits       int64
	stageSum      [NumStages]clock.Time
	e2eSum        clock.Time
}

// Recorder collects events, per-stage histograms and the epoch time-series
// for one simulation run. It is single-threaded, like the simulator that
// feeds it. All methods are nil-safe: a nil *Recorder ignores every call,
// which is how tracing is compiled out of the pipeline when disabled.
type Recorder struct {
	cfg Config

	events  []Event
	dropped int64

	// hists[0] = all reads, hists[1] = AMB hits, hists[2] = misses; each
	// row holds NumStages stage histograms plus the end-to-end histogram
	// at index NumStages.
	hists [3][NumStages + 1]stats.Histogram

	writes int64

	start clock.Time
	cur   epochAccum
	prev  Gauges

	epochs        []Epoch
	droppedEpochs int64
}

// New builds a Recorder. The caller seeds the gauge baseline with the first
// ResetMeasurement (or lets it default to zero).
func New(cfg Config) *Recorder {
	c := cfg.norm()
	return &Recorder{
		cfg:    c,
		events: make([]Event, 0, min(c.MaxEvents, 4096)),
	}
}

// Enabled reports whether the recorder is live (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Complete records one finished request. Nil-safe.
func (r *Recorder) Complete(ev Event) {
	if r == nil {
		return
	}
	if len(r.events) < r.cfg.MaxEvents {
		r.events = append(r.events, ev)
	} else {
		r.dropped++
	}
	if ev.Write {
		r.writes++
		r.cur.writes++
		return
	}
	bd := ev.Breakdown()
	sel := 2 // miss
	if ev.AMBHit {
		sel = 1
	}
	for s := 0; s < int(NumStages); s++ {
		r.hists[0][s].Observe(bd[s])
		r.hists[sel][s].Observe(bd[s])
	}
	e2e := ev.EndToEnd()
	r.hists[0][NumStages].Observe(e2e)
	r.hists[sel][NumStages].Observe(e2e)

	r.cur.reads++
	if ev.AMBHit {
		r.cur.ambHits++
	}
	for s := range bd {
		r.cur.stageSum[s] += bd[s]
	}
	r.cur.e2eSum += e2e
}

// NeedSample reports whether the current epoch has run its course at time
// now. Nil-safe (false). The controller calls it once per memory tick —
// together with the nil check this is the entire hot-path cost of tracing.
func (r *Recorder) NeedSample(now clock.Time) bool {
	return r != nil && now >= r.cur.start+r.cfg.Epoch
}

// NextSampleAt returns the time at which the current epoch ends — the
// earliest instant NeedSample will report true. The event-driven system
// loop never fast-forwards past it, so epoch boundaries land on exactly
// the same memory tick as under the reference tick-every-cycle loop.
// Nil-safe (Infinity: a disabled recorder never constrains a skip).
func (r *Recorder) NextSampleAt() clock.Time {
	if r == nil {
		return clock.Infinity
	}
	return r.cur.start + r.cfg.Epoch
}

// Sample closes the current epoch at time now using the cumulative gauges
// g, appends the finished row to the time-series, and opens the next
// epoch. Nil-safe.
func (r *Recorder) Sample(now clock.Time, g Gauges) {
	if r == nil {
		return
	}
	r.flushEpoch(now, g)
	r.prev = g
	r.cur = epochAccum{start: now}
}

// flushEpoch converts the accumulated epoch into a row.
func (r *Recorder) flushEpoch(now clock.Time, g Gauges) {
	span := now - r.cur.start
	if span <= 0 {
		return
	}
	if len(r.epochs) >= r.cfg.MaxEpochs {
		r.droppedEpochs++
		return
	}
	ep := Epoch{
		StartNS:    r.cur.start.Nanoseconds(),
		EndNS:      now.Nanoseconds(),
		Reads:      r.cur.reads,
		Writes:     r.cur.writes,
		AMBHits:    r.cur.ambHits,
		QueueDepth: g.QueueDepth,
		ACTs:       g.ACT - r.prev.ACT,
		PREs:       g.PRE - r.prev.PRE,
		ColReads:   g.ColRead - r.prev.ColRead,
		ColWrites:  g.ColWrit - r.prev.ColWrit,
	}
	if ep.Reads > 0 {
		ep.AMBHitRate = float64(ep.AMBHits) / float64(ep.Reads)
		ep.AvgReadLatencyNS = r.cur.e2eSum.Nanoseconds() / float64(ep.Reads)
		for s := range r.cur.stageSum {
			ep.StageMeanNS[s] = r.cur.stageSum[s].Nanoseconds() / float64(ep.Reads)
		}
	}
	wall := float64(span)
	ep.NorthUtil = float64(g.NorthBusy-r.prev.NorthBusy) / (wall * float64(r.cfg.Channels))
	ep.SouthUtil = float64(g.SouthBusy-r.prev.SouthBusy) / (wall * float64(r.cfg.Channels))
	ep.DIMMBusUtil = float64(g.DIMMBusBusy-r.prev.DIMMBusBusy) / (wall * float64(r.cfg.DIMMBuses))
	if dp := g.Prefetched - r.prev.Prefetched; dp > 0 {
		ep.PrefetchAccuracy = float64(g.PrefetchHits-r.prev.PrefetchHits) / float64(dp)
	}
	r.epochs = append(r.epochs, ep)
}

// ResetMeasurement discards everything recorded so far and restarts the
// trace at time now with gauge baseline g — the system calls it at the
// warmup boundary so the trace covers exactly the measured window that
// Results reports. Nil-safe.
func (r *Recorder) ResetMeasurement(now clock.Time, g Gauges) {
	if r == nil {
		return
	}
	r.events = r.events[:0]
	r.dropped = 0
	r.writes = 0
	for i := range r.hists {
		for j := range r.hists[i] {
			r.hists[i][j] = stats.Histogram{}
		}
	}
	r.epochs = r.epochs[:0]
	r.droppedEpochs = 0
	r.start = now
	r.cur = epochAccum{start: now}
	r.prev = g
}

// StageStats summarizes one lifecycle stage's latency distribution.
type StageStats struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  float64 `json:"p50_ns"`
	P95NS  float64 `json:"p95_ns"`
	P99NS  float64 `json:"p99_ns"`
	MaxNS  float64 `json:"max_ns"`
}

func stageStats(name string, h *stats.Histogram) StageStats {
	return StageStats{
		Stage:  name,
		Count:  h.Count(),
		MeanNS: h.Mean().Nanoseconds(),
		P50NS:  h.Percentile(0.50).Nanoseconds(),
		P95NS:  h.Percentile(0.95).Nanoseconds(),
		P99NS:  h.Percentile(0.99).Nanoseconds(),
		MaxNS:  h.Max().Nanoseconds(),
	}
}

// Summary is the rendered form of a Recorder: everything the CLI and the
// exporters need, JSON-serializable inside system.Results. TraceEvents is
// kept in memory for the exporters but excluded from JSON (it can be
// large; WriteChromeTrace writes it to a file of its own).
type Summary struct {
	// StartNS / EndNS delimit the traced (post-warmup) window.
	StartNS float64 `json:"start_ns"`
	EndNS   float64 `json:"end_ns"`
	EpochNS float64 `json:"epoch_ns"`

	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	// Events / DroppedEvents count retained and capacity-dropped event
	// records; DroppedEpochs counts rows past the MaxEpochs cap.
	Events        int64 `json:"events"`
	DroppedEvents int64 `json:"dropped_events"`
	DroppedEpochs int64 `json:"dropped_epochs"`

	// Breakdown is the per-stage read-latency decomposition over all
	// reads; Hits and Misses split it by AMB-cache outcome. Each list
	// ends with a "total" (end-to-end) row.
	Breakdown []StageStats `json:"breakdown"`
	Hits      []StageStats `json:"hits,omitempty"`
	Misses    []StageStats `json:"misses,omitempty"`

	Epochs []Epoch `json:"epochs,omitempty"`

	TraceEvents []Event `json:"-"`
}

// Summarize closes the trailing partial epoch at time now and renders the
// Summary. Nil-safe (returns nil).
func (r *Recorder) Summarize(now clock.Time, g Gauges) *Summary {
	if r == nil {
		return nil
	}
	r.flushEpoch(now, g)
	r.prev = g
	r.cur = epochAccum{start: now}

	render := func(row *[NumStages + 1]stats.Histogram) []StageStats {
		if row[NumStages].Count() == 0 {
			return nil
		}
		out := make([]StageStats, 0, NumStages+1)
		for s := 0; s < int(NumStages); s++ {
			out = append(out, stageStats(Stage(s).String(), &row[s]))
		}
		out = append(out, stageStats("total", &row[NumStages]))
		return out
	}
	s := &Summary{
		StartNS:       r.start.Nanoseconds(),
		EndNS:         now.Nanoseconds(),
		EpochNS:       r.cfg.Epoch.Nanoseconds(),
		Reads:         r.hists[0][NumStages].Count(),
		Writes:        r.writes,
		Events:        int64(len(r.events)),
		DroppedEvents: r.dropped,
		DroppedEpochs: r.droppedEpochs,
		Breakdown:     render(&r.hists[0]),
		Hits:          render(&r.hists[1]),
		Misses:        render(&r.hists[2]),
		Epochs:        append([]Epoch(nil), r.epochs...),
		TraceEvents:   append([]Event(nil), r.events...),
	}
	return s
}

// Render writes a human-readable report: the per-stage breakdown table
// (split by AMB hit vs. miss) and a textplot timeline of the epoch series.
func (s *Summary) Render(w io.Writer, width int) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "trace window %.0f–%.0f ns: %d reads, %d writes (%d events kept, %d dropped)\n",
		s.StartNS, s.EndNS, s.Reads, s.Writes, s.Events, s.DroppedEvents)
	writeTable := func(title string, rows []StageStats) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		fmt.Fprintf(w, "  %-6s %8s %9s %9s %9s %9s %9s\n",
			"stage", "count", "mean ns", "p50 ns", "p95 ns", "p99 ns", "max ns")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-6s %8d %9.1f %9.1f %9.1f %9.1f %9.1f\n",
				r.Stage, r.Count, r.MeanNS, r.P50NS, r.P95NS, r.P99NS, r.MaxNS)
		}
	}
	writeTable("read latency breakdown (all reads)", s.Breakdown)
	writeTable("AMB-cache hits", s.Hits)
	writeTable("AMB-cache misses / no AMB", s.Misses)

	if len(s.Epochs) > 1 {
		pts := make([]textplot.Point, 0, len(s.Epochs))
		for _, ep := range s.Epochs {
			if ep.Reads > 0 {
				pts = append(pts, textplot.Point{X: ep.EndNS / 1e3, Y: ep.AvgReadLatencyNS, Glyph: 'l'})
			}
		}
		if len(pts) > 1 {
			fmt.Fprintln(w)
			textplot.Scatter(w, "avg read latency over time ('l')", "time (us)", "latency (ns)", pts, 64, 10)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
