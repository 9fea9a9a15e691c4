package memtrace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"fbdsim/internal/clock"
)

const ns = clock.Nanosecond

// readEvent builds a well-ordered read miss: 2 ns MSHR wait, 10 ns queue,
// 3 ns southbound, 20 ns DRAM, 5 ns northbound.
func readEvent(id int64) Event {
	base := clock.Time(id) * 100 * ns
	return Event{
		ID:        id,
		Addr:      id * 64,
		Created:   base,
		Arrived:   base + 2*ns,
		Issued:    base + 12*ns,
		CmdAt:     base + 15*ns,
		ServiceAt: base + 35*ns,
		Done:      base + 40*ns,
	}
}

func TestBreakdownTelescopes(t *testing.T) {
	ev := readEvent(1)
	bd := ev.Breakdown()
	var sum clock.Time
	for _, d := range bd {
		if d < 0 {
			t.Fatalf("negative stage duration %v in %v", d, bd)
		}
		sum += d
	}
	if sum != ev.EndToEnd() {
		t.Fatalf("stage sum %v != end-to-end %v", sum, ev.EndToEnd())
	}
	if bd[StageMSHR] != 2*ns || bd[StageQueue] != 10*ns || bd[StageSouth] != 3*ns ||
		bd[StageDRAM] != 20*ns || bd[StageNorth] != 5*ns || bd[StageAMB] != 0 {
		t.Errorf("breakdown = %v", bd)
	}
}

func TestBreakdownAMBHitUsesAMBStage(t *testing.T) {
	ev := readEvent(1)
	ev.AMBHit = true
	bd := ev.Breakdown()
	if bd[StageDRAM] != 0 {
		t.Errorf("AMB hit must not charge the dram stage: %v", bd)
	}
	if bd[StageAMB] != 20*ns {
		t.Errorf("AMB stage = %v, want 20ns", bd[StageAMB])
	}
}

func TestBreakdownWriteFoldsTail(t *testing.T) {
	ev := readEvent(1)
	ev.Write = true
	bd := ev.Breakdown()
	var sum clock.Time
	for _, d := range bd {
		sum += d
	}
	if sum != ev.EndToEnd() {
		t.Fatalf("write stage sum %v != end-to-end %v", sum, ev.EndToEnd())
	}
	if bd[StageNorth] != 0 {
		t.Errorf("writes have no northbound return: %v", bd)
	}
}

// TestBreakdownClampsDisorderedStamps is the safety property: whatever
// garbage the stamps hold (zero, reversed, beyond Done), every stage is
// non-negative and the telescoped sum still equals Done-Created (clamped).
func TestBreakdownClampsDisorderedStamps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		ev := Event{
			Created:   clock.Time(rng.Intn(100)) * ns,
			Arrived:   clock.Time(rng.Intn(100)) * ns,
			Issued:    clock.Time(rng.Intn(100)) * ns,
			CmdAt:     clock.Time(rng.Intn(100)) * ns,
			ServiceAt: clock.Time(rng.Intn(100)) * ns,
			Done:      clock.Time(rng.Intn(100)) * ns,
			AMBHit:    rng.Intn(2) == 0,
			Write:     rng.Intn(3) == 0,
		}
		bd := ev.Breakdown()
		var sum clock.Time
		for s, d := range bd {
			if d < 0 {
				t.Fatalf("case %d: stage %v negative: %v (ev %+v)", i, Stage(s), d, ev)
			}
			sum += d
		}
		want := ev.Done - ev.Created
		if want < 0 {
			want = 0
		}
		if sum != want {
			t.Fatalf("case %d: sum %v != clamped e2e %v (ev %+v)", i, sum, want, ev)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder must report disabled")
	}
	r.Complete(readEvent(1)) // must not panic
	if r.NeedSample(1000) {
		t.Error("nil recorder never needs sampling")
	}
	r.Sample(1000, Gauges{})
	r.ResetMeasurement(0, Gauges{})
	if s := r.Summarize(1000, Gauges{}); s != nil {
		t.Error("nil recorder summarizes to nil")
	}
}

func TestRecorderHistograms(t *testing.T) {
	r := New(Config{})
	hit := readEvent(1)
	hit.AMBHit = true
	miss := readEvent(2)
	wr := readEvent(3)
	wr.Write = true
	r.Complete(hit)
	r.Complete(miss)
	r.Complete(wr)

	s := r.Summarize(500*ns, Gauges{})
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", s.Reads, s.Writes)
	}
	// Each stats table ends with the end-to-end "total" row.
	tot := s.Breakdown[len(s.Breakdown)-1]
	if tot.Stage != "total" || tot.Count != 2 {
		t.Errorf("total row = %+v", tot)
	}
	hits := s.Hits[len(s.Hits)-1]
	if hits.Count != 1 {
		t.Errorf("hit total count = %d", hits.Count)
	}
	misses := s.Misses[len(s.Misses)-1]
	if misses.Count != 1 {
		t.Errorf("miss total count = %d", misses.Count)
	}
}

func TestEventCapDropsButStillCounts(t *testing.T) {
	r := New(Config{MaxEvents: 4})
	for i := int64(0); i < 10; i++ {
		r.Complete(readEvent(i))
	}
	s := r.Summarize(2000*ns, Gauges{})
	if len(s.TraceEvents) != 4 {
		t.Errorf("kept %d events, want cap 4", len(s.TraceEvents))
	}
	if s.DroppedEvents != 6 {
		t.Errorf("dropped = %d, want 6", s.DroppedEvents)
	}
	if s.Reads != 10 {
		t.Errorf("histogram reads = %d, want all 10", s.Reads)
	}
}

func TestEpochSeries(t *testing.T) {
	r := New(Config{Epoch: 100 * ns, Channels: 1, DIMMBuses: 1})
	var g Gauges
	for i := int64(0); i < 8; i++ {
		r.Complete(readEvent(i)) // events at i*100ns .. +40ns
		g.NorthBusy += 10 * ns
		g.ACT++
		if r.NeedSample(clock.Time(i+1) * 100 * ns) {
			r.Sample(clock.Time(i+1)*100*ns, g)
		}
	}
	s := r.Summarize(800*ns, g)
	if len(s.Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	for _, ep := range s.Epochs {
		var stages float64
		for _, m := range ep.StageMeanNS {
			stages += m
		}
		if ep.Reads > 0 && abs(stages-ep.AvgReadLatencyNS) > 1e-9 {
			t.Errorf("epoch %v: stage means %v don't sum to avg %v", ep.StartNS, stages, ep.AvgReadLatencyNS)
		}
		if ep.NorthUtil < 0 || ep.NorthUtil > 1.000001 {
			t.Errorf("north util out of range: %v", ep.NorthUtil)
		}
	}
}

func TestResetMeasurementClearsWindow(t *testing.T) {
	r := New(Config{})
	r.Complete(readEvent(1))
	r.ResetMeasurement(1000*ns, Gauges{NorthBusy: 50 * ns})
	s := r.Summarize(2000*ns, Gauges{NorthBusy: 80 * ns})
	if s.Reads != 0 {
		t.Errorf("reads after reset = %d, want 0", s.Reads)
	}
	if s.StartNS != (1000 * ns).Nanoseconds() {
		t.Errorf("window start = %v, want 1000ns", s.StartNS)
	}
}

// TestEpochsBoundedPerWindow: the summary retains at most MaxEpochs rows
// per measurement window, before and after ResetMeasurement, and counts
// every row past the cap — the trailing partial epoch included — in
// DroppedEpochs.
func TestEpochsBoundedPerWindow(t *testing.T) {
	const maxEpochs = 16
	r := New(Config{Epoch: 100 * ns, MaxEpochs: maxEpochs})
	var g Gauges
	now := clock.Time(0)
	sample := func(epochs int) {
		for i := 0; i < epochs; i++ {
			now += 100 * ns
			g.ACT++
			r.Sample(now, g)
		}
	}
	sample(3 * maxEpochs)
	if s := r.Summarize(now, g); len(s.Epochs) != maxEpochs || s.DroppedEpochs != 2*maxEpochs {
		t.Errorf("before reset: summary kept %d epochs and dropped %d, want %d and %d",
			len(s.Epochs), s.DroppedEpochs, maxEpochs, 2*maxEpochs)
	}
	r.ResetMeasurement(now, g)
	sample(3 * maxEpochs)
	s := r.Summarize(now+50*ns, g) // the trailing partial epoch is over the cap too
	if len(s.Epochs) != maxEpochs || s.DroppedEpochs != 2*maxEpochs+1 {
		t.Errorf("after reset: summary kept %d epochs and dropped %d, want %d and %d",
			len(s.Epochs), s.DroppedEpochs, maxEpochs, 2*maxEpochs+1)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := New(Config{})
	hit := readEvent(1)
	hit.AMBHit = true
	hit.Channel, hit.DIMM, hit.Bank = 1, 2, 3
	r.Complete(hit)
	r.Complete(readEvent(2))
	s := r.Summarize(500*ns, Gauges{})

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var meta, slices int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if e.Dur < 0 {
				t.Errorf("negative slice duration: %+v", e)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta < 4 { // 2 tracks x (process_name + thread_name)
		t.Errorf("metadata events = %d, want >= 4", meta)
	}
	if slices == 0 {
		t.Error("no slices emitted")
	}
	// The hit's track uses pid=channel, tid=dimm*stride+bank.
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.PID == 1 && e.TID == 2*chromeTIDStride+3 {
			found = true
		}
	}
	if !found {
		t.Error("no slice on the hit's (channel 1, dimm 2, bank 3) track")
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	r := New(Config{Epoch: 100 * ns, Channels: 1, DIMMBuses: 1})
	r.Complete(readEvent(0))
	r.Sample(100*ns, Gauges{NorthBusy: 20 * ns})
	s := r.Summarize(200*ns, Gauges{NorthBusy: 30 * ns})

	var buf bytes.Buffer
	if err := s.WriteTimelineCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(s.Epochs) {
		t.Fatalf("csv lines = %d, want header + %d epochs", len(lines), len(s.Epochs))
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Errorf("header has %d cols, row has %d", len(header), len(row))
	}
	if header[0] != "start_ns" || header[6] != "avg_read_latency_ns" {
		t.Errorf("unexpected header: %v", header)
	}
}

func TestRenderSummary(t *testing.T) {
	r := New(Config{Epoch: 100 * ns})
	for i := int64(0); i < 5; i++ {
		r.Complete(readEvent(i))
		r.Sample(clock.Time(i+1)*100*ns, Gauges{})
	}
	s := r.Summarize(600*ns, Gauges{})
	var buf bytes.Buffer
	s.Render(&buf, 60)
	out := buf.String()
	for _, want := range []string{"trace window", "mshr", "queue", "south", "amb", "dram", "north", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
