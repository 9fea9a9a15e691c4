package telemetry

import (
	"encoding/json"
	"sync"
	"testing"

	"fbdsim/internal/memtrace"
	"fbdsim/internal/power"
)

func sampleAt(i int) Sample {
	return Sample{Epoch: memtrace.Epoch{StartNS: float64(i) * 256, EndNS: float64(i+1) * 256, Reads: int64(i)}}
}

// isClosed reports whether ch is closed without blocking.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// A reader replays the history, then sees a live publish through the
// changed channel, then the end event.
func TestSubscribeReplayThenLive(t *testing.T) {
	st := NewStream("job-1")
	st.PublishState("queued")
	st.PublishState("running")
	st.PublishSample(sampleAt(0))

	replay, ended, changed := st.Since(0)
	if len(replay) != 3 || ended {
		t.Fatalf("replay = %d events (ended %v), want 3 live", len(replay), ended)
	}
	if replay[0].Type != EventState || replay[2].Type != EventEpoch {
		t.Fatalf("replay types = %q, %q", replay[0].Type, replay[2].Type)
	}
	for i, ev := range replay {
		if ev.Seq != int64(i+1) {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	if isClosed(changed) {
		t.Fatal("changed closed before any new publish")
	}

	st.PublishSample(sampleAt(1))
	if !isClosed(changed) {
		t.Fatal("publish did not close the changed channel")
	}
	live, _, changed := st.Since(3)
	if len(live) != 1 || live[0].Type != EventEpoch || live[0].Seq != 4 {
		t.Fatalf("live events = %+v, want one epoch with seq 4", live)
	}
	var got Sample
	if err := json.Unmarshal(live[0].Data, &got); err != nil {
		t.Fatalf("unmarshal live sample: %v", err)
	}
	if got.Reads != 1 {
		t.Fatalf("live sample Reads = %d, want 1", got.Reads)
	}

	st.Close("done")
	if !isClosed(changed) {
		t.Fatal("Close did not close the changed channel")
	}
	end, ended, _ := st.Since(4)
	if len(end) != 1 || end[0].Type != EventEnd || !ended {
		t.Fatalf("after close: events %+v ended %v, want the end event and ended", end, ended)
	}
}

// The stats window holds every sample since the last reset; lastN trims
// it to the newest N.
func TestSampleWindowBounded(t *testing.T) {
	st := NewStream("job-1")
	for i := 0; i < 10; i++ {
		st.PublishSample(sampleAt(i))
	}
	stats := st.Snapshot(0)
	if len(stats.Samples) != 10 {
		t.Fatalf("window = %d samples, want all 10", len(stats.Samples))
	}
	if stats.Samples[0].Reads != 0 || stats.Samples[9].Reads != 9 {
		t.Fatalf("window reads = [%d..%d], want [0..9]", stats.Samples[0].Reads, stats.Samples[9].Reads)
	}
	if stats.Latest == nil || stats.Latest.Reads != 9 {
		t.Fatalf("latest = %+v, want Reads 9", stats.Latest)
	}

	limited := st.Snapshot(2)
	if len(limited.Samples) != 2 || limited.Samples[0].Reads != 8 {
		t.Fatalf("lastN=2 window = %+v", limited.Samples)
	}
}

func TestResetClearsWindow(t *testing.T) {
	st := NewStream("job-1")
	st.PublishSample(sampleAt(0))
	st.PublishSample(sampleAt(1))
	before := st.Snapshot(0)
	st.PublishReset()
	st.PublishSample(sampleAt(2))

	stats := st.Snapshot(0)
	if stats.Resets != 1 {
		t.Fatalf("resets = %d, want 1", stats.Resets)
	}
	if len(stats.Samples) != 1 || stats.Samples[0].Reads != 2 {
		t.Fatalf("post-reset window = %+v, want one sample with Reads 2", stats.Samples)
	}
	// A snapshot taken before the reset is not overwritten by later samples.
	if len(before.Samples) != 2 || before.Samples[0].Reads != 0 || before.Samples[1].Reads != 1 {
		t.Fatalf("pre-reset snapshot changed under the reader: %+v", before.Samples)
	}
}

func TestSubscribeAfterClose(t *testing.T) {
	st := NewStream("job-1")
	st.PublishState("running")
	st.Close("failed")
	st.PublishSample(sampleAt(0)) // no-op after close
	st.PublishPoint(json.RawMessage(`{}`))

	replay, ended, _ := st.Since(0)
	if len(replay) != 2 || replay[1].Type != EventEnd || !ended {
		t.Fatalf("post-close replay = %+v (ended %v), want [state, end]", replay, ended)
	}
	if st.Snapshot(0).State != "failed" {
		t.Fatalf("state = %q, want failed", st.Snapshot(0).State)
	}
	st.Close("done") // idempotent
	if again, _, _ := st.Since(0); len(again) != 2 {
		t.Fatalf("second Close appended: %+v", again)
	}
}

// Concurrent publishers, followers and snapshotters: the test is the race
// detector plus the follower invariant. Every follower reads with its own
// cursor until the end event and must see each sequence number exactly
// once, in order — whether it started before, during or after the
// publishes.
func TestConcurrentPublishSubscribe(t *testing.T) {
	st := NewStream("job-1")
	const pubs, perPub = 4, 200
	var pubWG, subWG sync.WaitGroup
	for p := 0; p < pubs; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPub; i++ {
				st.PublishSample(sampleAt(p*perPub + i))
			}
		}(p)
	}
	follow := func() {
		defer subWG.Done()
		var seq int64
		for {
			events, ended, changed := st.Since(seq)
			for _, ev := range events {
				if ev.Seq != seq+1 {
					t.Errorf("follower saw seq %d after %d", ev.Seq, seq)
					return
				}
				seq = ev.Seq
			}
			if ended {
				if seq != pubs*perPub+1 {
					t.Errorf("follower ended at seq %d, want %d", seq, pubs*perPub+1)
				}
				return
			}
			<-changed
		}
	}
	for s := 0; s < 4; s++ {
		subWG.Add(1)
		go follow()
	}
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for i := 0; i < 100; i++ {
			_ = st.Snapshot(8)
		}
	}()
	pubWG.Wait()
	st.Close("done")
	st.Close("done") // idempotent
	subWG.Add(1)
	follow() // a late follower replays everything
	subWG.Wait()
}

func TestJobSinkFusion(t *testing.T) {
	st := NewStream("job-1")
	sink := NewJobSink(st)

	ep := memtrace.Epoch{StartNS: 0, EndNS: 256, ACTs: 10, PREs: 12, ColReads: 30, ColWrites: 10}
	sink.EpochSample(ep)
	stats := st.Snapshot(0)
	if stats.Latest == nil {
		t.Fatal("no sample published")
	}
	// pairs = max(10, 12) = 12; 12*4 + 40*1 = 88 under paper weights.
	if got := stats.Latest.DynamicEnergy; got != 88 {
		t.Fatalf("DynamicEnergy = %v, want 88", got)
	}
	if stats.Latest.SimCyclesPerSec != 0 {
		t.Fatalf("first sample SimCyclesPerSec = %v, want 0", stats.Latest.SimCyclesPerSec)
	}

	sink.EpochSample(memtrace.Epoch{StartNS: 256, EndNS: 512})
	if got := st.Snapshot(0).Latest.SimCyclesPerSec; got <= 0 {
		t.Fatalf("second sample SimCyclesPerSec = %v, want > 0", got)
	}

	// WindowReset clears and re-arms the first-sample rate suppression.
	sink.WindowReset()
	sink.EpochSample(memtrace.Epoch{StartNS: 512, EndNS: 768})
	stats = st.Snapshot(0)
	if stats.Resets != 1 || len(stats.Samples) != 1 {
		t.Fatalf("post-reset stats = %+v", stats)
	}
	if stats.Latest.SimCyclesPerSec != 0 {
		t.Fatalf("post-reset first sample rate = %v, want 0", stats.Latest.SimCyclesPerSec)
	}
}

func TestEpochDynamicEnergyPairsRule(t *testing.T) {
	w := power.PaperWeights()
	// ACTs > PREs: pairs follow ACTs.
	if got := EpochDynamicEnergy(memtrace.Epoch{ACTs: 5, PREs: 3, ColReads: 2}, w); got != 22 {
		t.Fatalf("energy = %v, want 22", got)
	}
	// Zero epoch costs zero.
	if got := EpochDynamicEnergy(memtrace.Epoch{}, w); got != 0 {
		t.Fatalf("zero epoch energy = %v, want 0", got)
	}
}

// A reader resuming from a cursor gets exactly the events after it.
func TestSubscribeFromSkipsConsumedPrefix(t *testing.T) {
	st := NewStream("job-1")
	st.PublishState("queued")
	st.PublishState("running")
	st.PublishSample(sampleAt(0))
	st.PublishSample(sampleAt(1))

	replay, _, _ := st.Since(2)
	if len(replay) != 2 {
		t.Fatalf("replay = %d events, want 2", len(replay))
	}
	if replay[0].Seq != 3 || replay[1].Seq != 4 {
		t.Fatalf("replay seqs = %d, %d, want 3, 4", replay[0].Seq, replay[1].Seq)
	}

	// Fully caught up: nothing to read, but the next publish wakes us.
	replay2, ended, changed := st.Since(4)
	if len(replay2) != 0 || ended {
		t.Fatalf("caught-up read = %d events (ended %v), want 0 live", len(replay2), ended)
	}
	st.PublishSample(sampleAt(2))
	<-changed
	if ev, _, _ := st.Since(4); len(ev) != 1 || ev[0].Seq != 5 {
		t.Fatalf("live events = %+v, want seq 5", ev)
	}
}

// A cursor beyond the history reads nothing, never panics or repeats; a
// cursor inside it reads the whole remainder, because nothing is evicted.
func TestSubscribeFromBeyondHistory(t *testing.T) {
	st := NewStream("job-1")
	for i := 0; i < 5000; i++ {
		st.PublishSample(sampleAt(i))
	}
	if replay, _, _ := st.Since(10_000); len(replay) != 0 {
		t.Fatalf("replay = %d events, want 0", len(replay))
	}
	replay, _, _ := st.Since(2)
	if len(replay) != 4998 || replay[0].Seq != 3 || replay[len(replay)-1].Seq != 5000 {
		t.Fatalf("replay = %d events over [%d, %d], want 4998 over [3, 5000]",
			len(replay), replay[0].Seq, replay[len(replay)-1].Seq)
	}
}

func TestTerminal(t *testing.T) {
	st := NewStream("job-1")
	st.PublishState("running")
	if events, ended, _ := st.Since(0); len(events) != 1 || ended {
		t.Fatalf("Since(0) = %d events, ended %v; want 1, false", len(events), ended)
	}
	st.Close("done")
	events, ended, _ := st.Since(0)
	if len(events) != 2 || !ended {
		t.Fatalf("Since(0) after close = %d events, ended %v; want 2, true", len(events), ended)
	}
	// A caught-up reconnect on the closed stream has nothing to read.
	if rest, ended, _ := st.Since(events[1].Seq); len(rest) != 0 || !ended {
		t.Fatalf("caught-up read on closed stream = %d events, ended %v; want 0, true", len(rest), ended)
	}
	if got := st.Snapshot(0).Seq; got != 2 {
		t.Fatalf("Snapshot Seq = %d, want 2", got)
	}
}
