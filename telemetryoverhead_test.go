package fbdsim

// Overhead guard for the live-telemetry stream: attaching an epoch sink
// with no reader listening must not measurably slow the simulation. The
// sink fires only at 1024-cycle epoch boundaries and a publish is a short
// lock-scoped append, so the traced-with-sink variant should track the
// plain traced variant within noise.

import (
	"context"
	"testing"
	"time"

	"fbdsim/internal/system"
	"fbdsim/internal/telemetry"
)

// runTelemetryOnce runs the traced overhead workload, optionally feeding a
// stream that nobody reads.
func runTelemetryOnce(tb testing.TB, withSink bool) (Results, *telemetry.Stream, time.Duration) {
	tb.Helper()
	var st *telemetry.Stream
	var opts system.Options
	if withSink {
		st = telemetry.NewStream("overhead")
		opts.EpochSink = telemetry.NewJobSink(st)
	}
	start := time.Now()
	res, err := system.RunWorkload(context.Background(), overheadConfig(true), []string{"swim"}, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res, st, time.Since(start)
}

// TestTelemetryOverhead checks the two properties the stream promises:
//
//  1. Publishing is purely observational — a run feeding an unwatched
//     stream produces results identical to a plain traced run, and the
//     stream retains exactly the epochs the trace summary retains.
//  2. The unwatched publish path is cheap. As in TestTraceOverhead,
//     absolute wall-clock on shared CI machines cannot resolve the real
//     (sub-1%) cost, so the guard interleaves the variants, takes the
//     best of five each, and asserts the sink variant does not exceed
//     the plain variant by more than 50% — a trip means epoch publishing
//     grew per-request work.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; skipped in -short")
	}
	resOff, _, _ := runTelemetryOnce(t, false)
	resOn, st, _ := runTelemetryOnce(t, true)

	if resOff.Cycles != resOn.Cycles || resOff.Reads != resOn.Reads ||
		resOff.Writes != resOn.Writes || resOff.AMBHits != resOn.AMBHits ||
		resOff.TotalIPC() != resOn.TotalIPC() {
		t.Errorf("telemetry sink changed simulation results:\n  off: cycles=%d reads=%d writes=%d hits=%d ipc=%v\n  on:  cycles=%d reads=%d writes=%d hits=%d ipc=%v",
			resOff.Cycles, resOff.Reads, resOff.Writes, resOff.AMBHits, resOff.TotalIPC(),
			resOn.Cycles, resOn.Reads, resOn.Writes, resOn.AMBHits, resOn.TotalIPC())
	}
	if resOn.Trace == nil {
		t.Fatal("traced run must carry a trace summary")
	}

	// The stream's measurement window mirrors the summary's epoch series
	// exactly — same rows, same values — with no option set.
	win := st.Snapshot(0)
	if len(win.Samples) != len(resOn.Trace.Epochs) {
		t.Fatalf("stream retained %d samples, trace summary has %d epochs", len(win.Samples), len(resOn.Trace.Epochs))
	}
	if win.Resets == 0 {
		t.Error("no measurement-reset event reached the stream (warmup boundary missed)")
	}
	for i, sm := range win.Samples {
		if sm.Epoch != resOn.Trace.Epochs[i] {
			t.Errorf("sample %d diverges from summary epoch:\n  stream:  %+v\n  summary: %+v", i, sm.Epoch, resOn.Trace.Epochs[i])
		}
	}

	// Interleaved best-of-5 wall times, as in TestTraceOverhead.
	off := time.Duration(1<<62 - 1)
	on := off
	for i := 0; i < 5; i++ {
		if _, _, d := runTelemetryOnce(t, false); d < off {
			off = d
		}
		if _, _, d := runTelemetryOnce(t, true); d < on {
			on = d
		}
	}
	if float64(on) > float64(off)*1.5 {
		t.Errorf("unwatched telemetry sink (%v) more than 50%% slower than plain tracing (%v): epoch publishing regressed", on, off)
	}
}
