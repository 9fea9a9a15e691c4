package main

import "testing"

func TestParseResult(t *testing.T) {
	line := "BenchmarkSystemRun/stall-heavy 15 81724204 ns/op 5300168 sim-cycles/s 4226069 B/op 128624 allocs/op"
	r, ok := parseResult(line)
	if !ok {
		t.Fatalf("parseResult rejected %q", line)
	}
	if r.Name != "BenchmarkSystemRun/stall-heavy" || r.Iterations != 15 {
		t.Fatalf("parsed %+v", r)
	}
	want := map[string]float64{
		"ns/op": 81724204, "sim-cycles/s": 5300168, "B/op": 4226069, "allocs/op": 128624,
	}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %q = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
}

// TestParseResultStripsProcsSuffix: go test appends "-N" (GOMAXPROCS) to
// every benchmark name when N > 1; the recorded name drops it so baselines
// taken on hosts with different CPU counts share names. A trailing dash
// segment that is not all digits is part of the name and stays.
func TestParseResultStripsProcsSuffix(t *testing.T) {
	for line, want := range map[string]string{
		"BenchmarkSampledFidelity/swim-2 1 138773823 ns/op 0.473 ipc-err-pct": "BenchmarkSampledFidelity/swim",
		"BenchmarkSampledFidelity/swim 1 138773823 ns/op 0.473 ipc-err-pct":   "BenchmarkSampledFidelity/swim",
		"BenchmarkDecode-16 100 59 ns/op":                                     "BenchmarkDecode",
		"BenchmarkMix/8C-swim-mcf-4 1 5 ns/op":                                "BenchmarkMix/8C-swim-mcf",
		"BenchmarkMix/1C-swim 1 5 ns/op":                                      "BenchmarkMix/1C-swim",
	} {
		r, ok := parseResult(line)
		if !ok {
			t.Fatalf("parseResult rejected %q", line)
		}
		if r.Name != want {
			t.Errorf("parseResult(%q).Name = %q, want %q", line, r.Name, want)
		}
	}
}

func TestParseResultRejectsPartialLines(t *testing.T) {
	for _, line := range []string{
		"BenchmarkWrappedName",          // name only, metrics on next line
		"BenchmarkOdd 10 123",           // value without unit
		"BenchmarkBadIters x 123 ns/op", // non-numeric iteration count
	} {
		if _, ok := parseResult(line); ok {
			t.Errorf("parseResult accepted %q", line)
		}
	}
}
