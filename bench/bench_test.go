package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the smoke test re-execute this test binary as a workload
// child, exactly as the benchmark re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		o, err := parseFlags(os.Args[1:])
		if err != nil {
			os.Exit(2)
		}
		os.Exit(childMain(o, os.Stdout))
	}
	// A race-enabled binary sleeps a second at exit by default, once per
	// child; the children inherit this setting.
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	os.Exit(m.Run())
}

type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclaredWorkloadsMatch(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, d.Workloads[i], w.name, w.why)
		}
	}
}

func TestGoldenDigestsCommitted(t *testing.T) {
	for _, w := range workloads {
		g, err := loadGolden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(g) != goldenSeeds {
			t.Errorf("%s: %d verified seeds, want %d", w.name, len(g), goldenSeeds)
		}
		for i, v := range g {
			if len(v.Digest) != 64 || i > 0 && v.Seed <= g[i-1].Seed {
				t.Errorf("%s: entry %d is %+v", w.name, i, v)
			}
		}
	}
}

func TestPickCyclesThroughVerifiedSeeds(t *testing.T) {
	g := golden{{Seed: 3}, {Seed: 7}, {Seed: 10}}
	for n, want := range map[int64]int64{1: 3, 2: 7, 3: 10, 4: 3, 12: 10, 0: 10, -1: 7} {
		if got := g.pick(n).Seed; got != want {
			t.Errorf("pick(%d) = trace seed %d, want %d", n, got, want)
		}
	}
}

// TestSmoke runs every workload at tiny budgets through the child
// process, in both modes, and checks that each emits every declared metric
// with its unit and that the event-driven loop reproduced the reference
// loop's results.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for trace, metrics := range map[string][]struct{ Name, Unit string }{"0": d.EndToEnd, "1": d.PerLayer} {
		// fig7, the longest, starts first.
		for i := len(workloads) - 1; i >= 0; i-- {
			w := workloads[i]
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				t.Parallel()
				args := []string{"-workload", w.name, "-scale", "0.001", "-seconds", "0", "-seed", "7", "-trace", trace}
				o, err := parseFlags(args)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if code := parentMain(o, args, &out); code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
					t.Errorf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(metrics) {
					t.Errorf("%d metrics, %d declared", len(r.Metrics), len(metrics))
				}
				for _, m := range metrics {
					if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Expected quartiles are Python's statistics.quantiles(xs, n=4).
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{5, 1, 3}, 3, 1, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{4}, 4, 4, 4},
		{nil, 0, 0, 0},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
}

// pb appends protobuf fields for the hand-built profile.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireVarint)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireBytes)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"fbdsim/internal/ambcache.(*Cache).insert",
		"fbdsim/internal/fbdchan.(*Channel).scheduleGroupFetch",
		"runtime.mallocgc",
		"fbdsim/internal/stats.(*Histogram).Observe",
		"fbdsim/internal/memctrl.(*Controller).Tick",
		"fbdsim/internal/exp.Figure7.func1",
		"runtime.gcBgMarkWorker",
	}
	var p pb
	p = p.bytes(profSampleType, pb{}.varint(1, 1).varint(valueTypeUnit, 2))
	p = p.bytes(profSampleType, pb{}.varint(1, 3).varint(valueTypeUnit, 4))
	// Functions 1..7 are strings 5..11.
	for id := uint64(1); id <= 7; id++ {
		p = p.bytes(profFunction, pb{}.varint(functionID, id).varint(functionName, id+4))
	}
	line := func(fn uint64) []byte { return pb{}.varint(lineFunction, fn) }
	// Location 1 is ambcache.insert inlined into fbdchan: innermost first.
	p = p.bytes(profLocation, pb{}.varint(locationID, 1).bytes(locationLine, line(1)).bytes(locationLine, line(2)))
	for id := uint64(2); id <= 6; id++ {
		p = p.bytes(profLocation, pb{}.varint(locationID, id).bytes(locationLine, line(id+1)))
	}
	// Samples, leaf first: inlined ambcache; malloc and a stats helper
	// called from memctrl (one packed, one unpacked); exp; the GC.
	p = p.bytes(profSample, pb{}.packed(sampleLocation, 1).packed(sampleValue, 1, 10))
	p = p.bytes(profSample, pb{}.packed(sampleLocation, 2, 4).packed(sampleValue, 1, 20))
	p = p.bytes(profSample, pb{}.varint(sampleLocation, 3).varint(sampleLocation, 4).varint(sampleValue, 1).varint(sampleValue, 40))
	p = p.bytes(profSample, pb{}.packed(sampleLocation, 5).packed(sampleValue, 1, 80))
	p = p.bytes(profSample, pb{}.packed(sampleLocation, 6).packed(sampleValue, 1, 160))
	for _, s := range strs {
		p = p.bytes(profStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	nanos, samples, err := attribute(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"ambcache": 10, "memctrl": 60, "sweep": 80, runtimeLayer: 160}
	if samples != 5 || len(nanos) != len(want) {
		t.Fatalf("samples %d, nanos %v; want 5, %v", samples, nanos, want)
	}
	for l, n := range want {
		if nanos[l] != n {
			t.Errorf("%s: %d ns, want %d", l, nanos[l], n)
		}
	}
	if _, _, err := attribute(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
