package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fbdsim/internal/clock"
)

const ns = clock.Nanosecond

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
	if h.String() != "empty" {
		t.Errorf("String = %q", h.String())
	}
	if !strings.Contains(h.Render(40), "no observations") {
		t.Error("Render of empty histogram")
	}
}

func TestMeanMinMax(t *testing.T) {
	var h Histogram
	for _, v := range []clock.Time{10 * ns, 20 * ns, 30 * ns} {
		h.Observe(v)
	}
	if h.Mean() != 20*ns {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.Min() != 10*ns || h.Max() != 30*ns {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestPercentileAccuracy(t *testing.T) {
	var h Histogram
	// 1..1000 ns uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(clock.Time(i) * ns)
	}
	for _, tc := range []struct {
		p    float64
		want clock.Time
	}{
		{0.50, 500 * ns},
		{0.90, 900 * ns},
		{0.99, 990 * ns},
	} {
		got := h.Percentile(tc.p)
		lo := float64(tc.want) * 0.85
		hi := float64(tc.want) * 1.01
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("p%.0f = %v, want within 15%% below %v", tc.p*100, got, tc.want)
		}
	}
	if h.Percentile(0) != h.Min() || h.Percentile(1) != h.Max() {
		t.Error("extreme percentiles must clamp to min/max")
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// bucketLow(bucketOf(v)) <= v for all v, and bucketOf(bucketLow(i)) == i.
	for i := 0; i < maxBuckets; i++ {
		lo := bucketLow(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucket %d: low %d maps to %d", i, lo, got)
		}
	}
	f := func(raw uint32) bool {
		v := clock.Time(raw)
		return bucketLow(bucketOf(v)) <= v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeObservationsClamp(t *testing.T) {
	var h Histogram
	h.Observe(-5 * ns)
	if h.Count() != 1 || h.Min() != 0 {
		t.Errorf("negative observation handling: %+v", h)
	}
}

func TestSubSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(100 * ns)
	h.Observe(200 * ns)
	snap := h.Clone()
	h.Observe(300 * ns)
	h.Observe(400 * ns)
	d := h.Sub(snap)
	if d.Count() != 2 {
		t.Fatalf("delta count = %d", d.Count())
	}
	if d.Mean() != 350*ns {
		t.Errorf("delta mean = %v, want 350ns", d.Mean())
	}
}

func TestSubMismatchClamps(t *testing.T) {
	// Sub with a non-snapshot argument must clamp, not go negative or
	// panic: buckets where old exceeds h contribute nothing.
	var a, b Histogram
	a.Observe(100 * ns)
	b.Observe(10 * ns) // not in a: would drive that bucket negative
	b.Observe(10 * ns)
	d := a.Sub(&b)
	if d.Count() != 1 {
		t.Fatalf("clamped delta count = %d, want 1", d.Count())
	}
	if d.Min() < 0 || d.Max() < d.Min() {
		t.Errorf("clamped delta range invalid: min=%v max=%v", d.Min(), d.Max())
	}
	if p := d.Percentile(0.5); p < 0 {
		t.Errorf("percentile of clamped delta = %v", p)
	}

	// Fully-mismatched: everything clamps away, leaving an empty result.
	var empty Histogram
	d = empty.Sub(&b)
	if d.Count() != 0 || d.Mean() != 0 {
		t.Errorf("empty-minus-nonempty = %+v, want empty", d)
	}
}

func TestSubNilOld(t *testing.T) {
	var h Histogram
	h.Observe(50 * ns)
	d := h.Sub(nil)
	if d.Count() != 1 || d.Mean() != 50*ns {
		t.Errorf("Sub(nil) = %+v, want clone", d)
	}
	d.Observe(60 * ns)
	if h.Count() != 1 {
		t.Error("Sub(nil) must return an independent copy")
	}
}

func TestSubPreservesExtremes(t *testing.T) {
	// A genuine snapshot whose delta lies inside h's range: min/max of the
	// delta must stay within the surviving buckets' bounds.
	var h Histogram
	h.Observe(100 * ns)
	snap := h.Clone()
	h.Observe(300 * ns)
	d := h.Sub(snap)
	if d.Count() != 1 {
		t.Fatalf("delta count = %d", d.Count())
	}
	if d.Max() < d.Min() || d.Max() > 300*ns || d.Min() > 300*ns {
		t.Errorf("delta extremes min=%v max=%v", d.Min(), d.Max())
	}
}

func TestPercentileEdges(t *testing.T) {
	var empty Histogram
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty.Percentile(%v) = %v, want 0", p, got)
		}
	}
	var h Histogram
	h.Observe(17 * ns)
	h.Observe(4000 * ns)
	if got := h.Percentile(0); got != 17*ns {
		t.Errorf("p=0 = %v, want exact min 17ns", got)
	}
	if got := h.Percentile(-0.5); got != 17*ns {
		t.Errorf("p<0 = %v, want exact min 17ns", got)
	}
	if got := h.Percentile(1); got != 4000*ns {
		t.Errorf("p=1 = %v, want exact max 4000ns", got)
	}
	if got := h.Percentile(1.5); got != 4000*ns {
		t.Errorf("p>1 = %v, want exact max 4000ns", got)
	}
}

func TestRender(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Observe(clock.Time(60+rng.Intn(300)) * ns)
	}
	out := h.Render(40)
	if !strings.Contains(out, "#") || !strings.Contains(out, "ns") {
		t.Errorf("Render output malformed:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines > 17 {
		t.Errorf("Render produced %d rows, want <= 16", lines)
	}
}

// TestPercentileMonotonic is a property: percentiles never decrease in p.
func TestPercentileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 300; i++ {
			h.Observe(clock.Time(rng.Intn(1_000_000)))
		}
		prev := clock.Time(-1)
		for p := 0.05; p <= 1.0; p += 0.05 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
