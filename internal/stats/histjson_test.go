package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fbdsim/internal/clock"
)

// TestHistogramJSONRoundTrip: marshal→unmarshal is the identity on the full
// in-memory state, including counts, n, sum and the exact min/max — the
// property sweep.Canonicalize depends on.
func TestHistogramJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := &Histogram{}
		n := rng.Intn(5000)
		for i := 0; i < n; i++ {
			h.Observe(clock.Time(rng.Int63n(1 << uint(10+rng.Intn(30)))))
		}
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var back Histogram
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h, &back) {
			t.Fatalf("trial %d: round trip not identity (n=%d)", trial, n)
		}
	}
}

// TestHistogramJSONEmpty: the zero histogram round-trips to the zero value
// and encodes without a counts array.
func TestHistogramJSONEmpty(t *testing.T) {
	h := &Histogram{}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "counts") {
		t.Errorf("empty histogram encoded counts: %s", b)
	}
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, &back) {
		t.Error("empty round trip not identity")
	}
}

// TestHistogramJSONRejectsBadBucket: corrupt input fails loudly instead of
// silently mis-binning.
func TestHistogramJSONRejectsBadBucket(t *testing.T) {
	var h Histogram
	for _, bad := range []string{
		`{"n":1,"sum":5,"min":5,"max":5,"counts":[[-1,1]]}`,
		`{"n":1,"sum":5,"min":5,"max":5,"counts":[[99999,1]]}`,
	} {
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Errorf("accepted out-of-range bucket: %s", bad)
		}
	}
}

// TestHistogramJSONPercentilesSurvive: queries on a decoded histogram match
// the original exactly.
func TestHistogramJSONPercentilesSurvive(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(clock.Time(i * 37))
	}
	b, _ := json.Marshal(h)
	var back Histogram
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if h.Percentile(p) != back.Percentile(p) {
			t.Errorf("p%.2f: %d vs %d", p, h.Percentile(p), back.Percentile(p))
		}
	}
	if h.Mean() != back.Mean() || h.Count() != back.Count() {
		t.Error("mean/count drifted across round trip")
	}
}
