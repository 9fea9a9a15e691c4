package stats

import (
	"encoding/json"
	"fmt"

	"fbdsim/internal/clock"
)

// histogramJSON is the wire form of a Histogram: the non-zero buckets as
// sorted [bucket, count] pairs plus the exact scalar state. Every field of
// the in-memory representation is preserved, so a marshal/unmarshal round
// trip reconstructs a Histogram that is reflect.DeepEqual to the original —
// the property that lets sweep.Canonicalize, and the bench/ digests taken
// through it, be the identity on untraced Results.
type histogramJSON struct {
	N      int64      `json:"n"`
	Sum    clock.Time `json:"sum"`
	Min    clock.Time `json:"min"`
	Max    clock.Time `json:"max"`
	Counts [][2]int64 `json:"counts,omitempty"`
}

// MarshalJSON encodes the histogram losslessly (sparse bucket pairs).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	out := histogramJSON{N: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			out.Counts = append(out.Counts, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a histogram previously encoded by MarshalJSON.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var in histogramJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*h = Histogram{n: in.N, sum: in.Sum, min: in.Min, max: in.Max}
	for _, pair := range in.Counts {
		idx, c := pair[0], pair[1]
		if idx < 0 || idx >= maxBuckets {
			return fmt.Errorf("stats: histogram bucket %d out of range [0,%d)", idx, maxBuckets)
		}
		h.counts[idx] = c
	}
	return nil
}
