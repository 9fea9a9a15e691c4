// Package stats provides the measurement primitive the experiment harness
// builds on: a log-linear latency histogram with percentile queries (memory
// latency distributions are heavy-tailed, and the tail — not the mean — is
// what blocks a ROB).
package stats

import (
	"fmt"
	"math/bits"
	"strings"

	"fbdsim/internal/clock"
)

// subBuckets is the number of linear sub-buckets per power of two. Eight
// gives ≤ 12.5% relative error on percentile queries, plenty for latency
// distributions spanning 30 ns to a few µs.
const subBuckets = 8

// maxBuckets covers values up to 2^40 ps ≈ 1.1 s.
const maxBuckets = 41 * subBuckets

// Histogram is a log-linear histogram over clock.Time values. The zero
// value is ready to use.
type Histogram struct {
	counts [maxBuckets]int64
	n      int64
	sum    clock.Time
	min    clock.Time
	max    clock.Time
}

// bucketOf maps a value to its bucket index.
func bucketOf(v clock.Time) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= 3
	// Linear position within the power-of-two range [2^exp, 2^(exp+1)).
	sub := int((v >> uint(exp-3)) & (subBuckets - 1))
	idx := (exp-2)*subBuckets + sub
	if idx >= maxBuckets {
		return maxBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket idx (the inverse
// of bucketOf, used to answer percentile queries).
func bucketLow(idx int) clock.Time {
	if idx < subBuckets {
		return clock.Time(idx)
	}
	exp := idx/subBuckets + 2
	sub := idx % subBuckets
	return clock.Time((8 + int64(sub)) << uint(exp-3))
}

// Observe records one value.
func (h *Histogram) Observe(v clock.Time) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() clock.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / clock.Time(h.n)
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() clock.Time { return h.min }
func (h *Histogram) Max() clock.Time { return h.max }

// Percentile returns an approximation of the p-quantile: the lower bound
// of the bucket containing the ceil(p·n)-th observation. With log-linear
// buckets the approximation is within 12.5% of the true value.
//
// Edge behavior: an empty histogram returns 0 for every p; p <= 0 returns
// the exact observed minimum; p >= 1 returns the exact observed maximum.
// NaN compares false with both bounds and is treated like an interior p
// (it resolves to the first bucket).
func (h *Histogram) Percentile(p float64) clock.Time {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	target := int64(p * float64(h.n))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			return bucketLow(i)
		}
	}
	return h.max
}

// Sub returns a histogram holding the observations in h but not in old,
// where old is normally an earlier snapshot of the same histogram. It is
// how the system measures post-warmup distributions without resetting
// counters.
//
// Sub is tolerant of a mismatched argument: a nil old behaves like an
// empty snapshot, and any bucket where old exceeds h is clamped to zero
// (with n and sum recomputed from the clamped buckets) instead of going
// negative. The result's min/max are conservative bounds derived from the
// surviving buckets, intersected with h's observed range.
func (h *Histogram) Sub(old *Histogram) *Histogram {
	if old == nil {
		return h.Clone()
	}
	out := &Histogram{}
	first, last := -1, -1
	for i := range h.counts {
		d := h.counts[i] - old.counts[i]
		if d <= 0 {
			continue
		}
		out.counts[i] = d
		out.n += d
		if first < 0 {
			first = i
		}
		last = i
	}
	if out.n == 0 {
		return out
	}
	if sum := h.sum - old.sum; sum > 0 {
		out.sum = sum
	}
	// Bucket bounds of the surviving mass, tightened by h's exact extremes
	// when those fall inside them.
	out.min = bucketLow(first)
	if h.min > out.min {
		out.min = h.min
	}
	out.max = bucketLow(last + 1)
	if h.max < out.max {
		out.max = h.max
	}
	if out.max < out.min {
		out.max = out.min
	}
	return out
}

// Clone returns a copy (a snapshot for later Sub).
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}

// Merge folds other's observations into h (nil or empty other is a no-op).
// The sampling tier uses it to combine per-window latency distributions
// into one estimate.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// String summarizes the distribution in nanoseconds.
func (h *Histogram) String() string {
	if h.n == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d mean=%.1fns p50=%.1fns p90=%.1fns p99=%.1fns max=%.1fns",
		h.n, h.Mean().Nanoseconds(), h.Percentile(0.50).Nanoseconds(),
		h.Percentile(0.90).Nanoseconds(), h.Percentile(0.99).Nanoseconds(),
		h.max.Nanoseconds())
}

// Render draws a coarse ASCII bar chart of the distribution (for the CLI's
// -hist flag); width is the maximum bar length in characters.
func (h *Histogram) Render(width int) string {
	if h.n == 0 {
		return "(no observations)\n"
	}
	if width < 8 {
		width = 8
	}
	// Merge buckets into at most 16 display rows spanning min..max.
	first, last := bucketOf(h.min), bucketOf(h.max)
	span := last - first + 1
	rows := 16
	if span < rows {
		rows = span
	}
	per := (span + rows - 1) / rows
	type row struct {
		lo, hi clock.Time
		count  int64
	}
	var rws []row
	for b := first; b <= last; b += per {
		end := b + per - 1
		if end > last {
			end = last
		}
		var c int64
		for i := b; i <= end; i++ {
			c += h.counts[i]
		}
		hi := bucketLow(end + 1)
		rws = append(rws, row{bucketLow(b), hi, c})
	}
	var peak int64 = 1
	for _, r := range rws {
		if r.count > peak {
			peak = r.count
		}
	}
	var sb strings.Builder
	for _, r := range rws {
		bar := int(int64(width) * r.count / peak)
		fmt.Fprintf(&sb, "%8.0f-%-8.0fns |%-*s| %d\n",
			r.lo.Nanoseconds(), r.hi.Nanoseconds(), width, strings.Repeat("#", bar), r.count)
	}
	return sb.String()
}
