// Package resource provides a reservable timeline used to model shared
// interconnect resources (FB-DIMM link frames, DDR2 data buses). Unlike a
// scalar busy-until clock, a Timeline remembers gaps between reservations,
// so a latency-critical transfer scheduled after a long-lead transfer can
// still claim an earlier free slot — exactly the effect that lets AMB-cache
// hits slip ahead of outstanding DRAM accesses on the northbound link.
package resource

import (
	"sort"

	"fbdsim/internal/clock"
)

type interval struct {
	start, end clock.Time // [start, end)
}

// Timeline is a single-owner (not goroutine-safe) reservation calendar.
// The zero value is ready to use.
type Timeline struct {
	busy []interval // sorted by start, non-overlapping
	// quantum, when nonzero, aligns reservation starts to multiples of it
	// (e.g. FB-DIMM frame boundaries).
	quantum clock.Time
	// total accumulates the duration of every reservation ever made,
	// surviving Prune; it feeds utilization statistics.
	total clock.Time
}

// startIntervals is the interval capacity NewQuantized starts a Timeline
// with. A simulated channel's timelines track a few hundred intervals
// between prunes; they grow there from this start in a few doublings,
// where a full-size start would cost every machine ~16 KB per timeline.
const startIntervals = 64

// NewQuantized returns a Timeline whose reservations begin on multiples of
// q (frame-aligned links). A zero q means unaligned.
func NewQuantized(q clock.Time) *Timeline {
	return &Timeline{quantum: q, busy: make([]interval, 0, startIntervals)}
}

func (t *Timeline) align(x clock.Time) clock.Time {
	if t.quantum <= 0 {
		return x
	}
	r := x % t.quantum
	if r == 0 {
		return x
	}
	return x + t.quantum - r
}

// Reserve books the earliest slot of length dur starting at or after
// earliest and returns its start time. dur must be positive.
func (t *Timeline) Reserve(earliest clock.Time, dur clock.Time) clock.Time {
	if dur <= 0 {
		panic("resource: reservation duration must be positive")
	}
	start := t.align(earliest)
	// Skip intervals that end at or before the candidate start. Intervals
	// are sorted and non-overlapping, so their end times are sorted too and
	// the first candidate can be found by binary search.
	i := sort.Search(len(t.busy), func(j int) bool { return t.busy[j].end > start })
	for i < len(t.busy) {
		if start+dur <= t.busy[i].start {
			break // fits in the gap before interval i
		}
		start = t.align(t.busy[i].end)
		i++
	}
	t.insert(i, interval{start, start + dur})
	t.total += dur
	return start
}

// insert places iv at index i, merging with adjacent intervals when they
// touch to keep the calendar compact.
func (t *Timeline) insert(i int, iv interval) {
	// Merge with predecessor if contiguous.
	if i > 0 && t.busy[i-1].end == iv.start {
		t.busy[i-1].end = iv.end
		// Possibly merge with successor too.
		if i < len(t.busy) && t.busy[i].start == t.busy[i-1].end {
			t.busy[i-1].end = t.busy[i].end
			t.busy = append(t.busy[:i], t.busy[i+1:]...)
		}
		return
	}
	if i < len(t.busy) && t.busy[i].start == iv.end {
		t.busy[i].start = iv.start
		return
	}
	t.busy = append(t.busy, interval{})
	copy(t.busy[i+1:], t.busy[i:])
	t.busy[i] = iv
}

// Prune discards reservations that end at or before horizon; the caller
// guarantees no future reservation will be requested earlier than horizon.
func (t *Timeline) Prune(horizon clock.Time) {
	n := 0
	for _, iv := range t.busy {
		if iv.end > horizon {
			t.busy[n] = iv
			n++
		}
	}
	t.busy = t.busy[:n]
}

// BusyUntil returns the end of the last reservation (0 if none), i.e. the
// first time the resource is guaranteed idle forever after.
func (t *Timeline) BusyUntil() clock.Time {
	if len(t.busy) == 0 {
		return 0
	}
	return t.busy[len(t.busy)-1].end
}

// Reserved returns the currently tracked (unpruned) reserved time.
func (t *Timeline) Reserved() clock.Time {
	var sum clock.Time
	for _, iv := range t.busy {
		sum += iv.end - iv.start
	}
	return sum
}

// TotalReserved returns the cumulative reserved time across the whole run,
// unaffected by Prune — the numerator of a utilization figure.
func (t *Timeline) TotalReserved() clock.Time { return t.total }

// Len reports the number of distinct busy intervals currently tracked.
func (t *Timeline) Len() int { return len(t.busy) }
