package resource

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fbdsim/internal/clock"
)

const ns = clock.Nanosecond

func TestReserveOnEmptyTimeline(t *testing.T) {
	var tl Timeline
	if got := tl.Reserve(10*ns, 5*ns); got != 10*ns {
		t.Errorf("start = %v, want 10ns", got)
	}
	if got := tl.BusyUntil(); got != 15*ns {
		t.Errorf("busy until %v, want 15ns", got)
	}
}

func TestBackToBackReservations(t *testing.T) {
	var tl Timeline
	a := tl.Reserve(0, 6*ns)
	b := tl.Reserve(0, 6*ns)
	c := tl.Reserve(0, 6*ns)
	if a != 0 || b != 6*ns || c != 12*ns {
		t.Errorf("got %v %v %v", a, b, c)
	}
	if tl.Len() != 1 {
		t.Errorf("contiguous reservations should merge: %d intervals", tl.Len())
	}
}

// TestGapFilling is the property the AMB-hit path depends on: a
// short transfer requested after a far-future reservation still gets the
// earlier free slot.
func TestGapFilling(t *testing.T) {
	var tl Timeline
	far := tl.Reserve(100*ns, 6*ns)
	if far != 100*ns {
		t.Fatalf("far start %v", far)
	}
	near := tl.Reserve(10*ns, 6*ns)
	if near != 10*ns {
		t.Errorf("near reservation = %v, want 10ns (gap before 100ns)", near)
	}
	// A transfer too big for the gap goes after the far one.
	big := tl.Reserve(20*ns, 90*ns)
	if big != 106*ns {
		t.Errorf("big reservation = %v, want 106ns", big)
	}
}

func TestExactGapFit(t *testing.T) {
	var tl Timeline
	tl.Reserve(0, 10*ns)
	tl.Reserve(20*ns, 10*ns)
	got := tl.Reserve(0, 10*ns) // exactly fills [10,20)
	if got != 10*ns {
		t.Errorf("exact fit = %v, want 10ns", got)
	}
	if tl.Len() != 1 {
		t.Errorf("filled gap should merge all intervals: %d", tl.Len())
	}
}

func TestQuantization(t *testing.T) {
	tl := NewQuantized(6 * ns)
	if got := tl.Reserve(1*ns, 6*ns); got != 6*ns {
		t.Errorf("quantized start = %v, want 6ns", got)
	}
	if got := tl.Reserve(0, 6*ns); got != 0 {
		t.Errorf("aligned gap = %v, want 0", got)
	}
	if got := tl.Reserve(13*ns, 3*ns); got != 18*ns {
		t.Errorf("start = %v, want 18ns", got)
	}
}

func TestPrune(t *testing.T) {
	var tl Timeline
	tl.Reserve(0, 10*ns)
	tl.Reserve(20*ns, 10*ns)
	tl.Reserve(40*ns, 10*ns)
	tl.Prune(30 * ns)
	if tl.Len() != 1 {
		t.Errorf("after prune: %d intervals, want 1", tl.Len())
	}
	if got := tl.Reserve(41*ns, 5*ns); got != 50*ns {
		t.Errorf("reservation after prune = %v, want 50ns", got)
	}
}

func TestReserved(t *testing.T) {
	var tl Timeline
	tl.Reserve(0, 10*ns)
	tl.Reserve(20*ns, 5*ns)
	if got := tl.Reserved(); got != 15*ns {
		t.Errorf("Reserved = %v, want 15ns", got)
	}
}

func TestZeroDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero duration")
		}
	}()
	var tl Timeline
	tl.Reserve(0, 0)
}

// TestNoOverlapProperty reserves randomly and checks that no two
// reservations ever overlap and every start honours its earliest bound.
func TestNoOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		quantum := clock.Time(0)
		if rng.Intn(2) == 1 {
			quantum = 2 * ns
		}
		tl := NewQuantized(quantum)
		type iv struct{ s, e clock.Time }
		var got []iv
		for i := 0; i < 200; i++ {
			earliest := clock.Time(rng.Intn(500)) * ns
			dur := clock.Time(1+rng.Intn(20)) * ns
			s := tl.Reserve(earliest, dur)
			if s < earliest {
				return false
			}
			if quantum > 0 && s%quantum != 0 {
				return false
			}
			got = append(got, iv{s, s + dur})
		}
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				if got[i].s < got[j].e && got[j].s < got[i].e {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEarliestFeasibleProperty: the chosen slot is the earliest feasible
// one — no aligned start point before it would have fit.
func TestEarliestFeasibleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tl Timeline
	type iv struct{ s, e clock.Time }
	var existing []iv
	fits := func(s clock.Time, d clock.Time) bool {
		for _, x := range existing {
			if s < x.e && x.s < s+d {
				return false
			}
		}
		return true
	}
	for i := 0; i < 300; i++ {
		earliest := clock.Time(rng.Intn(300)) * ns
		dur := clock.Time(1+rng.Intn(15)) * ns
		s := tl.Reserve(earliest, dur)
		for cand := earliest; cand < s; cand += ns {
			if fits(cand, dur) {
				t.Fatalf("slot %v chosen but %v would fit (dur %v)", s, cand, dur)
			}
		}
		if !fits(s, dur) {
			t.Fatalf("chosen slot %v overlaps", s)
		}
		existing = append(existing, iv{s, s + dur})
	}
}

// BenchmarkReserve measures one booking on a frame-aligned link calendar
// kept about three-quarters busy: each transfer is ready a random lead
// after the last one arrived, so some land past the booked tail and some
// fill a gap earlier bookings left, and the calendar is pruned behind the
// stream as channel housekeeping prunes it.
func BenchmarkReserve(b *testing.B) {
	const frame = 3 * ns
	rng := rand.New(rand.NewSource(1))
	lead := make([]clock.Time, 1024)
	for i := range lead {
		lead[i] = clock.Time(rng.Intn(48)) * ns
	}
	tl := NewQuantized(frame)
	var now clock.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 8 * ns
		startSink = tl.Reserve(now+lead[i%len(lead)], 2*frame)
		if i%len(lead) == len(lead)-1 {
			tl.Prune(now)
		}
	}
}

var startSink clock.Time
