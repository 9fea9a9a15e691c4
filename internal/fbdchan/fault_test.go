package fbdchan

import (
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/fault"
)

func injector(t *testing.T, mutate func(*config.Fault)) *fault.Injector {
	t.Helper()
	fc := config.Fault{Enabled: true, Seed: 1, DegradedDIMM: -1, DeadBank: -1}
	if mutate != nil {
		mutate(&fc)
	}
	in := fault.FromConfig(fc)
	if in == nil {
		t.Fatal("injector not built")
	}
	return in
}

// TestZeroRateInjectorIsTransparent: an attached injector with all rates
// zero must not move a single edge — the seam's zero-perturbation
// guarantee.
func TestZeroRateInjectorIsTransparent(t *testing.T) {
	plain, _ := newChannel(t, nil)
	faulty, _ := newChannel(t, nil)
	faulty.SetInjector(injector(t, nil))
	for i, addr := range []int64{0, 2 * 64, 5 * 64, 0} {
		ready := ready12 + clock.Time(i)*100*ns
		d0, _ := plain.ScheduleRead(addr, ready)
		d1, _ := faulty.ScheduleRead(addr, ready)
		if d0 != d1 {
			t.Fatalf("read %d: zero-rate injector moved data from %v to %v", i, d0, d1)
		}
	}
	w0 := plain.ScheduleWrite([]int64{7 * 64}, 2000*ns)
	w1 := faulty.ScheduleWrite([]int64{7 * 64}, 2000*ns)
	if w0 != w1 {
		t.Errorf("zero-rate injector moved write completion from %v to %v", w0, w1)
	}
}

// TestSouthRetryCapped: with a 100% southbound error rate every command
// frame replays exactly MaxRetries times, and the data returns later than
// the fault-free run by at least the retry delays.
func TestSouthRetryCapped(t *testing.T) {
	plain, _ := newChannel(t, nil)
	clean, _ := plain.ScheduleRead(0, ready12)

	ch, _ := newChannel(t, nil)
	in := injector(t, func(fc *config.Fault) {
		fc.SouthErrorRate = 1
		fc.MaxRetries = 3
		fc.RetryDelay = 60 * clock.Nanosecond
	})
	ch.SetInjector(in)
	dataAt, _ := ch.ScheduleRead(0, ready12)

	if in.Counters.SouthFrameErrors != 3 {
		t.Errorf("south errors = %d, want MaxRetries = 3", in.Counters.SouthFrameErrors)
	}
	if in.Counters.Retries != 3 {
		t.Errorf("retries = %d, want 3", in.Counters.Retries)
	}
	// Each replay waits RetryDelay past the previous attempt and re-reserves
	// a slot, so the read must trail the clean run by ≥ 3 * 60ns.
	if dataAt < clean+3*60*ns {
		t.Errorf("faulty read at %v, clean at %v; retries cost only %v", dataAt, clean, dataAt-clean)
	}
	if in.Counters.RetryLatency < 3*60*ns {
		t.Errorf("retry latency = %v, want >= 180ns", in.Counters.RetryLatency)
	}
}

// TestNorthRetryDelaysData: northbound CRC errors replay the data transfer.
func TestNorthRetryDelaysData(t *testing.T) {
	plain, _ := newChannel(t, nil)
	clean, _ := plain.ScheduleRead(0, ready12)

	ch, _ := newChannel(t, nil)
	in := injector(t, func(fc *config.Fault) {
		fc.NorthErrorRate = 1
		fc.MaxRetries = 2
	})
	ch.SetInjector(in)
	dataAt, _ := ch.ScheduleRead(0, ready12)
	if in.Counters.NorthFrameErrors != 2 {
		t.Errorf("north errors = %d, want 2", in.Counters.NorthFrameErrors)
	}
	if dataAt <= clean {
		t.Errorf("northbound retries did not delay the read: %v vs clean %v", dataAt, clean)
	}
}

// TestRetryConsumesLinkBandwidth: replayed frames occupy real link slots,
// so an unfaulted request right behind a retried one is pushed back too —
// the mechanism that lets channel errors starve AMB prefetch bandwidth.
func TestRetryConsumesLinkBandwidth(t *testing.T) {
	run := func(rate float64) clock.Time {
		ch, _ := newChannel(t, nil)
		if rate > 0 {
			ch.SetInjector(injector(t, func(fc *config.Fault) {
				fc.NorthErrorRate = rate
				fc.MaxRetries = 8
			}))
		}
		// Saturate the northbound link with same-cycle reads to distinct
		// banks, then measure the tail request's completion.
		var last clock.Time
		for i := int64(0); i < 8; i++ {
			last, _ = ch.ScheduleRead(i*2*64, ready12)
		}
		return last
	}
	if faulty, clean := run(1), run(0); faulty <= clean {
		t.Errorf("retried frames should push the queue tail: %v vs %v", faulty, clean)
	}
}

// TestAMBSoftErrorForcesMiss: a poisoned AMB line is scrubbed on lookup;
// the demand proceeds as a miss (refetching from DRAM) and never counts as
// a hit.
func TestAMBSoftErrorForcesMiss(t *testing.T) {
	ch, _ := apChannel(t, nil)
	in := injector(t, func(fc *config.Fault) { fc.AMBSoftErrorRate = 1 })
	ch.SetInjector(in)

	ch.ScheduleRead(0, ready12) // miss; prefetches lines 1..3
	actBefore := ch.DRAM().Counters.ACT
	dataAt, hit := ch.ScheduleRead(64, 1000*ns)
	if hit {
		t.Fatal("scrubbed line must not hit")
	}
	if in.Counters.AMBSoftErrors != 1 {
		t.Errorf("AMB soft errors = %d, want 1", in.Counters.AMBSoftErrors)
	}
	if ch.AMBStats().Scrubs != 1 {
		t.Errorf("cache scrubs = %d, want 1", ch.AMBStats().Scrubs)
	}
	if ch.DRAM().Counters.ACT == actBefore {
		t.Error("the forced miss must refetch from DRAM")
	}
	if dataAt < 1000*ns+51*ns {
		t.Errorf("forced miss returned at %v, faster than a DRAM access", dataAt)
	}
	// Hit statistics must never count the scrubbed access as a hit.
	if s := ch.AMBStats(); s.Hits != 0 {
		t.Errorf("hits = %d, want 0", s.Hits)
	}
}

// TestDegradedBusSlowsDIMM: a degraded DIMM's burst occupies factor× the
// bus, delaying both its own read (store-and-forward) and back-to-back
// reads to the same DIMM, while other DIMMs are unaffected.
func TestDegradedBusSlowsDIMM(t *testing.T) {
	plain, m := newChannel(t, nil)
	deg, _ := newChannel(t, nil)
	deg.DegradeDIMMBus(0, 2)

	if m.Map(0).DIMM != 0 {
		t.Fatal("test assumes line 0 on DIMM 0")
	}
	c0, _ := plain.ScheduleRead(0, ready12)
	d0, _ := deg.ScheduleRead(0, ready12)
	if d0 <= c0 {
		t.Errorf("degraded DIMM read at %v, healthy at %v; store-and-forward not charged", d0, c0)
	}

	// Back-to-back reads to the degraded DIMM spread out by the slower bus.
	gap := func(ch *Channel) clock.Time {
		a, _ := ch.ScheduleRead(8*64, 5000*ns) // same bank path, later rows — use distinct banks instead
		b, _ := ch.ScheduleRead(16*64, 5000*ns)
		if b < a {
			return a - b
		}
		return b - a
	}
	if m.Map(8*64).DIMM != 0 || m.Map(16*64).DIMM != 0 {
		t.Fatal("test assumes lines 8 and 16 on DIMM 0")
	}
	if gd, gp := gap(deg), gap(plain); gd <= gp {
		t.Errorf("degraded same-DIMM gap %v should exceed healthy gap %v", gd, gp)
	}

	// A DIMM that is not degraded behaves identically.
	other := int64(2 * 64) // DIMM 1 under cacheline interleave
	if m.Map(other).DIMM == 0 {
		t.Fatal("test assumes line 2 off DIMM 0")
	}
	p2, _ := plain.ScheduleRead(other, 20000*ns)
	g2, _ := deg.ScheduleRead(other, 20000*ns)
	if p2 != g2 {
		t.Errorf("healthy DIMM perturbed by another DIMM's degradation: %v vs %v", g2, p2)
	}
}

// TestFaultDeterminism: the same seed reproduces the identical schedule,
// a different seed does not (with rates in the interior of (0,1)).
func TestFaultDeterminism(t *testing.T) {
	run := func(seed int64) []clock.Time {
		ch, _ := newChannel(t, nil)
		ch.SetInjector(injector(t, func(fc *config.Fault) {
			fc.Seed = seed
			fc.SouthErrorRate = 0.3
			fc.NorthErrorRate = 0.3
		}))
		out := make([]clock.Time, 0, 16)
		for i := int64(0); i < 16; i++ {
			d, _ := ch.ScheduleRead(i*2*64, ready12+clock.Time(i)*50*ns)
			out = append(out, d)
		}
		return out
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at read %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the identical schedule")
	}
}
