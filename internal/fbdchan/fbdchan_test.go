package fbdchan

import (
	"testing"

	"fbdsim/internal/addrmap"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
)

const ns = clock.Nanosecond

// ready12 mimics the controller: a request arriving at t=0 reaches the
// channel with the 12 ns controller overhead already spent.
const ready12 = 12 * ns

func newChannel(t *testing.T, mutate func(*config.Config)) (*Channel, *addrmap.Mapper) {
	t.Helper()
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	m := addrmap.New(&cfg.Mem)
	mem := cfg.Mem
	return New(&mem, m), m
}

func apChannel(t *testing.T, mutate func(*config.Config)) (*Channel, *addrmap.Mapper) {
	t.Helper()
	return newChannel(t, func(c *config.Config) {
		*c = config.WithAMBPrefetch(*c)
		if mutate != nil {
			mutate(c)
		}
	})
}

// TestIdleReadLatency verifies the Section 5.2 decomposition at channel
// level: 3 cmd + 15 tRCD + 15 tCL + 6 data + 12 AMB hops = 51 ns past the
// controller overhead (63 ns end to end).
func TestIdleReadLatency(t *testing.T) {
	ch, _ := newChannel(t, nil)
	dataAt, hit := ch.ScheduleRead(0, ready12)
	if hit {
		t.Fatal("no AMB cache: must not hit")
	}
	if want := ready12 + 51*ns; dataAt != want {
		t.Errorf("idle read data at %v, want %v (63ns total)", dataAt, want)
	}
}

// TestAMBHitLatency verifies an AMB-cache hit takes 3 cmd + 6 data + 12
// hops = 21 ns past the overhead (33 ns end to end).
func TestAMBHitLatency(t *testing.T) {
	ch, _ := apChannel(t, nil)
	ch.ScheduleRead(0, ready12) // miss; prefetches lines 1..3
	const later = 1000 * ns
	dataAt, hit := ch.ScheduleRead(64, later)
	if !hit {
		t.Fatal("line 1 must hit after the group fetch")
	}
	if want := later + 21*ns; dataAt != want {
		t.Errorf("AMB hit data at %v, want %v (33ns total)", dataAt, want)
	}
}

// TestFullLatencyHits verifies the FBD-APFL arm: hits pay tRCD+tCL extra.
func TestFullLatencyHits(t *testing.T) {
	ch, _ := apChannel(t, func(c *config.Config) { c.Mem.FullLatencyHits = true })
	ch.ScheduleRead(0, ready12)
	const later = 1000 * ns
	dataAt, hit := ch.ScheduleRead(64, later)
	if !hit {
		t.Fatal("expected hit")
	}
	if want := later + 51*ns; dataAt != want {
		t.Errorf("APFL hit data at %v, want %v (full 63ns path)", dataAt, want)
	}
}

// TestGroupFetchCountersAndFills: one demand miss performs exactly one
// ACT/PRE pair and K pipelined column reads, and deposits K-1 lines in the
// AMB cache.
func TestGroupFetchCountersAndFills(t *testing.T) {
	ch, m := apChannel(t, nil)
	ch.ScheduleRead(0, ready12)
	if ch.Counters.ACT != 1 || ch.Counters.PRE != 1 {
		t.Errorf("ACT/PRE = %d/%d, want 1/1", ch.Counters.ACT, ch.Counters.PRE)
	}
	if ch.Counters.ColRead != 4 {
		t.Errorf("column reads = %d, want K=4", ch.Counters.ColRead)
	}
	for _, line := range []int64{64, 128, 192} {
		if !ch.ambs[0].Contains(line, m.LocalLineID(line)) {
			t.Errorf("line %d missing from AMB cache", line/64)
		}
	}
	s := ch.AMBStats()
	if s.Prefetched != 3 {
		t.Errorf("prefetched = %d, want 3", s.Prefetched)
	}
	if s.Reads != 1 || s.Hits != 0 {
		t.Errorf("reads/hits = %d/%d", s.Reads, s.Hits)
	}
}

// TestInflightRace: a demand read racing its own region's prefetch waits
// for the line to land in the AMB, not for a new DRAM access.
func TestInflightRace(t *testing.T) {
	ch, _ := apChannel(t, nil)
	ch.ScheduleRead(0, ready12)
	actBefore := ch.Counters.ACT
	// Immediately demand line 3 (the last to arrive, at burstStart+4*burst;
	// the miss's burst starts at 45ns with burst 6ns → in AMB at 69ns).
	dataAt, hit := ch.ScheduleRead(192, ready12)
	if !hit {
		t.Fatal("in-flight line must count as a hit")
	}
	if ch.Counters.ACT != actBefore {
		t.Error("in-flight hit must not touch DRAM")
	}
	// It cannot return before the line reaches the AMB (69ns) plus the
	// northbound transfer and hops.
	if dataAt < 69*ns+6*ns+12*ns {
		t.Errorf("race hit returned at %v, before the prefetch landed", dataAt)
	}
}

// TestWriteInvalidatesAMB: the design invalidates written lines so the AMB
// never serves stale data; the write-update ablation keeps them.
func TestWriteInvalidatesAMB(t *testing.T) {
	ch, m := apChannel(t, nil)
	ch.ScheduleRead(0, ready12)
	ch.ScheduleWrite([]int64{64}, 500*ns)
	if ch.ambs[0].Contains(64, m.LocalLineID(64)) {
		t.Error("written line must be invalidated")
	}
	if _, hit := ch.ScheduleRead(64, 2000*ns); hit {
		t.Error("read after write must miss the AMB cache")
	}

	upd, m2 := apChannel(t, func(c *config.Config) { c.Mem.AMBWriteUpdate = true })
	upd.ScheduleRead(0, ready12)
	upd.ScheduleWrite([]int64{64}, 500*ns)
	if !upd.ambs[0].Contains(64, m2.LocalLineID(64)) {
		t.Error("write-update ablation must keep the line")
	}
}

// TestVRL: with variable read latency a near DIMM pays one hop (3 ns)
// instead of the full chain (12 ns).
func TestVRL(t *testing.T) {
	base, _ := newChannel(t, nil)
	vrl, m := newChannel(t, func(c *config.Config) { c.Mem.VRL = true })
	addr := int64(0) // line 0: channel 0, DIMM 0 under cacheline interleave
	if m.Map(addr).DIMM != 0 {
		t.Fatal("test assumes DIMM 0")
	}
	d0, _ := base.ScheduleRead(addr, ready12)
	d1, _ := vrl.ScheduleRead(addr, ready12)
	if d0-d1 != 9*ns {
		t.Errorf("VRL saves %v on DIMM 0, want 9ns (3 vs 12)", d0-d1)
	}
}

// TestBankConflictSerializes: two reads to different rows of one bank are
// separated by the activate-to-activate time, idling the channel — the
// inefficiency AMB prefetching attacks.
func TestBankConflictSerializes(t *testing.T) {
	ch, m := newChannel(t, nil)
	cfg := config.Default().Mem
	// Same bank, next row: advance by totalBanks * linesPerRow... simpler:
	// line i and line i + totalBanks*linesPerRow share bank but not row.
	stride := int64(cfg.TotalBanks()) * int64(cfg.RowBytes/cfg.LineBytes) * 64
	a, b := int64(0), stride
	la, lb := m.Map(a), m.Map(b)
	if la.Bank != lb.Bank || la.DIMM != lb.DIMM || la.Row == lb.Row {
		t.Fatalf("addresses do not conflict: %v vs %v", la, lb)
	}
	d1, _ := ch.ScheduleRead(a, ready12)
	d2, _ := ch.ScheduleRead(b, ready12)
	// The second activation cannot start before ACT1 + tRC (15ns + 54ns),
	// so its data lags the first by at least tRC - small overlaps.
	if d2-d1 < 30*ns {
		t.Errorf("conflicting reads only %v apart; bank conflict not modeled", d2-d1)
	}

	// Control: reads to different banks overlap much more tightly.
	ch2, m2 := newChannel(t, nil)
	c, dAddr := int64(0), int64(2*64) // lines 0 and 2: same channel, different bank path
	if m2.Map(c).BankID(&cfg) == m2.Map(dAddr).BankID(&cfg) {
		t.Fatal("control addresses share a bank")
	}
	e1, _ := ch2.ScheduleRead(c, ready12)
	e2, _ := ch2.ScheduleRead(dAddr, ready12)
	if e2-e1 >= d2-d1 {
		t.Errorf("independent banks (%v apart) should beat conflicting banks (%v apart)", e2-e1, d2-d1)
	}
}

// TestNorthboundSerializesIndependentDIMMs: reads to different DIMMs still
// share the northbound link, spacing completions by the line transfer time.
func TestNorthboundSerializesIndependentDIMMs(t *testing.T) {
	ch, m := newChannel(t, nil)
	cfg := config.Default().Mem
	// Lines on channel 0, different DIMMs: lines 0 and 2 (line 2 → unit 2:
	// channel 0, DIMM 1).
	a, b := int64(0), int64(2*64)
	if m.Map(a).DIMM == m.Map(b).DIMM {
		t.Fatal("want different DIMMs")
	}
	_ = cfg
	d1, _ := ch.ScheduleRead(a, ready12)
	d2, _ := ch.ScheduleRead(b, ready12)
	if d2-d1 < 6*ns {
		t.Errorf("northbound must serialize transfers: %v apart", d2-d1)
	}
}

// TestWriteGroupSingleActivation: a batch of same-region writebacks costs
// one ACT/PRE pair and n column writes.
func TestWriteGroupSingleActivation(t *testing.T) {
	ch, _ := apChannel(t, nil)
	done := ch.ScheduleWrite([]int64{0, 64, 128, 192}, ready12)
	if ch.Counters.ACT != 1 || ch.Counters.PRE != 1 {
		t.Errorf("ACT/PRE = %d/%d, want 1/1", ch.Counters.ACT, ch.Counters.PRE)
	}
	if ch.Counters.ColWrit != 4 {
		t.Errorf("column writes = %d, want 4", ch.Counters.ColWrit)
	}
	if done <= ready12 {
		t.Error("completion time not in the future")
	}
	if ch.Links.BytesSouth != 4*64 {
		t.Errorf("south bytes = %d", ch.Links.BytesSouth)
	}
}

// TestSeparateWritesCostSeparateActivations is the contrast case for the
// group-write optimization.
func TestSeparateWritesCostSeparateActivations(t *testing.T) {
	ch, _ := newChannel(t, nil)
	// Under cacheline interleaving, consecutive lines 0 and 2 (same
	// channel) live in different banks → separate activations.
	ch.ScheduleWrite([]int64{0}, ready12)
	ch.ScheduleWrite([]int64{2 * 64}, ready12)
	if ch.Counters.ACT != 2 {
		t.Errorf("ACT = %d, want 2", ch.Counters.ACT)
	}
}

func TestLinkByteAccounting(t *testing.T) {
	ch, _ := newChannel(t, nil)
	ch.ScheduleRead(0, ready12)
	ch.ScheduleRead(2*64, ready12)
	ch.ScheduleWrite([]int64{4 * 64}, ready12)
	if ch.Links.BytesNorth != 128 || ch.Links.BytesSouth != 64 {
		t.Errorf("bytes = %d north / %d south", ch.Links.BytesNorth, ch.Links.BytesSouth)
	}
}

func TestIsFastRead(t *testing.T) {
	ch, m := apChannel(t, nil)
	fast := func(c *Channel, m *addrmap.Mapper, line int64) bool {
		return c.IsFastRead(line, m.Map(line), m.LocalLineID(line))
	}
	if fast(ch, m, 64) {
		t.Error("cold cache: nothing is fast")
	}
	ch.ScheduleRead(0, ready12)
	if !fast(ch, m, 64) {
		t.Error("prefetched line must be fast")
	}
	if fast(ch, m, 4*64) {
		t.Error("next region must not be fast")
	}
	plain, pm := newChannel(t, nil)
	if fast(plain, pm, 0) {
		t.Error("no AMB cache and close-page: never fast")
	}
}

// TestHousekeepPreservesFutureScheduling: pruning history must not affect
// subsequent requests.
func TestHousekeepPreservesFutureScheduling(t *testing.T) {
	ch, _ := newChannel(t, nil)
	ch.ScheduleRead(0, ready12)
	ch.Housekeep(500 * ns)
	dataAt, _ := ch.ScheduleRead(2*64, 1000*ns)
	if want := 1000*ns + 51*ns; dataAt != want {
		t.Errorf("post-housekeep idle read at %v, want %v", dataAt, want)
	}
}

// regionStride is the distance between consecutive prefetch regions on one
// DIMM of the default AMB-prefetching configuration: region IDs advance by
// channels*dimms.
func regionStride() int64 {
	cfg := config.WithAMBPrefetch(config.Default()).Mem
	return int64(cfg.LogicalChannels*cfg.DIMMsPerChannel*cfg.RegionLines) * 64
}

// TestEvictionDropsInflight: when a prefetched-but-not-used line is evicted
// from the AMB cache before it lands, its pending fill goes with it: the
// line reads as an AMB miss, never as a hit waiting for a stale fill.
func TestEvictionDropsInflight(t *testing.T) {
	ch, m := apChannel(t, func(c *config.Config) {
		c.Mem.AMBCacheLines = 4 // tiny cache: one region fills it
		c.Mem.AMBCacheAssoc = config.FullAssoc
	})
	ch.ScheduleRead(0, ready12)            // prefetches lines 1..3
	ch.ScheduleRead(regionStride(), 20*ns) // FIFO evicts lines 1 and 2 in transit
	for _, f := range ch.ambs[0].AppendFills(nil) {
		if f.Line == 64 || f.Line == 128 {
			t.Errorf("evicted line %d still lands at %v", f.Line/64, f.At)
		}
	}
	if ch.IsFastRead(64, m.Map(64), m.LocalLineID(64)) {
		t.Error("evicted line still reads as fast")
	}
	actBefore := ch.Counters.ACT
	if _, hit := ch.ScheduleRead(64, 30*ns); hit || ch.Counters.ACT == actBefore {
		t.Error("evicted line must be refetched from DRAM")
	}
}

// TestDataRateScalesBurst: at 533 MT/s the idle latency grows by the longer
// frame/data times while DRAM core timings stay fixed.
func TestDataRateScalesBurst(t *testing.T) {
	fast, _ := newChannel(t, nil)
	slow, _ := newChannel(t, func(c *config.Config) { c.Mem.DataRate = clock.DDR2_533 })
	df, _ := fast.ScheduleRead(0, ready12)
	ds, _ := slow.ScheduleRead(0, ready12)
	if ds <= df {
		t.Errorf("533 MT/s read (%v) should be slower than 667 (%v)", ds, df)
	}
}

// TestSoakInvariants drives thousands of random transactions through the
// channel and checks global invariants: monotone resource behaviour, legal
// completion times, close-page ACT/PRE pairing, and statistics consistency.
func TestSoakInvariants(t *testing.T) {
	for _, ap := range []bool{false, true} {
		ch, m := newChannel(t, func(c *config.Config) {
			if ap {
				*c = config.WithAMBPrefetch(*c)
			}
		})
		rng := uint64(12345)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		ready := ready12
		var reads int64
		for i := 0; i < 5000; i++ {
			addr := int64(next()%(1<<22)) * 64
			ready += clock.Time(next()%20) * ns
			if next()%4 == 0 {
				done := ch.ScheduleWrite([]int64{m.LineAddr(addr)}, ready)
				if done <= ready {
					t.Fatalf("write completed before it was ready: %v <= %v", done, ready)
				}
				continue
			}
			reads++
			dataAt, _ := ch.ScheduleRead(addr, ready)
			// A read can never beat the minimal hit path (cmd + transfer
			// + hops = 21ns past ready).
			if dataAt < ready+21*ns {
				t.Fatalf("read %d impossibly fast: %v after ready %v", i, dataAt, ready)
			}
			if i%512 == 0 {
				ch.Housekeep(ready)
			}
		}
		if ch.Counters.ACT != ch.Counters.PRE {
			t.Errorf("ap=%v: close-page ACT %d != PRE %d", ap, ch.Counters.ACT, ch.Counters.PRE)
		}
		if ap {
			s := ch.AMBStats()
			if s.Reads != reads {
				t.Errorf("AMB reads %d != issued reads %d", s.Reads, reads)
			}
			if s.Hits > s.Reads || s.Evictions > s.Prefetched {
				t.Errorf("AMB stats inconsistent: %+v", s)
			}
			// Column reads = misses*K + 0 for hits.
			misses := reads - s.Hits
			if ch.Counters.ColRead != misses*4 {
				t.Errorf("column reads %d != misses %d * K", ch.Counters.ColRead, misses)
			}
		} else if ch.Counters.ColRead != reads {
			t.Errorf("column reads %d != reads %d", ch.Counters.ColRead, reads)
		}
	}
}

// TestScheduleReadMissAllocatesNothing: a steady-state AMB miss fetches its
// group through the channel's own buffer.
func TestScheduleReadMissAllocatesNothing(t *testing.T) {
	ch, _ := apChannel(t, nil)
	var addr int64
	ready := ready12
	miss := func() {
		addr += regionStride() // a new region on DIMM 0: always a miss
		ready += 100 * ns
		if _, hit := ch.ScheduleRead(addr, ready); hit {
			t.Fatalf("read of %#x hit the AMB cache", addr)
		}
		ch.Housekeep(ready)
	}
	for i := 0; i < 100; i++ {
		miss()
	}
	if n := testing.AllocsPerRun(200, miss); n != 0 {
		t.Errorf("an AMB miss allocates %v times, want 0", n)
	}
}

// TestFunctionalReadAllocatesNothing: the functional path's group install
// reuses the same buffer.
func TestFunctionalReadAllocatesNothing(t *testing.T) {
	ch, _ := apChannel(t, nil)
	var addr int64
	miss := func() {
		addr += regionStride()
		ch.FunctionalRead(addr)
	}
	for i := 0; i < 100; i++ {
		miss()
	}
	if n := testing.AllocsPerRun(200, miss); n != 0 {
		t.Errorf("a functional AMB miss allocates %v times, want 0", n)
	}
	if s := ch.AMBStats(); s.Hits != 0 || s.Prefetched != 3*s.Reads {
		t.Errorf("every functional read must miss and install K-1 lines: %+v", s)
	}
}

// TestFunctionalMatchesTimed: the functional twins leave the AMB tag
// tables exactly as the timed paths do once each access has drained — the
// equivalence the sampled tier's functional warming rests on. Two channels
// see one spatially local read/write stream: one schedules every access
// and lets it drain (prefetch fills landed, history pruned) before the
// next, the other only mirrors it functionally. Per-AMB statistics and the
// residency of every line in the span must agree.
func TestFunctionalMatchesTimed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"default", nil},
		{"page-open", func(c *config.Config) {
			c.Mem.Interleave = config.PageInterleave
			c.Mem.PageMode = config.OpenPage
		}},
		{"2way-k8", func(c *config.Config) {
			c.Mem.AMBCacheAssoc = 2
			c.Mem.RegionLines = 8
		}},
		{"direct-k2-32", func(c *config.Config) {
			c.Mem.AMBCacheAssoc = 1
			c.Mem.RegionLines = 2
			c.Mem.AMBCacheLines = 32
		}},
		{"lru", func(c *config.Config) { c.Mem.AMBReplacement = config.LRU }},
		{"write-update", func(c *config.Config) { c.Mem.AMBWriteUpdate = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			timed, m := apChannel(t, tc.mutate)
			functional, _ := apChannel(t, tc.mutate)

			const span = 1 << 14 // lines
			rng := uint64(88172645463325252)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			batch := make([]int64, 1)
			ready := ready12
			var line int64
			for i := 0; i < 40_000; i++ {
				switch r := next() % 8; {
				case r < 5:
					line++ // stream forward
				case r < 6:
					line -= int64(next() % 8) // revisit a recent line
				default:
					line = int64(next() % span) // jump
				}
				line = (line%span + span) % span
				addr := line * 64
				var done clock.Time
				if next()%4 == 0 {
					batch[0] = addr
					done = timed.ScheduleWrite(batch, ready)
					functional.FunctionalWrite(addr)
				} else {
					done, _ = timed.ScheduleRead(addr, ready)
					functional.FunctionalRead(addr)
				}
				ready = done + 1000*ns
				timed.Housekeep(ready)
			}

			for d := range timed.ambs {
				if ts, fs := timed.ambs[d].Stats, functional.ambs[d].Stats; ts != fs {
					t.Errorf("DIMM %d stats: timed %+v, functional %+v", d, ts, fs)
				}
			}
			for l := int64(0); l < span; l++ {
				addr := l * 64
				d, id := m.Map(addr).DIMM, m.LocalLineID(addr)
				if tr, fr := timed.ambs[d].Contains(addr, id), functional.ambs[d].Contains(addr, id); tr != fr {
					t.Fatalf("line %d: resident timed=%v functional=%v", l, tr, fr)
				}
			}

			// The stream must reach every path the twins mirror.
			s := timed.AMBStats()
			t.Logf("%+v", s)
			if s.Hits == 0 || s.Evictions == 0 {
				t.Errorf("stream exercised no hits or no evictions: %+v", s)
			}
			if wantInv := !timed.cfg.AMBWriteUpdate; (s.Invalidations > 0) != wantInv {
				t.Errorf("invalidations %d, want some: %v", s.Invalidations, wantInv)
			}
		})
	}
}

// BenchmarkChannelScheduling micro-benchmarks the FB-DIMM channel model:
// scheduling cost per transaction.
func BenchmarkChannelScheduling(b *testing.B) {
	cfg := config.WithAMBPrefetch(config.Default())
	mem := cfg.Mem
	ch := New(&mem, addrmap.New(&mem))
	b.ReportAllocs()
	b.ResetTimer()
	ready := clock.Time(0)
	for i := 0; i < b.N; i++ {
		addr := int64(i%4096) * 64
		ready += 12 * clock.Nanosecond
		ch.ScheduleRead(addr, ready)
		if i%1024 == 0 {
			ch.Housekeep(ready)
		}
	}
}
