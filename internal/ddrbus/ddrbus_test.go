package ddrbus

import (
	"testing"

	"fbdsim/internal/addrmap"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
)

const ns = clock.Nanosecond
const ready12 = 12 * ns

func newChannel(t *testing.T, mutate func(*config.Config)) (*Channel, *addrmap.Mapper) {
	t.Helper()
	cfg := config.DDR2Baseline()
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

// TestIdleReadLatency: DDR2's idle read is 3 propagation + 9 stub-bus
// command overhead + 15 tRCD + 15 tCL + 6 data = 48 ns past the controller
// overhead (60 ns end to end) — just below FB-DIMM's 63 ns, matching the
// measured idle latencies of Figure 5.
func TestIdleReadLatency(t *testing.T) {
	ch, _ := newChannel(t, nil)
	dataAt, hit := ch.ScheduleRead(0, ready12)
	if hit {
		t.Fatal("DDR2 never AMB-hits")
	}
	if want := ready12 + 48*ns; dataAt != want {
		t.Errorf("idle read at %v, want %v (60ns total)", dataAt, want)
	}
}

// TestSharedDataBusSerializesAcrossBanks: unlike FB-DIMM's per-DIMM buses,
// one data bus carries everything; two reads to different banks still space
// by the burst time.
func TestSharedDataBusSerializes(t *testing.T) {
	ch, m := newChannel(t, nil)
	cfg := config.DDR2Baseline().Mem
	a, b := int64(0), int64(2*64)
	if m.Map(a).BankID(&cfg) == m.Map(b).BankID(&cfg) {
		t.Fatal("want different banks")
	}
	d1, _ := ch.ScheduleRead(a, ready12)
	d2, _ := ch.ScheduleRead(b, ready12)
	if d2-d1 < 6*ns {
		t.Errorf("shared data bus must serialize: %v apart", d2-d1)
	}
}

// TestReadWriteShareDataBus: a write burst delays a following read — the
// structural hazard FB-DIMM's separate southbound link removes.
func TestReadWriteShareDataBus(t *testing.T) {
	solo, _ := newChannel(t, nil)
	dSolo, _ := solo.ScheduleRead(2*64, ready12)

	ch, _ := newChannel(t, nil)
	// Write to a different bank first; its data occupies the shared bus.
	ch.ScheduleWrite([]int64{0}, ready12)
	dAfterWrite, _ := ch.ScheduleRead(2*64, ready12)
	if dAfterWrite <= dSolo {
		t.Errorf("read unaffected by write-bus occupancy: %v vs solo %v", dAfterWrite, dSolo)
	}
}

// TestOpenPageRowHit: under page interleaving with open rows, the second
// read to the same row skips ACT entirely.
func TestOpenPageRowHit(t *testing.T) {
	ch, m := newChannel(t, func(c *config.Config) {
		c.Mem.Interleave = config.PageInterleave
		c.Mem.PageMode = config.OpenPage
	})
	if !m.SameRow(0, 64) {
		t.Fatal("page interleave: lines 0 and 1 share a row")
	}
	ch.ScheduleRead(0, ready12)
	if ch.Counters.ACT != 1 {
		t.Fatalf("first read ACT = %d", ch.Counters.ACT)
	}
	if !ch.IsFastRead(64, m.Map(64), m.LocalLineID(64)) {
		t.Error("open row must be fast")
	}
	d2, _ := ch.ScheduleRead(64, 600*ns)
	if ch.Counters.ACT != 1 {
		t.Errorf("row hit issued another ACT (total %d)", ch.Counters.ACT)
	}
	// Row hit skips tRCD: 12 cmd + 15 tCL + 6 data = 33ns past ready.
	if want := 600*ns + 33*ns; d2 != want {
		t.Errorf("row-hit read at %v, want %v", d2, want)
	}
	if ch.Counters.PRE != 0 {
		t.Errorf("open page should not precharge yet: PRE = %d", ch.Counters.PRE)
	}
}

// TestOpenPageRowConflict: a different row in the same bank pays
// PRE + ACT before the column access.
func TestOpenPageRowConflict(t *testing.T) {
	ch, m := newChannel(t, func(c *config.Config) {
		c.Mem.Interleave = config.PageInterleave
		c.Mem.PageMode = config.OpenPage
	})
	cfg := config.DDR2Baseline().Mem
	rowBytes := int64(cfg.RowBytes)
	conflict := rowBytes * int64(cfg.TotalBanks()) // same bank, next row
	la, lb := m.Map(0), m.Map(conflict)
	if la.BankID(&cfg) != lb.BankID(&cfg) || la.Row == lb.Row {
		t.Fatalf("addresses do not row-conflict: %v vs %v", la, lb)
	}
	ch.ScheduleRead(0, ready12)
	d2, _ := ch.ScheduleRead(conflict, 500*ns)
	if ch.Counters.PRE != 1 || ch.Counters.ACT != 2 {
		t.Errorf("PRE/ACT = %d/%d, want 1/2", ch.Counters.PRE, ch.Counters.ACT)
	}
	// tRP + tRCD + tCL + transfer + cmd ≥ 54ns past ready.
	if d2 < 500*ns+54*ns {
		t.Errorf("row conflict resolved too fast: %v", d2)
	}
}

func TestWriteGroupSingleActivation(t *testing.T) {
	ch, _ := newChannel(t, func(c *config.Config) {
		c.Mem.Interleave = config.MultiCachelineInterleave
	})
	ch.ScheduleWrite([]int64{0, 64, 128, 192}, ready12)
	if ch.Counters.ACT != 1 || ch.Counters.ColWrit != 4 {
		t.Errorf("ACT=%d writes=%d, want 1/4", ch.Counters.ACT, ch.Counters.ColWrit)
	}
}

func TestLinkBytes(t *testing.T) {
	ch, _ := newChannel(t, nil)
	ch.ScheduleRead(0, ready12)
	ch.ScheduleWrite([]int64{2 * 64}, ready12)
	if ch.Links.BytesNorth != 64 || ch.Links.BytesSouth != 64 {
		t.Errorf("bytes = %+v", ch.Links)
	}
}

func TestClosePageNeverFast(t *testing.T) {
	ch, m := newChannel(t, nil)
	ch.ScheduleRead(0, ready12)
	if ch.IsFastRead(0, m.Map(0), m.LocalLineID(0)) {
		t.Error("close-page DDR2 has no fast reads")
	}
}

func TestHousekeepPreservesFutureScheduling(t *testing.T) {
	ch, _ := newChannel(t, nil)
	ch.ScheduleRead(0, ready12)
	ch.Housekeep(500 * ns)
	d, _ := ch.ScheduleRead(2*64, 1200*ns)
	if want := 1200*ns + 48*ns; d != want {
		t.Errorf("post-housekeep read at %v, want %v", d, want)
	}
}
