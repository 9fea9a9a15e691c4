// Package dram models DDR2 logical banks at command granularity. A Bank
// tracks the row-buffer state and the earliest legal issue time of each
// DRAM operation under the Table 2 timing constraints; a DIMM groups banks
// and enforces the inter-bank tRRD spacing and the refresh windows. Ranks,
// the DIMMs of one channel, owns the bank sequence of a transaction and
// counts the operations it issues. The interconnect models
// (internal/fbdchan, internal/ddrbus) own the data buses: they pass the
// bus a transaction's bursts cross, and Ranks books the bursts on it.
//
// The model is transaction-driven rather than edge-triggered: callers ask
// "when could this command issue?" and then commit it, which keeps the
// memory-controller schedulers simple while preserving cycle accuracy.
package dram

import (
	"fmt"

	"fbdsim/internal/addrmap"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/resource"
)

// NoRow marks a closed (precharged or precharging) bank.
const NoRow int64 = -1

// Counters accumulates DRAM operation counts for the power model
// (Section 5.5 estimates power from ACT/PRE pairs and column accesses).
type Counters struct {
	ACT     int64
	PRE     int64
	ColRead int64 // column read accesses, including AMB prefetch fetches
	ColWrit int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.ACT += other.ACT
	c.PRE += other.PRE
	c.ColRead += other.ColRead
	c.ColWrit += other.ColWrit
}

// Columns returns the total number of column accesses.
func (c *Counters) Columns() int64 { return c.ColRead + c.ColWrit }

// Bank is one logical DRAM bank (all physical banks of a rank operated in
// lockstep, per Section 3.2).
type Bank struct {
	t config.Timing

	openRow int64
	// actAt is the issue time of the most recent ACT.
	actAt clock.Time
	// readyAt is when the bank is precharged and may accept an ACT
	// (tRP after the precharge).
	readyAt clock.Time
	// preOKAt is the earliest a PRE may issue (tRAS after ACT, tRPD after
	// a read, tWPD after a write).
	preOKAt clock.Time
	// lastWriteDataEnd is when the data burst of the latest column write
	// ends; a read may not issue until tWTR after it.
	lastWriteDataEnd clock.Time
}

// NewBank returns a precharged, idle bank.
func NewBank(t config.Timing) *Bank {
	return &Bank{t: t, openRow: NoRow}
}

// OpenRow returns the currently open row, or NoRow.
func (b *Bank) OpenRow() int64 { return b.openRow }

// EarliestACT returns the earliest time ≥ now an ACT may issue. The bank
// must be (or become) precharged; tRC from the previous ACT also applies.
// Inter-bank tRRD is enforced by DIMM.
func (b *Bank) EarliestACT(now clock.Time) clock.Time {
	t := maxTime(now, b.readyAt)
	if b.actAt > 0 || b.openRow != NoRow {
		t = maxTime(t, b.actAt+b.t.TRC)
	}
	return t
}

// Activate opens row at time at. The caller must respect EarliestACT.
func (b *Bank) Activate(at clock.Time, row int64, c *Counters) {
	if b.openRow != NoRow {
		panic(fmt.Sprintf("dram: ACT to open bank (row %d open)", b.openRow))
	}
	b.openRow = row
	b.actAt = at
	b.preOKAt = at + b.t.TRAS
	c.ACT++
}

// EarliestRead returns the earliest time ≥ now a column read may issue to
// the open row (tRCD after ACT, tWTR after the last write data).
func (b *Bank) EarliestRead(now clock.Time) clock.Time {
	t := maxTime(now, b.actAt+b.t.TRCD)
	return maxTime(t, b.lastWriteDataEnd+b.t.TWTR)
}

// Read issues a column read at time at and returns when the first data
// beats leave the DRAM (tCL later). It lets the bank precharge tRPD after
// at; a train of column reads reaches the precharge through Ranks.Access,
// which precharges tRPD after the train's last column. burst is not read:
// the signature keeps it, like Write's, because the bench module's
// dram.access_ns kernel calls Read with it.
func (b *Bank) Read(at clock.Time, burst clock.Time, c *Counters) (dataAt clock.Time) {
	b.mustBeOpen("RD")
	b.preOKAt = maxTime(b.preOKAt, at+b.t.TRPD)
	c.ColRead++
	return at + b.t.TCL
}

// EarliestWrite returns the earliest time ≥ now a column write may issue.
func (b *Bank) EarliestWrite(now clock.Time) clock.Time {
	return maxTime(now, b.actAt+b.t.TRCD)
}

// Write issues a column write at time at; data appears tWL later and
// occupies the bus for burst.
func (b *Bank) Write(at clock.Time, burst clock.Time, c *Counters) (dataAt clock.Time) {
	b.mustBeOpen("WR")
	b.preOKAt = maxTime(b.preOKAt, at+b.t.TWPD)
	dataAt = at + b.t.TWL
	b.lastWriteDataEnd = dataAt + burst
	c.ColWrit++
	return dataAt
}

// EarliestPRE returns the earliest time ≥ now a precharge may issue.
func (b *Bank) EarliestPRE(now clock.Time) clock.Time {
	return maxTime(now, b.preOKAt)
}

// Precharge closes the bank at time at; it becomes ready tRP later.
func (b *Bank) Precharge(at clock.Time, c *Counters) {
	b.mustBeOpen("PRE")
	b.openRow = NoRow
	b.readyAt = at + b.t.TRP
	c.PRE++
}

func (b *Bank) mustBeOpen(op string) {
	if b.openRow == NoRow {
		panic(fmt.Sprintf("dram: %s to closed bank", op))
	}
}

func maxTime(a, b clock.Time) clock.Time {
	if a > b {
		return a
	}
	return b
}

// DIMM groups the logical banks behind one AMB (or, for the DDR2 baseline,
// one rank on the channel) and enforces tRRD between activations to
// different banks, plus — when enabled — periodic all-bank refresh windows.
type DIMM struct {
	Banks   []*Bank
	t       config.Timing
	lastACT clock.Time
	hasACT  bool

	// Refresh: every refEvery the DIMM spends refBusy refreshing all
	// banks; no new activation may start inside the window. refPhase
	// staggers DIMMs so a channel never loses every DIMM at once.
	refEvery clock.Time
	refBusy  clock.Time
	refPhase clock.Time

	// busScale is the degraded-mode bus slowdown: every burst occupies
	// busScale× the nominal DDR2 bus time. 1 (healthy) unless degraded.
	busScale int
}

// SetDegradedBus puts the DIMM's DDR2 bus into degraded mode: each data
// burst occupies factor× its nominal bus time (the fault model for a DIMM
// whose interface trains down to a reduced rate). factor <= 1 restores the
// healthy bus.
func (d *DIMM) SetDegradedBus(factor int) {
	if factor < 1 {
		factor = 1
	}
	d.busScale = factor
}

// BusScale returns the bus slowdown factor in effect (1 when healthy).
func (d *DIMM) BusScale() int {
	if d.busScale < 1 {
		return 1
	}
	return d.busScale
}

// SetRefresh enables periodic all-bank refresh: a window of busy every
// interval, offset by phase. The paper's evaluation ignores refresh (its
// ~1-2% bandwidth cost is common to every configuration); this extension
// lets the ablation benchmarks quantify that assumption.
func (d *DIMM) SetRefresh(interval, busy, phase clock.Time) {
	if interval <= busy || busy <= 0 {
		panic("dram: refresh interval must exceed the refresh busy time")
	}
	d.refEvery = interval
	d.refBusy = busy
	d.refPhase = phase
}

// avoidRefresh pushes t past any refresh window it falls inside.
func (d *DIMM) avoidRefresh(t clock.Time) clock.Time {
	if d.refEvery == 0 {
		return t
	}
	pos := (t - d.refPhase) % d.refEvery
	if pos < 0 {
		pos += d.refEvery
	}
	if pos < d.refBusy {
		return t + (d.refBusy - pos)
	}
	return t
}

// NewDIMM builds a DIMM with n precharged banks.
func NewDIMM(n int, t config.Timing) *DIMM {
	d := &DIMM{t: t, Banks: make([]*Bank, n)}
	for i := range d.Banks {
		d.Banks[i] = NewBank(t)
	}
	return d
}

// EarliestACT returns the earliest time ≥ now bank may be activated,
// including the inter-bank tRRD constraint and any refresh window.
func (d *DIMM) EarliestACT(bank int, now clock.Time) clock.Time {
	t := d.Banks[bank].EarliestACT(now)
	if d.hasACT {
		t = maxTime(t, d.lastACT+d.t.TRRD)
	}
	return d.avoidRefresh(t)
}

// Activate issues the ACT and records it for tRRD tracking.
func (d *DIMM) Activate(bank int, at clock.Time, row int64, c *Counters) {
	d.Banks[bank].Activate(at, row, c)
	d.lastACT = at
	d.hasACT = true
}

// DDR2 refresh: each DIMM spends tRFC refreshing all its banks once every
// tREFI.
const (
	tREFI = 7800 * clock.Nanosecond
	tRFC  = 127500 * clock.Picosecond
)

// Ranks is the DRAM side of one memory channel: its DIMMs under one page
// policy, and the counts of the operations issued to them.
type Ranks struct {
	DIMMs []*DIMM
	page  config.PageMode
	burst clock.Time // nominal per-line occupancy of a DIMM's DDR2 bus

	// Counters accumulates DRAM operations for the power model.
	Counters Counters
	// BankConflicts counts activations delayed by bank-level timing
	// (tRC/precharge/tRRD) — the inefficiency source Section 5.2 blames
	// for idle channel cycles and AMB prefetching reduces.
	BankConflicts int64
}

// NewRanks builds the DIMMs of one channel of cfg. With refresh enabled
// their refresh windows are staggered so the channel never loses all of
// them at once.
func NewRanks(cfg *config.Mem) *Ranks {
	gang := clock.Time(cfg.GangWidth)
	// 8 B per beat per physical channel, two beats per tCK.
	beats := (clock.Time(cfg.LineBytes) + 8*gang - 1) / (8 * gang)
	r := &Ranks{
		DIMMs: make([]*DIMM, cfg.DIMMsPerChannel),
		page:  cfg.PageMode,
		burst: beats * cfg.DataRate.TCK() / 2,
	}
	for i := range r.DIMMs {
		r.DIMMs[i] = NewDIMM(cfg.BanksPerDIMM, cfg.Timing)
		if cfg.RefreshEnabled {
			r.DIMMs[i].SetRefresh(tREFI, tRFC, clock.Time(i)*tREFI/clock.Time(len(r.DIMMs)))
		}
	}
	return r
}

// Burst returns the per-line DDR2 bus occupancy on dimm, scaled up when
// the DIMM runs degraded.
func (r *Ranks) Burst(dimm int) clock.Time {
	return r.burst * clock.Time(r.DIMMs[dimm].BusScale())
}

// RowHit reports whether an access to loc would find its row open, which
// only happens under open page.
func (r *Ranks) RowHit(loc addrmap.Location) bool {
	return r.page == config.OpenPage && r.DIMMs[loc.DIMM].Banks[loc.Bank].openRow == loc.Row
}

// Access performs the DRAM side of one transaction of n pipelined column
// accesses to loc (reads, or writes when write is set) whose command
// reaches the DIMM at cmdArrive. Unless the row is a hit, it precharges
// any open row and activates loc.Row, counting a bank conflict when the
// ACT has to wait. It books the n-burst train on bus and, under close
// page, precharges once the train allows. It returns when the train
// starts and ends on bus.
func (r *Ranks) Access(loc addrmap.Location, write bool, n int, cmdArrive clock.Time, bus *resource.Timeline) (start, end clock.Time) {
	dimm := r.DIMMs[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := dimm.t

	if !r.RowHit(loc) {
		rowReady := cmdArrive
		if bank.openRow != NoRow {
			// Row conflict under open page: precharge first.
			rowReady = bank.EarliestPRE(cmdArrive)
			bank.Precharge(rowReady, &r.Counters)
		}
		actAt := dimm.EarliestACT(loc.Bank, rowReady)
		if actAt > rowReady {
			r.BankConflicts++
		}
		dimm.Activate(loc.Bank, actAt, loc.Row, &r.Counters)
	}

	burst := r.Burst(loc.DIMM)
	train := clock.Time(n) * burst
	var colAt, toPRE clock.Time
	if write {
		start = bus.Reserve(bank.EarliestWrite(cmdArrive)+t.TWL, train)
		colAt = start - t.TWL
		bank.Write(colAt, train, &r.Counters)
		r.Counters.ColWrit += int64(n - 1)
		toPRE = t.TWPD
	} else {
		start = bus.Reserve(bank.EarliestRead(cmdArrive)+t.TCL, train)
		colAt = start - t.TCL
		bank.Read(colAt, train, &r.Counters)
		r.Counters.ColRead += int64(n - 1)
		toPRE = t.TRPD
	}

	if r.page == config.ClosePage {
		// Auto-precharge after the train's last column access.
		last := colAt + clock.Time(n-1)*burst
		bank.Precharge(bank.EarliestPRE(last+toPRE), &r.Counters)
	}
	return start, start + train
}
