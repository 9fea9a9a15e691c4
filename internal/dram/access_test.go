package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fbdsim/internal/addrmap"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/resource"
)

// refRanks is the DRAM side of a channel as fbdchan and ddrbus each wrote
// it out before Ranks.Access: fbdRead is fbdchan's bankRead, fbdWrite the
// bank half of its ScheduleWrite, and ddrRead, ddrWrite and openRow the
// same for ddrbus, with the DIMM refresh set-up of both constructors.
// The bodies are kept as they were but for the receiver.
// TestAccessMatchesReference holds Ranks to them step by step.
type refRanks struct {
	cfg     *config.Mem
	burst   clock.Time
	dimmBus []*resource.Timeline // FB-DIMM: one DDR2 bus per DIMM
	dataBus *resource.Timeline   // DDR2: one bus shared by every DIMM
	dimms   []*DIMM

	Counters      Counters
	BankConflicts int64
}

func newRefRanks(cfg *config.Mem) *refRanks {
	tck := cfg.DataRate.TCK()
	gang := clock.Time(cfg.GangWidth)
	line := clock.Time(cfg.LineBytes)
	c := &refRanks{cfg: cfg, dataBus: resource.NewQuantized(0)}
	// DIMM DDR2 bus: 8 B per beat per physical channel, two beats per tCK.
	beats := (line + 8*gang - 1) / (8 * gang)
	c.burst = beats * tck / 2

	c.dimmBus = make([]*resource.Timeline, cfg.DIMMsPerChannel)
	c.dimms = make([]*DIMM, cfg.DIMMsPerChannel)
	for i := range c.dimms {
		c.dimmBus[i] = resource.NewQuantized(0)
		c.dimms[i] = NewDIMM(cfg.BanksPerDIMM, cfg.Timing)
		if cfg.RefreshEnabled {
			// The defaults of the former config.Mem.RefreshTimings.
			trefi, trfc := 7800*clock.Nanosecond, 127500*clock.Picosecond
			// Stagger DIMMs so the channel never loses all of them at once.
			c.dimms[i].SetRefresh(trefi, trfc, clock.Time(i)*trefi/clock.Time(cfg.DIMMsPerChannel))
		}
	}
	return c
}

func (c *refRanks) burstFor(dimm int) clock.Time {
	if s := c.dimms[dimm].BusScale(); s > 1 {
		return c.burst * clock.Time(s)
	}
	return c.burst
}

// fbdFast and ddrFast are the open-row halves of the two IsFastRead.
func (c *refRanks) fbdFast(loc addrmap.Location) bool {
	if c.cfg.PageMode == config.OpenPage {
		return c.dimms[loc.DIMM].Banks[loc.Bank].OpenRow() == loc.Row
	}
	return false
}

func (c *refRanks) ddrFast(loc addrmap.Location) bool {
	return c.cfg.PageMode == config.OpenPage && c.dimms[loc.DIMM].Banks[loc.Bank].OpenRow() == loc.Row
}

func (c *refRanks) fbdRead(loc addrmap.Location, cmdArrive clock.Time, n int) clock.Time {
	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := c.cfg.Timing

	rowReady := cmdArrive
	if c.cfg.PageMode == config.OpenPage && bank.OpenRow() == loc.Row {
		// Row hit: column access may issue immediately.
	} else {
		if bank.OpenRow() != NoRow {
			// Row conflict under open-page mode: precharge first.
			preAt := bank.EarliestPRE(cmdArrive)
			bank.Precharge(preAt, &c.Counters)
			rowReady = preAt
		}
		actAt := dimm.EarliestACT(loc.Bank, rowReady)
		if actAt > rowReady {
			c.BankConflicts++
		}
		dimm.Activate(loc.Bank, actAt, loc.Row, &c.Counters)
	}

	burst := c.burstFor(loc.DIMM)
	rdMin := bank.EarliestRead(cmdArrive)
	busAt := c.dimmBus[loc.DIMM].Reserve(rdMin+t.TCL, clock.Time(n)*burst)
	rdAt := busAt - t.TCL
	bank.Read(rdAt, clock.Time(n)*burst, &c.Counters)
	c.Counters.ColRead += int64(n - 1) // remaining pipelined column accesses

	if c.cfg.PageMode == config.ClosePage {
		// Auto-precharge once the burst train and tRAS allow it.
		lastRd := rdAt + clock.Time(n-1)*burst
		preAt := bank.EarliestPRE(lastRd + t.TRPD)
		bank.Precharge(preAt, &c.Counters)
	}
	return busAt
}

func (c *refRanks) fbdWrite(loc addrmap.Location, cmdArrive clock.Time, n int) (busAt, done clock.Time) {
	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := c.cfg.Timing

	if c.cfg.PageMode == config.OpenPage && bank.OpenRow() == loc.Row {
		// Row hit.
	} else {
		rowReady := cmdArrive
		if bank.OpenRow() != NoRow {
			preAt := bank.EarliestPRE(cmdArrive)
			bank.Precharge(preAt, &c.Counters)
			rowReady = preAt
		}
		actAt := dimm.EarliestACT(loc.Bank, rowReady)
		if actAt > rowReady {
			c.BankConflicts++
		}
		dimm.Activate(loc.Bank, actAt, loc.Row, &c.Counters)
	}

	burst := c.burstFor(loc.DIMM)
	wrMin := bank.EarliestWrite(cmdArrive)
	busAt = c.dimmBus[loc.DIMM].Reserve(wrMin+t.TWL, clock.Time(n)*burst)
	wrAt := busAt - t.TWL
	dataStart := bank.Write(wrAt, clock.Time(n)*burst, &c.Counters)
	c.Counters.ColWrit += int64(n - 1)
	lastWr := wrAt + clock.Time(n-1)*burst

	if c.cfg.PageMode == config.ClosePage {
		preAt := bank.EarliestPRE(lastWr + t.TWPD)
		bank.Precharge(preAt, &c.Counters)
	}
	return busAt, dataStart + clock.Time(n)*burst
}

func (c *refRanks) ddrRead(loc addrmap.Location, cmdArrive clock.Time) (busAt, dataAt clock.Time) {
	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := c.cfg.Timing

	c.openRow(loc, cmdArrive)

	rdMin := bank.EarliestRead(cmdArrive)
	busAt = c.dataBus.Reserve(rdMin+t.TCL, c.burst)
	rdAt := busAt - t.TCL
	bank.Read(rdAt, c.burst, &c.Counters)

	if c.cfg.PageMode == config.ClosePage {
		preAt := bank.EarliestPRE(rdAt + t.TRPD)
		bank.Precharge(preAt, &c.Counters)
	}
	return busAt, busAt + c.burst
}

func (c *refRanks) openRow(loc addrmap.Location, from clock.Time) {
	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	if c.cfg.PageMode == config.OpenPage && bank.OpenRow() == loc.Row {
		return
	}
	rowReady := from
	if bank.OpenRow() != NoRow {
		preAt := bank.EarliestPRE(from)
		bank.Precharge(preAt, &c.Counters)
		rowReady = preAt
	}
	actAt := dimm.EarliestACT(loc.Bank, rowReady)
	if actAt > rowReady {
		c.BankConflicts++
	}
	dimm.Activate(loc.Bank, actAt, loc.Row, &c.Counters)
}

func (c *refRanks) ddrWrite(loc addrmap.Location, cmdArrive clock.Time, n int) (busAt, done clock.Time) {
	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := c.cfg.Timing

	c.openRow(loc, cmdArrive)

	wrMin := bank.EarliestWrite(cmdArrive)
	busAt = c.dataBus.Reserve(wrMin+t.TWL, clock.Time(n)*c.burst)
	wrAt := busAt - t.TWL
	dataStart := bank.Write(wrAt, clock.Time(n)*c.burst, &c.Counters)
	c.Counters.ColWrit += int64(n - 1)
	lastWr := wrAt + clock.Time(n-1)*c.burst

	if c.cfg.PageMode == config.ClosePage {
		preAt := bank.EarliestPRE(lastWr + t.TWPD)
		bank.Precharge(preAt, &c.Counters)
	}
	return busAt, dataStart + clock.Time(n)*c.burst
}

// TestAccessMatchesReference drives Ranks and refRanks with the same random
// reads and writes of 1, 2, 4 or 8 lines over every DIMM, bank and a few
// rows, under both page policies, with and without refresh, on per-DIMM
// buses (FB-DIMM, bus scale 1 to 3) and on one shared bus (DDR2, whose
// DIMMs are never degraded). Command arrivals may go back in time, as
// link backfill makes them. After every step the row-hit answer, the bus
// start and end, the counters, the conflict count, every bus's
// TotalReserved and the whole bank state must agree.
func TestAccessMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	for _, kind := range []config.MemKind{config.FBDIMM, config.DDR2} {
		for _, page := range []config.PageMode{config.ClosePage, config.OpenPage} {
			for _, refresh := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := config.Default().Mem
					cfg.Kind, cfg.PageMode, cfg.RefreshEnabled = kind, page, refresh
					r, ref := NewRanks(&cfg), newRefRanks(&cfg)
					rng := rand.New(rand.NewSource(seed))
					buses := []*resource.Timeline{resource.NewQuantized(0)}
					refBuses := []*resource.Timeline{ref.dataBus}
					if kind == config.FBDIMM {
						buses, refBuses = nil, ref.dimmBus
						for i := range r.DIMMs {
							buses = append(buses, resource.NewQuantized(0))
							scale := 1 + rng.Intn(3)
							r.DIMMs[i].SetDegradedBus(scale)
							ref.dimms[i].SetDegradedBus(scale)
						}
					}
					now := 100 * ns
					for step := 0; step < 2000; step++ {
						loc := addrmap.Location{
							DIMM: rng.Intn(cfg.DIMMsPerChannel),
							Bank: rng.Intn(cfg.BanksPerDIMM),
							Row:  rng.Int63n(3),
						}
						write := rng.Intn(3) == 0
						n := sizes[rng.Intn(len(sizes))]
						if kind == config.DDR2 && !write {
							n = 1 // a DDR2 read moves one line
						}
						now += clock.Time(rng.Int63n(int64(40 * ns)))
						cmdArrive := now - clock.Time(rng.Int63n(int64(60*ns)))

						var hit, refHit bool
						var start, end, refStart, refEnd clock.Time
						bus := buses[0]
						if kind == config.FBDIMM {
							bus = buses[loc.DIMM]
							hit, refHit = r.RowHit(loc), ref.fbdFast(loc)
							switch {
							case write:
								refStart, refEnd = ref.fbdWrite(loc, cmdArrive, n)
							default:
								refStart = ref.fbdRead(loc, cmdArrive, n)
								refEnd = refStart + clock.Time(n)*ref.burstFor(loc.DIMM)
							}
						} else {
							hit, refHit = r.RowHit(loc), ref.ddrFast(loc)
							if write {
								refStart, refEnd = ref.ddrWrite(loc, cmdArrive, n)
							} else {
								refStart, refEnd = ref.ddrRead(loc, cmdArrive)
							}
						}
						start, end = r.Access(loc, write, n, cmdArrive, bus)

						op := fmt.Sprintf("write=%v n=%d %v at %v", write, n, loc, cmdArrive)
						where := fmt.Sprintf("%v %v refresh=%v seed %d step %d: %s", kind, page, refresh, seed, step, op)
						if hit != refHit || start != refStart || end != refEnd {
							t.Fatalf("%s: hit %v, bus %v..%v; reference hit %v, bus %v..%v",
								where, hit, start, end, refHit, refStart, refEnd)
						}
						if r.Counters != ref.Counters || r.BankConflicts != ref.BankConflicts {
							t.Fatalf("%s: counters %+v, %d conflicts; reference %+v, %d conflicts",
								where, r.Counters, r.BankConflicts, ref.Counters, ref.BankConflicts)
						}
						for i := range buses {
							if got, want := buses[i].TotalReserved(), refBuses[i].TotalReserved(); got != want {
								t.Fatalf("%s: bus %d reserved %v, reference %v", where, i, got, want)
							}
						}
						for i := range r.DIMMs {
							if r.Burst(i) != ref.burstFor(i) {
								t.Fatalf("%s: DIMM %d burst %v, reference %v", where, i, r.Burst(i), ref.burstFor(i))
							}
						}
						if !reflect.DeepEqual(r.DIMMs, ref.dimms) {
							t.Fatalf("%s: bank state differs from the reference", where)
						}
					}
				}
			}
		}
	}
}

// TestRefreshTimings pins the refresh NewRanks sets up: tRFC = 127.5 ns
// every tREFI = 7.8 µs, each DIMM's window a quarter period after the
// previous DIMM's on a four-DIMM channel, and none with refresh off.
func TestRefreshTimings(t *testing.T) {
	cfg := config.Default().Mem
	cfg.RefreshEnabled = true
	for i, d := range NewRanks(&cfg).DIMMs {
		if d.refEvery != 7800*ns || d.refBusy != 127500*clock.Picosecond || d.refPhase != clock.Time(i)*1950*ns {
			t.Errorf("DIMM %d refresh every %v for %v at phase %v", i, d.refEvery, d.refBusy, d.refPhase)
		}
	}
	cfg.RefreshEnabled = false
	for i, d := range NewRanks(&cfg).DIMMs {
		if d.refEvery != 0 {
			t.Errorf("DIMM %d refreshes with refresh off", i)
		}
	}
}
