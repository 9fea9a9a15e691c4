package dram

import (
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
)

const ns = clock.Nanosecond

func newBank() (*Bank, *Counters) {
	return NewDIMM(1, config.Table2()).Banks[0], &Counters{}
}

func TestFreshBankIsClosed(t *testing.T) {
	b, _ := newBank()
	if b.OpenRow() != NoRow {
		t.Fatal("fresh bank must be precharged")
	}
	if got := b.EarliestACT(100 * ns); got != 100*ns {
		t.Errorf("fresh bank ACT at %v, want immediately", got)
	}
}

func TestReadAfterActivateRespectsTRCD(t *testing.T) {
	b, c := newBank()
	b.Activate(0, 7, c)
	if b.OpenRow() != 7 {
		t.Fatalf("open row = %d", b.OpenRow())
	}
	if got := b.EarliestRead(0); got != 15*ns {
		t.Errorf("earliest read = %v, want tRCD = 15ns", got)
	}
	data := b.Read(15*ns, 6*ns, c)
	if data != 30*ns {
		t.Errorf("read data at %v, want 15ns + tCL = 30ns", data)
	}
	if c.ACT != 1 || c.ColRead != 1 {
		t.Errorf("counters = %+v", *c)
	}
}

func TestPrechargeConstraints(t *testing.T) {
	b, c := newBank()
	b.Activate(0, 1, c)
	// tRAS: no precharge before 39ns even with no accesses.
	if got := b.EarliestPRE(0); got != 39*ns {
		t.Errorf("earliest PRE = %v, want tRAS = 39ns", got)
	}
	// A read at 35ns pushes PRE to 35+tRPD = 44ns.
	b.Read(35*ns, 6*ns, c)
	if got := b.EarliestPRE(0); got != 44*ns {
		t.Errorf("earliest PRE after read = %v, want 44ns", got)
	}
	b.Precharge(44*ns, c)
	if b.OpenRow() != NoRow {
		t.Error("bank must close on precharge")
	}
	// Ready again tRP later; tRC from the ACT also applies (54 < 59).
	if got := b.EarliestACT(0); got != 59*ns {
		t.Errorf("next ACT at %v, want 44+tRP = 59ns", got)
	}
	if c.PRE != 1 {
		t.Errorf("PRE count = %d", c.PRE)
	}
}

func TestWritePushesPrechargeByTWPD(t *testing.T) {
	b, c := newBank()
	b.Activate(0, 1, c)
	data := b.Write(20*ns, 6*ns, c)
	if data != 32*ns {
		t.Errorf("write data at %v, want 20 + tWL = 32ns", data)
	}
	if got := b.EarliestPRE(0); got != 56*ns {
		t.Errorf("earliest PRE = %v, want 20 + tWPD = 56ns", got)
	}
	if c.ColWrit != 1 {
		t.Errorf("write count = %d", c.ColWrit)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	b, c := newBank()
	b.Activate(0, 1, c)
	b.Write(20*ns, 6*ns, c) // data 32..38ns
	// tWTR: read no earlier than 38 + 9 = 47ns.
	if got := b.EarliestRead(0); got != 47*ns {
		t.Errorf("earliest read after write = %v, want 47ns", got)
	}
}

func TestTRCBetweenActivations(t *testing.T) {
	b, c := newBank()
	b.Activate(0, 1, c)
	b.Read(15*ns, 6*ns, c)
	b.Precharge(39*ns, c)
	// tRP clears at 54ns, which equals tRC here.
	if got := b.EarliestACT(0); got != 54*ns {
		t.Errorf("second ACT at %v, want max(tRC, PRE+tRP) = 54ns", got)
	}
	b.Activate(54*ns, 2, c)
	if b.OpenRow() != 2 {
		t.Error("second activation row")
	}
}

func TestIllegalOperationsPanic(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Bank, *Counters)
	}{
		{"read closed", func(b *Bank, c *Counters) { b.Read(0, 6*ns, c) }},
		{"write closed", func(b *Bank, c *Counters) { b.Write(0, 6*ns, c) }},
		{"precharge closed", func(b *Bank, c *Counters) { b.Precharge(0, c) }},
		{"double activate", func(b *Bank, c *Counters) {
			b.Activate(0, 1, c)
			b.Activate(100*ns, 2, c)
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			b, c := newBank()
			tc.f(b, c)
		}()
	}
}

func TestDIMMEnforcesTRRD(t *testing.T) {
	d := NewDIMM(4, config.Table2())
	c := &Counters{}
	d.Activate(0, 0, 1, c)
	// A different bank must wait tRRD = 9ns.
	if got := d.EarliestACT(1, 0); got != 9*ns {
		t.Errorf("cross-bank ACT at %v, want tRRD = 9ns", got)
	}
	d.Activate(1, 9*ns, 1, c)
	if got := d.EarliestACT(2, 0); got != 18*ns {
		t.Errorf("third ACT at %v, want 18ns", got)
	}
	if c.ACT != 2 {
		t.Errorf("ACT count = %d", c.ACT)
	}
}

func TestDIMMSameBankUsesBankRules(t *testing.T) {
	d := NewDIMM(4, config.Table2())
	c := &Counters{}
	d.Activate(0, 0, 1, c)
	d.Banks[0].Read(15*ns, 6*ns, c)
	d.Banks[0].Precharge(39*ns, c)
	// Same bank: tRC dominates tRRD.
	if got := d.EarliestACT(0, 0); got != 54*ns {
		t.Errorf("same-bank re-ACT at %v, want 54ns", got)
	}
}

func TestDegradedBusScale(t *testing.T) {
	d := NewDIMM(4, config.Table2())
	if d.BusScale() != 1 {
		t.Errorf("healthy DIMM BusScale = %d, want 1", d.BusScale())
	}
	d.SetDegradedBus(3)
	if d.BusScale() != 3 {
		t.Errorf("degraded BusScale = %d, want 3", d.BusScale())
	}
	d.SetDegradedBus(0) // factor <= 1 restores the healthy bus
	if d.BusScale() != 1 {
		t.Errorf("restored BusScale = %d, want 1", d.BusScale())
	}
}

func TestCountersAddAndColumns(t *testing.T) {
	a := Counters{ACT: 1, PRE: 2, ColRead: 3, ColWrit: 4}
	b := Counters{ACT: 10, PRE: 20, ColRead: 30, ColWrit: 40}
	a.Add(b)
	if a.ACT != 11 || a.PRE != 22 || a.ColRead != 33 || a.ColWrit != 44 {
		t.Errorf("Add = %+v", a)
	}
	if a.Columns() != 77 {
		t.Errorf("Columns = %d", a.Columns())
	}
}

func TestRefreshWindowBlocksActivation(t *testing.T) {
	d := NewDIMM(4, config.Table2())
	d.SetRefresh(1000*ns, 100*ns, 0)
	// Inside the window [0, 100ns): pushed to the end.
	if got := d.EarliestACT(0, 50*ns); got != 100*ns {
		t.Errorf("ACT during refresh at %v, want 100ns", got)
	}
	// Outside the window: unaffected.
	if got := d.EarliestACT(0, 200*ns); got != 200*ns {
		t.Errorf("ACT after refresh at %v, want 200ns", got)
	}
	// The next period's window also blocks.
	if got := d.EarliestACT(0, 1050*ns); got != 1100*ns {
		t.Errorf("ACT in second window at %v, want 1100ns", got)
	}
}

func TestRefreshPhaseStagger(t *testing.T) {
	d := NewDIMM(4, config.Table2())
	d.SetRefresh(1000*ns, 100*ns, 500*ns)
	if got := d.EarliestACT(0, 50*ns); got != 50*ns {
		t.Errorf("phase-shifted window should not block t=50ns: %v", got)
	}
	if got := d.EarliestACT(0, 550*ns); got != 600*ns {
		t.Errorf("ACT in shifted window at %v, want 600ns", got)
	}
}

func TestRefreshMisconfigurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDIMM(1, config.Table2()).SetRefresh(100*ns, 100*ns, 0)
}

// BenchmarkBankSequence measures one closed-page access, ACT then RD then
// PRE, each at its earliest legal time, cycling over the banks of a
// Table 2 DIMM with a new row every time.
func BenchmarkBankSequence(b *testing.B) {
	const burst = 6 * ns
	d := NewDIMM(4, config.Table2())
	var c Counters
	var now clock.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := i % len(d.Banks)
		act := d.EarliestACT(bank, now)
		d.Activate(bank, act, int64(i), &c)
		bk := d.Banks[bank]
		rd := bk.EarliestRead(act)
		bk.Read(rd, burst, &c)
		bk.Precharge(bk.EarliestPRE(rd+burst), &c)
		now = act
	}
	actSink = c.ACT
}

var actSink int64
