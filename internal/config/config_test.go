package config

import (
	"reflect"
	"strings"
	"testing"

	"fbdsim/internal/clock"
)

// TestTable1Defaults pins the processor and memory parameters of Table 1.
func TestTable1Defaults(t *testing.T) {
	c := Default()
	cpu := c.CPU
	cases := []struct {
		name string
		got  int
		want int
	}{
		{"issue width", cpu.IssueWidth, 8},
		{"ROB entries", cpu.ROBEntries, 196},
		{"LQ entries", cpu.LQEntries, 32},
		{"SQ entries", cpu.SQEntries, 32},
		{"L1D size KB", cpu.L1DataKB, 64},
		{"L1 assoc", cpu.L1Assoc, 2},
		{"L1 hit cycles", cpu.L1HitCycles, 3},
		{"L2 size KB", cpu.L2KB, 4096},
		{"L2 assoc", cpu.L2Assoc, 4},
		{"L2 hit cycles", cpu.L2HitCycles, 15},
		{"line bytes", cpu.LineBytes, 64},
		{"L2 MSHRs", cpu.L2MSHRs, 64},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	m := c.Mem
	if m.Kind != FBDIMM {
		t.Errorf("default kind = %v, want FB-DIMM", m.Kind)
	}
	if m.DataRate != clock.DDR2_667 {
		t.Errorf("data rate = %d, want 667", int(m.DataRate))
	}
	if m.LogicalChannels != 2 || m.GangWidth != 2 {
		t.Errorf("channels = %d x %d gang, want 2 x 2 (four physical channels)",
			m.LogicalChannels, m.GangWidth)
	}
	if m.DIMMsPerChannel != 4 || m.BanksPerDIMM != 4 {
		t.Errorf("DIMMs/banks = %d/%d, want 4/4", m.DIMMsPerChannel, m.BanksPerDIMM)
	}
	if m.QueueEntries != 64 {
		t.Errorf("memory buffer = %d entries, want 64", m.QueueEntries)
	}
	if m.CtrlOverhead != 12*clock.Nanosecond {
		t.Errorf("controller overhead = %v, want 12ns", m.CtrlOverhead)
	}
	if m.AMBHopDelay != 3*clock.Nanosecond {
		t.Errorf("AMB hop = %v, want 3ns", m.AMBHopDelay)
	}
	if m.AMBPrefetch {
		t.Error("AMB prefetching must default off")
	}
	if !c.CPU.SoftwarePrefetch {
		t.Error("software prefetching must default on (Section 5 default)")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestTable2Timings pins the DRAM parameters of Table 2.
func TestTable2Timings(t *testing.T) {
	ns := clock.Nanosecond
	tm := Table2()
	cases := []struct {
		name string
		got  clock.Time
		want clock.Time
	}{
		{"tRP", tm.TRP, 15 * ns},
		{"tRCD", tm.TRCD, 15 * ns},
		{"tCL", tm.TCL, 15 * ns},
		{"tRC", tm.TRC, 54 * ns},
		{"tRRD", tm.TRRD, 9 * ns},
		{"tRPD", tm.TRPD, 9 * ns},
		{"tWTR", tm.TWTR, 9 * ns},
		{"tRAS", tm.TRAS, 39 * ns},
		{"tWL", tm.TWL, 12 * ns},
		{"tWPD", tm.TWPD, 36 * ns},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestPresets(t *testing.T) {
	ddr := DDR2Baseline()
	if ddr.Mem.Kind != DDR2 {
		t.Error("DDR2Baseline kind")
	}
	if err := ddr.Validate(); err != nil {
		t.Errorf("DDR2Baseline invalid: %v", err)
	}

	ap := WithAMBPrefetch(Default())
	if !ap.Mem.AMBPrefetch || ap.Mem.Interleave != MultiCachelineInterleave || ap.Mem.RegionLines != 4 {
		t.Errorf("WithAMBPrefetch wrong: %+v", ap.Mem)
	}
	if err := ap.Validate(); err != nil {
		t.Errorf("AP preset invalid: %v", err)
	}

	fl := WithFullLatencyHits(Default())
	if !fl.Mem.FullLatencyHits || !fl.Mem.AMBPrefetch {
		t.Error("WithFullLatencyHits must enable AP with full-latency hits")
	}
	if err := fl.Validate(); err != nil {
		t.Errorf("APFL preset invalid: %v", err)
	}
}

// TestPresetNames: Preset maps every name onto its constructor and lists
// the valid names when it refuses an unknown one.
func TestPresetNames(t *testing.T) {
	for name, want := range map[string]Config{
		"ddr2":     DDR2Baseline(),
		"fbd":      Default(),
		"fbd-ap":   WithAMBPrefetch(Default()),
		"fbd-apfl": WithFullLatencyHits(Default()),
	} {
		got, err := Preset(name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Preset(%q) = %+v, %v; want %+v", name, got.Mem, err, want.Mem)
		}
	}
	for _, bad := range []string{"", "ddr9", "FBD"} {
		if _, err := Preset(bad); err == nil || !strings.Contains(err.Error(), "ddr2, fbd, fbd-ap, fbd-apfl") {
			t.Errorf("Preset(%q) error = %v, want one listing the valid names", bad, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := []struct {
		name string
		f    func(*Config)
		want string
	}{
		{"no cores", func(c *Config) { c.CPU.Cores = 0 }, "core"},
		{"zero issue", func(c *Config) { c.CPU.IssueWidth = 0 }, "issue"},
		{"zero rob", func(c *Config) { c.CPU.ROBEntries = 0 }, "ROB"},
		{"line mismatch", func(c *Config) { c.CPU.LineBytes = 32 }, "mismatch"},
		{"zero insts", func(c *Config) { c.MaxInsts = 0 }, "MaxInsts"},
		{"negative warmup", func(c *Config) { c.WarmupInsts = -1 }, "Warmup"},
		{"bad rate", func(c *Config) { c.Mem.DataRate = 123 }, "data rate"},
		{"no channels", func(c *Config) { c.Mem.LogicalChannels = 0 }, "channel"},
		{"no gang", func(c *Config) { c.Mem.GangWidth = 0 }, "gang"},
		{"no dimms", func(c *Config) { c.Mem.DIMMsPerChannel = 0 }, "DIMM"},
		{"no banks", func(c *Config) { c.Mem.BanksPerDIMM = 0 }, "bank"},
		{"no queue", func(c *Config) { c.Mem.QueueEntries = 0 }, "queue"},
		{"npot dimms", func(c *Config) { c.Mem.DIMMsPerChannel = 3 }, "power of two"},
		{"row < line", func(c *Config) { c.Mem.RowBytes = 32; c.Mem.LineBytes = 64; c.CPU.LineBytes = 64 }, "row size"},
		{"region not pot", func(c *Config) {
			c.Mem.Interleave = MultiCachelineInterleave
			c.Mem.RegionLines = 3
		}, "K=3"},
		{"region too big", func(c *Config) {
			c.Mem.Interleave = MultiCachelineInterleave
			c.Mem.RegionLines = 256 // 256 * 64B > 8KB row
		}, "exceeds"},
		{"AP on DDR2", func(c *Config) {
			c.Mem.Kind = DDR2
			c.Mem.AMBPrefetch = true
			c.Mem.Interleave = MultiCachelineInterleave
		}, "FB-DIMM"},
		{"AP cacheline interleave", func(c *Config) {
			c.Mem.AMBPrefetch = true
			c.Mem.Interleave = CachelineInterleave
		}, "interleaving"},
		{"AP empty cache", func(c *Config) {
			c.Mem.AMBPrefetch = true
			c.Mem.Interleave = MultiCachelineInterleave
			c.Mem.AMBCacheLines = 0
		}, "at least one line"},
		{"AP bad assoc", func(c *Config) {
			c.Mem.AMBPrefetch = true
			c.Mem.Interleave = MultiCachelineInterleave
			c.Mem.AMBCacheAssoc = 3
		}, "associativity"},
		{"AP assoc indivisible", func(c *Config) {
			c.Mem.AMBPrefetch = true
			c.Mem.Interleave = MultiCachelineInterleave
			c.Mem.AMBCacheLines = 48
			c.Mem.AMBCacheAssoc = 32
		}, "divisible"},
		{"open page cacheline", func(c *Config) { c.Mem.PageMode = OpenPage }, "open-page"},
	}
	for _, m := range mutate {
		c := Default()
		m.f(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: expected error", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.want)
		}
	}
}

// TestValidateCacheGeometry: every L1 and L2 geometry cache.New would
// refuse (or divide by zero on) is a Validate error naming its field.
func TestValidateCacheGeometry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		f     func(*CPU)
		field string
	}{
		{"L1 size zero", func(c *CPU) { c.L1DataKB = 0 }, "L1DataKB"},
		{"L1 assoc zero", func(c *CPU) { c.L1Assoc = 0 }, "L1Assoc"},
		{"L1 sets indivisible", func(c *CPU) { c.L1Assoc = 3 }, "L1Assoc 3"},
		{"L1 sets not a power of two", func(c *CPU) { c.L1DataKB = 96 }, "L1DataKB 96"},
		{"L2 size negative", func(c *CPU) { c.L2KB = -4096 }, "L2KB"},
		{"L2 assoc negative", func(c *CPU) { c.L2Assoc = -4 }, "L2Assoc"},
		{"L2 sets indivisible", func(c *CPU) { c.L2Assoc = 3 }, "L2Assoc 3"},
		{"L2 sets not a power of two", func(c *CPU) { c.L2KB = 3072 }, "L2KB 3072"},
		{"L2 smaller than one set", func(c *CPU) { c.L2KB, c.L2Assoc = 1, 32 }, "L2Assoc 32"},
		{"line below flag room", func(c *CPU) { c.LineBytes = 2 }, "LineBytes 2"},
	} {
		c := Default()
		tc.f(&c.CPU)
		c.Mem.LineBytes = c.CPU.LineBytes
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.field)
		}
	}
}

func TestFaultDefaults(t *testing.T) {
	f := Default().Fault
	if f.Enabled {
		t.Error("fault injection must default off")
	}
	if f.DegradedDIMM != -1 || f.DeadBank != -1 {
		t.Errorf("degraded sentinels = %d/%d, want -1/-1 (0 is a valid index)",
			f.DegradedDIMM, f.DeadBank)
	}
	delay, max := f.RetrySettings()
	if delay != 60*clock.Nanosecond || max != 8 {
		t.Errorf("RetrySettings = %v/%d, want 60ns/8", delay, max)
	}
	if f.EffectiveBusFactor() != 2 {
		t.Errorf("EffectiveBusFactor = %d, want 2", f.EffectiveBusFactor())
	}
}

func TestFaultValidateRejects(t *testing.T) {
	mutate := []struct {
		name string
		f    func(*Config)
		want string
	}{
		{"south rate high", func(c *Config) { c.Fault.SouthErrorRate = 1.5 }, "rate"},
		{"north rate negative", func(c *Config) { c.Fault.NorthErrorRate = -0.1 }, "rate"},
		{"amb rate high", func(c *Config) { c.Fault.AMBSoftErrorRate = 2 }, "rate"},
		{"negative retries", func(c *Config) { c.Fault.MaxRetries = -1 }, "retries"},
		{"negative retry delay", func(c *Config) { c.Fault.RetryDelay = -1 }, "delay"},
		{"degraded dimm range", func(c *Config) { c.Fault.DegradedDIMM = 4 }, "DIMM"},
		{"degraded channel range", func(c *Config) { c.Fault.DegradedChannel = 2; c.Fault.DegradedDIMM = 0 }, "channel"},
		{"bus factor", func(c *Config) { c.Fault.DegradedDIMM = 0; c.Fault.DegradedBusFactor = -2 }, "factor"},
		{"dead bank needs dimm", func(c *Config) { c.Fault.DeadBank = 1 }, "degraded DIMM"},
		{"dead bank range", func(c *Config) { c.Fault.DegradedDIMM = 0; c.Fault.DeadBank = 4 }, "bank"},
		{"dead bank single bank", func(c *Config) {
			c.Mem.BanksPerDIMM = 1
			c.Fault.DegradedDIMM = 0
			c.Fault.DeadBank = 0
		}, "two banks"},
	}
	for _, m := range mutate {
		c := Default()
		c.Fault.Enabled = true
		m.f(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: expected error", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.want)
		}
	}

	// A disabled block is not validated: garbage rates are tolerated so
	// half-edited config files still load with fault injection off.
	c := Default()
	c.Fault.SouthErrorRate = 99
	if err := c.Validate(); err != nil {
		t.Errorf("disabled fault block must not be validated: %v", err)
	}

	// And a fully-specified valid block passes.
	c = Default()
	c.Fault = Fault{
		Enabled: true, Seed: 1, SouthErrorRate: 0.01, NorthErrorRate: 0.01,
		AMBSoftErrorRate: 0.001, DegradedChannel: 1, DegradedDIMM: 2,
		DegradedBusFactor: 4, DeadBank: 3,
	}
	if err := c.Validate(); err != nil {
		t.Errorf("valid fault block rejected: %v", err)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	orig := Default()
	orig.Fault = Fault{
		Enabled: true, Seed: 9, SouthErrorRate: 0.05, NorthErrorRate: 0.02,
		AMBSoftErrorRate: 0.001, RetryDelay: 90 * clock.Nanosecond, MaxRetries: 4,
		DegradedChannel: 0, DegradedDIMM: 1, DegradedBusFactor: 2, DeadBank: -1,
	}
	var buf strings.Builder
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fault != orig.Fault {
		t.Errorf("fault block changed in round trip:\n%+v\nvs\n%+v", got.Fault, orig.Fault)
	}
}

func TestTotalBanks(t *testing.T) {
	c := Default()
	if got := c.Mem.TotalBanks(); got != 2*4*4 {
		t.Errorf("TotalBanks = %d, want 32", got)
	}
}

func TestPeakChannelBandwidth(t *testing.T) {
	c := Default()
	// 2 logical channels x 2-gang x 667 MT/s x 8 B.
	want := 2.0 * 2 * 667e6 * 8
	if got := c.Mem.PeakChannelBandwidth(); got != want {
		t.Errorf("peak = %g, want %g", got, want)
	}
}

func TestEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{DDR2.String(), "DDR2"},
		{FBDIMM.String(), "FB-DIMM"},
		{CachelineInterleave.String(), "cacheline"},
		{PageInterleave.String(), "page"},
		{MultiCachelineInterleave.String(), "multi-cacheline"},
		{ClosePage.String(), "close-page"},
		{OpenPage.String(), "open-page"},
		{FIFO.String(), "FIFO"},
		{LRU.String(), "LRU"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	for _, c := range []struct {
		got, want string
	}{
		{MemKind(2).String(), "MemKind(2)"},
		{Interleave(7).String(), "Interleave(7)"},
		{PageMode(2).String(), "PageMode(2)"},
		{Replacement(2).String(), "Replacement(2)"},
	} {
		if c.got != c.want {
			t.Errorf("unknown value prints %q, want %q", c.got, c.want)
		}
	}
}

// TestValidateEnums: a value of Mem.Kind, Mem.Interleave, Mem.PageMode or
// Mem.AMBReplacement outside its constants is a Validate error naming the
// field and the value, on either side of the valid range. The simulator
// would otherwise panic (Kind, Interleave) or run a policy it never names
// (PageMode, AMBReplacement).
func TestValidateEnums(t *testing.T) {
	for _, tc := range []struct {
		f    func(*Mem)
		want string
	}{
		{func(m *Mem) { m.Kind = 5 }, "Mem.Kind 5"},
		{func(m *Mem) { m.Kind = -1 }, "Mem.Kind -1"},
		{func(m *Mem) { m.Interleave = 7 }, "Mem.Interleave 7"},
		{func(m *Mem) { m.Interleave = -1 }, "Mem.Interleave -1"},
		{func(m *Mem) { m.PageMode = 2 }, "Mem.PageMode 2"},
		{func(m *Mem) { m.PageMode = -1 }, "Mem.PageMode -1"},
		{func(m *Mem) { m.AMBReplacement = 2 }, "Mem.AMBReplacement 2"},
		{func(m *Mem) { m.AMBReplacement = -1 }, "Mem.AMBReplacement -1"},
	} {
		for _, preset := range []string{"ddr2", "fbd", "fbd-ap"} {
			c, err := Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			tc.f(&c.Mem)
			err = c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s with %s: Validate() = %v, want an error naming %q", preset, tc.want, err, tc.want)
			}
		}
	}
	for _, preset := range []string{"ddr2", "fbd", "fbd-ap", "fbd-apfl"} {
		c, _ := Preset(preset)
		c.Mem.AMBReplacement = LRU
		if err := c.Validate(); err != nil {
			t.Errorf("%s with LRU: %v", preset, err)
		}
	}
}

func TestRefreshValidation(t *testing.T) {
	c := Default()
	c.Mem.RefreshEnabled = true
	if err := c.Validate(); err != nil {
		t.Errorf("default refresh config invalid: %v", err)
	}
}

func TestHWPrefetchAndPermutationValidate(t *testing.T) {
	c := Default()
	c.CPU.HardwarePrefetch = true
	c.Mem.PermuteBanks = true
	if err := c.Validate(); err != nil {
		t.Errorf("extension knobs should validate: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := WithAMBPrefetch(Default())
	orig.Mem.VRL = true
	orig.CPU.HardwarePrefetch = true
	orig.Seed = 42

	var buf strings.Builder
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip changed config:\n%+v\nvs\n%+v", got, orig)
	}
}

func TestLoadPartialOverridesDefaults(t *testing.T) {
	got, err := Load(strings.NewReader(`{"Seed": 7, "Mem": {"LogicalChannels": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 7 || got.Mem.LogicalChannels != 4 {
		t.Errorf("overrides not applied: %+v", got)
	}
	if got.CPU.ROBEntries != 196 {
		t.Error("unmentioned fields must keep defaults")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"Typo": 1}`)); err == nil {
		t.Error("unknown fields must be rejected")
	}
	if _, err := Load(strings.NewReader(`{"Mem": {"LogicalChannels": 3}}`)); err == nil {
		t.Error("invalid configurations must be rejected")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON must be rejected")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/config.json"); err == nil {
		t.Error("missing file must error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := t.TempDir() + "/cfg.json"
	orig := DDR2Baseline()
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mem.Kind != DDR2 {
		t.Errorf("loaded kind = %v", got.Mem.Kind)
	}
}

func TestWithDDR3(t *testing.T) {
	c := WithDDR3(WithAMBPrefetch(Default()))
	if c.Mem.DataRate != clock.DDR3_1333 {
		t.Errorf("data rate = %d", int(c.Mem.DataRate))
	}
	if c.Mem.Timing.TRCD != 13500*clock.Picosecond {
		t.Errorf("DDR3 tRCD = %v", c.Mem.Timing.TRCD)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("DDR3 config invalid: %v", err)
	}
	if !c.Mem.AMBPrefetch {
		t.Error("WithDDR3 must preserve the prefetcher")
	}
}
