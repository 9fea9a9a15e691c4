package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fbdsim/internal/config"
)

// TestMain runs the command itself when the test binary is started with
// FBDSIM_RUN_MAIN set, so a test can drive the real flag handling.
func TestMain(m *testing.M) {
	if os.Getenv("FBDSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// savedConfig runs fbdsim with args and -save-config, and returns the
// configuration it would have simulated.
func savedConfig(t *testing.T, args ...string) config.Config {
	t.Helper()
	out := filepath.Join(t.TempDir(), "saved.json")
	cmd := exec.Command(os.Args[0], append(args, "-save-config", out)...)
	cmd.Env = append(os.Environ(), "FBDSIM_RUN_MAIN=1")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fbdsim %s: %v\n%s", strings.Join(args, " "), err, msg)
	}
	cfg, err := config.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestFaultFlagsOverConfigFile: with -config, each fault flag named on the
// command line overrides its own field of the file's fault block, and the
// file's other fault settings stand. Without -config, a flag that turns
// injection on sets the whole block from the flags, defaults included.
func TestFaultFlagsOverConfigFile(t *testing.T) {
	none := config.Default().Fault
	links := none
	links.Enabled, links.Seed, links.SouthErrorRate, links.NorthErrorRate = true, 1, 0.05, 0.05
	dimm0 := none
	dimm0.Enabled, dimm0.DegradedDIMM = true, 0
	dimm2 := dimm0
	dimm2.DegradedDIMM = 2

	with := func(f config.Fault, set func(*config.Fault)) config.Fault {
		set(&f)
		return f
	}
	for _, tc := range []struct {
		file config.Fault
		args string
		want config.Fault
	}{
		{links, "-fault-seed 7", with(links, func(f *config.Fault) { f.Seed = 7 })},
		{dimm0, "-degraded-bus 4", with(dimm0, func(f *config.Fault) { f.DegradedBusFactor = 4 })},
		{dimm2, "-fault-rate 0.1", with(dimm2, func(f *config.Fault) { f.SouthErrorRate, f.NorthErrorRate = 0.1, 0.1 })},
		{dimm2, "-dead-bank 3 -fault-seed 5", with(dimm2, func(f *config.Fault) { f.DeadBank, f.Seed = 3, 5 })},
		{none, "-fault-amb 0.01", with(none, func(f *config.Fault) { f.Enabled, f.AMBSoftErrorRate = true, 0.01 })},
		{none, "-fault-seed 7", with(none, func(f *config.Fault) { f.Seed = 7 })},
	} {
		cfg := config.Default()
		cfg.Fault = tc.file
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := cfg.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		if got := savedConfig(t, append([]string{"-config", path}, strings.Fields(tc.args)...)...).Fault; got != tc.want {
			t.Errorf("file %+v with %s: fault block %+v, want %+v", tc.file, tc.args, got, tc.want)
		}
	}

	for _, tc := range []struct {
		args string
		want config.Fault
	}{
		{"-mem fbd-ap -fault-rate 0.05 -fault-seed 1", with(links, func(f *config.Fault) { f.DegradedBusFactor = 2 })},
		{"-degraded-dimm 0 -dead-bank 1", with(dimm0, func(f *config.Fault) { f.Seed, f.DegradedBusFactor, f.DeadBank = 1, 2, 1 })},
		{"-fault-seed 7 -degraded-bus 4", none},
	} {
		if got := savedConfig(t, strings.Fields(tc.args)...).Fault; got != tc.want {
			t.Errorf("%s: fault block %+v, want %+v", tc.args, got, tc.want)
		}
	}
}

// TestCheckFaultFlags: a fault flag value that no setting accepts is
// refused, naming the flag, whether or not another flag turns injection on;
// the defaults and every accepted boundary pass.
func TestCheckFaultFlags(t *testing.T) {
	type flags struct {
		rate, amb       float64
		bus, dimm, bank int
	}
	def := flags{bus: 2, dimm: -1, bank: -1}
	for _, tc := range []struct {
		set  func(*flags)
		want string // "" when the flags are accepted
	}{
		{func(*flags) {}, ""},
		{func(f *flags) { f.rate, f.amb, f.bus, f.dimm, f.bank = 1, 1, 0, 0, 0 }, ""},
		{func(f *flags) { f.rate = -0.1 }, "-fault-rate -0.1"},
		{func(f *flags) { f.rate, f.dimm = -0.1, 0 }, "-fault-rate -0.1"},
		{func(f *flags) { f.rate = math.NaN() }, "-fault-rate NaN"},
		{func(f *flags) { f.amb = -0.5 }, "-fault-amb -0.5"},
		{func(f *flags) { f.bus = -3 }, "-degraded-bus -3"},
		{func(f *flags) { f.dimm = -5 }, "-degraded-dimm -5"},
		{func(f *flags) { f.bank = -2 }, "-dead-bank -2"},
	} {
		f := def
		tc.set(&f)
		err := checkFaultFlags(f.rate, f.amb, f.bus, f.dimm, f.bank)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v refused: %v", f, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+":")):
			t.Errorf("%+v: error %v, want one naming %q", f, err, tc.want)
		}
	}
}
