package main

import (
	"math"
	"strings"
	"testing"
)

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
