package fidelity

import (
	"context"
	"testing"

	"fbdsim/internal/config"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Tier
		ok   bool
	}{
		{"", CycleAccurate, true},
		{"cycle-accurate", CycleAccurate, true},
		{"sampled", Sampled, true},
		{"fast", "", false},
		{"analytic", "", false},
		{"SAMPLED", "", false},
	} {
		got, err := Parse(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("Parse(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if !Tier("").Valid() || Tier("fast").Valid() {
		t.Error("Valid() disagrees with Parse")
	}
	if Tier("").String() != "cycle-accurate" {
		t.Errorf("zero tier prints %q", Tier("").String())
	}
}

func TestRunDispatch(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 60_000
	cfg.WarmupInsts = 10_000
	ctx := context.Background()

	if _, err := Run(ctx, "nope", cfg, []string{"swim"}); err == nil {
		t.Fatal("unknown tier must error")
	}
	full, err := Run(ctx, CycleAccurate, cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if full.Estimate != nil {
		t.Error("cycle-accurate results must not carry an Estimate")
	}
	sampled, err := Run(ctx, Sampled, cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Estimate == nil || sampled.Estimate.Tier != "sampled" {
		t.Errorf("sampled estimate marker missing: %+v", sampled.Estimate)
	}
}
