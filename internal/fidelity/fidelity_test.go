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

// TestKeyCompatibility pins the request identity: result caches and sweep
// journals, the committed fixtures under internal/sweep/testdata among
// them, are keyed by it, so any change to the hash fails here first.
func TestKeyCompatibility(t *testing.T) {
	cfg := config.Default()
	bench := []string{"swim"}
	const plain = "de01fd8d6681a97906e73c5b49109c5b1bf27640344b932f4b421dff6b384d89"
	// Both spellings of the cycle-accurate default key to the bare digest.
	if Key("", cfg, bench) != plain || Key(CycleAccurate, cfg, bench) != plain {
		t.Errorf("cycle-accurate key %q, want %q", Key(CycleAccurate, cfg, bench), plain)
	}
	// The sampled tier is tagged, so it never shares a key with full
	// detail.
	ks := Key(Sampled, cfg, bench)
	if ks != "sampled:"+plain {
		t.Errorf("sampled key %q, want the sampled: prefix on %q", ks, plain)
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
