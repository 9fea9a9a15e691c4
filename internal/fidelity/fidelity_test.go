package fidelity

import (
	"context"
	"strings"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/snapshot"
	"fbdsim/internal/system"
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

func TestKeyCompatibility(t *testing.T) {
	cfg := config.Default()
	bench := []string{"swim"}
	plain := snapshot.Fingerprint(cfg, bench)
	// The cycle-accurate key IS the historical fingerprint — both
	// spellings of the default.
	if Key("", cfg, bench) != plain || Key(CycleAccurate, cfg, bench) != plain {
		t.Error("cycle-accurate key must equal the bare snapshot fingerprint")
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

	if _, err := Run(ctx, "nope", cfg, []string{"swim"}, system.Options{}); err == nil {
		t.Fatal("unknown tier must error")
	}
	full, err := Run(ctx, CycleAccurate, cfg, []string{"swim"}, system.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Estimate != nil {
		t.Error("cycle-accurate results must not carry an Estimate")
	}
	sampled, err := Run(ctx, Sampled, cfg, []string{"swim"}, system.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Estimate == nil || sampled.Estimate.Tier != "sampled" {
		t.Errorf("sampled estimate marker missing: %+v", sampled.Estimate)
	}
}

// TestRunRefusesSnapshotsOnEstimateTiers: only cycle-accurate runs act on
// an armed checkpoint or restore. The sampled tier steps its machine in
// windows an armed snapshot would corrupt, so it refuses either field
// before running anything.
func TestRunRefusesSnapshotsOnEstimateTiers(t *testing.T) {
	cfg := config.Default()
	cfg.MaxInsts = 20_000
	cfg.WarmupInsts = 5_000
	ctx := context.Background()
	var warm []byte
	capture := system.Options{Checkpoint: &system.CheckpointSpec{
		AtWarm: true,
		OnCheckpoint: func(cp system.Checkpoint) error {
			warm = cp.Data
			return nil
		},
	}}
	if _, err := Run(ctx, CycleAccurate, cfg, []string{"swim"}, capture); err != nil || warm == nil {
		t.Fatalf("cycle-accurate run with a checkpoint: err %v, captured %d bytes", err, len(warm))
	}
	restore := system.Options{Restore: &system.RestoreSpec{Data: warm}}
	if _, err := Run(ctx, CycleAccurate, cfg, []string{"swim"}, restore); err != nil {
		t.Fatalf("cycle-accurate run with a restore: %v", err)
	}
	for name, opts := range map[string]system.Options{"checkpoint": capture, "restore": restore} {
		if _, err := Run(ctx, Sampled, cfg, []string{"swim"}, opts); err == nil ||
			!strings.Contains(err.Error(), "cannot checkpoint or restore") {
			t.Errorf("sampled run with a %s: err %v, want a refusal", name, err)
		}
	}
}
