package fbdsim

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCheckpointWrittenOrReported: a checkpoint boundary the run reaches
// writes a snapshot that restores to the same Results; one it never
// reaches writes nothing, and Run says so, naming the requested cycle.
func TestCheckpointWrittenOrReported(t *testing.T) {
	cfg := WithAMBPrefetch(Default())
	cfg.MaxInsts = 30_000
	cfg.WarmupInsts = 4_000
	bench := []string{"swim"}
	ctx := context.Background()
	dir := t.TempDir()

	reached := filepath.Join(dir, "reached.snap")
	want, err := Run(ctx, cfg, bench, WithCheckpoint(reached, 20_000))
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	got, err := Run(ctx, cfg, bench, WithRestore(reached))
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("restored run diverged from the checkpointed run")
	}

	missed := filepath.Join(dir, "missed.snap")
	_, err = Run(ctx, cfg, bench, WithCheckpoint(missed, 999_999_999))
	if err == nil || !strings.Contains(err.Error(), "cycle 999999999") {
		t.Errorf("checkpoint past the end of the run: err = %v, want one naming cycle 999999999", err)
	}
	if _, statErr := os.Stat(missed); !os.IsNotExist(statErr) {
		t.Errorf("checkpoint past the end of the run left a file: %v", statErr)
	}
}
