package sweep

import (
	"context"
	"reflect"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

// TestCanonicalizeIsIdentityOnRealRun: for a real (untraced) simulation,
// Canonicalize is the identity — nothing in Results is lossy under JSON.
func TestCanonicalizeIsIdentityOnRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	cfg := config.Default()
	cfg.MaxInsts = 5_000
	cfg.WarmupInsts = 1_000
	cfg.CPU.Cores = 1
	res, err := system.RunWorkload(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Canonicalize(res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, canon) {
		t.Fatal("canonicalization is not the identity on a real untraced run")
	}
}
