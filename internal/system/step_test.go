package system

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"fbdsim/internal/config"
)

// TestStepWindowKeepsFingerprint: stepping a machine through a measured
// window leaves its configuration and workload alone, so every window of a
// sampled run measures the machine it was built as.
func TestStepWindowKeepsFingerprint(t *testing.T) {
	s, err := New(config.WithAMBPrefetch(config.Default()), []string{"swim", "applu"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg, names := s.cfg, slices.Clone(s.names)
	s.FunctionalAdvance(5000)
	if _, err := s.StepWindow(context.Background(), 500, 1000); err != nil {
		t.Fatalf("StepWindow: %v", err)
	}
	if !reflect.DeepEqual(s.cfg, cfg) || !slices.Equal(s.names, names) {
		t.Fatalf("StepWindow changed the machine's identity: config %+v, workload %v", s.cfg, s.names)
	}
}

// TestStepWindowGuardSizedByWindow: a window's wedge guard covers the
// window's own ramp and measured instructions, so it is the same wherever
// in the stream the window starts.
func TestStepWindowGuardSizedByWindow(t *testing.T) {
	cfg := config.Default()
	fresh, err := New(cfg, []string{"swim"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	far, err := New(cfg, []string{"swim"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	far.FunctionalAdvance(200_000)

	w := far.stepWindow(500, 1000)
	if w.budget != 1500 || w.warmAt != far.minCommitted()+500 || w.measure != 1000 {
		t.Fatalf("stepWindow(500, 1000) = %+v at position %d", w, far.minCommitted())
	}
	want := fresh.progressBound(fresh.stepWindow(500, 1000).budget)
	if got := far.progressBound(w.budget); got != want {
		t.Fatalf("guard %d cycles after a 200k-instruction advance, want %d as at the stream start", got, want)
	}
}
