package system

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/workload"
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

// TestStepWindowBitIdentical: across the sampled tier's alternation of
// functional spans and detailed windows, the fast loop's Results DeepEqual
// the reference loop's, window by window. A functional span moves every
// core's dispatch cursor outside Tick, so an answer a core kept from before
// the span must not survive it.
func TestStepWindowBitIdentical(t *testing.T) {
	for _, mix := range []string{"4C-1", "8C-1", "8C-2"} {
		wl, err := workload.Lookup(mix)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mix, seed), func(t *testing.T) {
				cfg := config.WithAMBPrefetch(config.Default())
				cfg.Seed = seed
				ref := stepWindows(t, cfg, wl.Benchmarks, true)
				fast := stepWindows(t, cfg, wl.Benchmarks, false)
				for i := range ref {
					if !reflect.DeepEqual(ref[i], fast[i]) {
						t.Fatalf("window %d: fast loop diverged from reference loop\nreference: %+v\nfast:      %+v", i, ref[i], fast[i])
					}
				}
			})
		}
	}
}

// stepWindows builds a machine for cfg with the requested loop and returns
// the Results of four rounds of a functional span followed by a detailed
// window.
func stepWindows(t *testing.T, cfg config.Config, benchmarks []string, reference bool) []Results {
	t.Helper()
	s, err := New(cfg, benchmarks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SetReferenceLoop(reference)
	var out []Results
	for range 4 {
		s.FunctionalAdvance(20_000)
		res, err := s.StepWindow(context.Background(), 2_000, 5_000)
		if err != nil {
			t.Fatalf("StepWindow (reference=%v): %v", reference, err)
		}
		out = append(out, res)
	}
	return out
}
