// Package fidelity names and dispatches the simulator's two fidelity
// tiers: the ordinary cycle-accurate run and the SMARTS-style sampled run
// (internal/sample — detailed measured windows stitched over functional
// fast-forward, ~10-50x cheaper at <2% IPC error). The tier is pure data —
// a string that travels through flags and library options — and this
// package is the single place it is parsed and executed, so fbdsim.Run and
// extension E8 agree on what each tier means.
package fidelity

import (
	"context"
	"fmt"

	"fbdsim/internal/config"
	"fbdsim/internal/sample"
	"fbdsim/internal/system"
)

// Tier is one fidelity level. The zero value ("") means cycle-accurate,
// the full-detail default.
type Tier string

const (
	// CycleAccurate is the ordinary full-detail simulation.
	CycleAccurate Tier = "cycle-accurate"
	// Sampled alternates functional warming with detailed measured
	// windows (internal/sample): ~10-50x fewer detailed instructions at
	// <2% total-IPC error on the seed workloads, with a confidence
	// interval on the estimate.
	Sampled Tier = "sampled"
)

// Parse maps a wire string to a Tier. The empty string is cycle-accurate
// (the backward-compatible default); anything else unknown is an error.
func Parse(s string) (Tier, error) {
	switch Tier(s) {
	case "", CycleAccurate:
		return CycleAccurate, nil
	case Sampled:
		return Sampled, nil
	}
	return "", fmt.Errorf("fidelity: unknown tier %q (want cycle-accurate or sampled)", s)
}

// Valid reports whether t is a known tier (the empty string counts, as
// the cycle-accurate default).
func (t Tier) Valid() bool {
	_, err := Parse(string(t))
	return err == nil
}

// String returns the wire form; the zero value prints as cycle-accurate.
func (t Tier) String() string {
	if t == "" {
		return string(CycleAccurate)
	}
	return string(t)
}

// Run executes one simulation request at tier t. fbdsim.Run and E8 run
// simulations through it; the figure sweeps of internal/exp, which never
// sample, call the engine directly.
// Sampled results carry a non-nil Results.Estimate describing the
// estimation (tier name, confidence interval, cost accounting);
// cycle-accurate results do not, which is itself the marker of full
// detail.
func Run(ctx context.Context, t Tier, cfg config.Config, benchmarks []string) (system.Results, error) {
	switch t {
	case "", CycleAccurate:
		return system.RunWorkload(ctx, cfg, benchmarks)
	case Sampled:
		return sample.Run(ctx, cfg, benchmarks, sample.Options{})
	}
	return system.Results{}, fmt.Errorf("fidelity: unknown tier %q", t)
}
