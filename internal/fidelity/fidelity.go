// Package fidelity names and dispatches the simulator's two fidelity
// tiers: the ordinary cycle-accurate run and the SMARTS-style sampled run
// (internal/sample — detailed measured windows stitched over functional
// fast-forward, ~10-50x cheaper at <2% IPC error). The tier is pure data —
// a string that travels through configuration files, sweep specs and
// journals — and this package is the single place it is parsed,
// cache-keyed and executed, so every layer (fbdsim.Run options, sweep
// shards, the experiment harness) agrees on what each tier means.
package fidelity

import (
	"context"
	"fmt"

	"fbdsim/internal/config"
	"fbdsim/internal/sample"
	"fbdsim/internal/snapshot"
	"fbdsim/internal/system"
)

// Tier is one fidelity level. The zero value ("") means cycle-accurate:
// every API that grew a fidelity field after the fact treats absence as
// the full-detail default, so pre-existing JSON (sweep specs, journals)
// keeps its meaning.
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

// Key returns the result-cache / journal identity of one (tier, config,
// workload) request. Cycle-accurate requests keep the bare snapshot
// fingerprint — the identity every existing cache and journal was built
// on — so enabling tiers invalidates nothing; the sampled tier is tagged
// so its estimates can never be confused with (or served in place of)
// full-detail results.
func Key(t Tier, cfg config.Config, benchmarks []string) string {
	fp := snapshot.Fingerprint(cfg, benchmarks)
	if t == "" || t == CycleAccurate {
		return fp
	}
	return string(t) + ":" + fp
}

// Run executes one simulation request at tier t under the engine options
// opts. It is the single run function above the engine: every layer that
// runs simulations (fbdsim.Run, sweep shards, the experiment harness)
// goes through it or through a wrapper of it. Sampled results carry a
// non-nil Results.Estimate describing the estimation (tier name,
// confidence interval, cost accounting); cycle-accurate results do not,
// which is itself the marker of full detail.
//
// Only cycle-accurate runs act on opts. The sampled tier ignores Progress
// and refuses Checkpoint and Restore: it drives its machine through
// windowed stepping, where an armed snapshot would corrupt the measured
// windows.
func Run(ctx context.Context, t Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
	switch t {
	case "", CycleAccurate:
		return system.RunWorkload(ctx, cfg, benchmarks, opts)
	case Sampled:
		if opts.Checkpoint != nil || opts.Restore != nil {
			return system.Results{}, fmt.Errorf("fidelity: %s runs cannot checkpoint or restore; only cycle-accurate runs do", t)
		}
		return sample.Run(ctx, cfg, benchmarks, sample.Options{})
	}
	return system.Results{}, fmt.Errorf("fidelity: unknown tier %q", t)
}
