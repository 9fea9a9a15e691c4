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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fbdsim/internal/config"
	"fbdsim/internal/sample"
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
// workload) request: a SHA-256 over the JSON encodings of the full
// configuration (which embeds seed and instruction budgets) and the
// benchmark list. Two requests that would produce identical Results hash
// identically; any differing knob — timing, geometry, seed, budget,
// benchmark order — produces a different key. Cycle-accurate requests get
// the bare hex digest, the identity every existing cache and journal was
// built on; the sampled tier is tagged so its estimates can never be
// confused with (or served in place of) full-detail results.
func Key(t Tier, cfg config.Config, benchmarks []string) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Config and []string cannot fail to encode.
	_ = enc.Encode(cfg)
	_ = enc.Encode(benchmarks)
	fp := hex.EncodeToString(h.Sum(nil))
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
// Only cycle-accurate runs act on opts: the sampled tier steps its machine
// through measured windows and ignores Progress.
func Run(ctx context.Context, t Tier, cfg config.Config, benchmarks []string, opts system.Options) (system.Results, error) {
	switch t {
	case "", CycleAccurate:
		return system.RunWorkload(ctx, cfg, benchmarks, opts)
	case Sampled:
		return sample.Run(ctx, cfg, benchmarks, sample.Options{})
	}
	return system.Results{}, fmt.Errorf("fidelity: unknown tier %q", t)
}
