// Package sweep holds what a parameter sweep leaves behind: the grid's
// identity (Spec and its fingerprint), the completed points (Point), the
// append-only NDJSON journal they are checkpointed to (Journal), the
// single-flight result cache (Cache), and the canonical form results are
// journaled in (Canonicalize).
//
// The sweeps themselves run in internal/exp: every figure of the paper's
// evaluation is a grid of configurations × workloads that exp.Runner
// executes through this package's cache and journal.
//
// Resume guarantee: results are canonicalized through their JSON encoding
// before they are journaled or returned, and stats.Histogram round-trips
// losslessly, so a sweep interrupted after any number of completed points
// and resumed from its journal produces a merged result set that is
// bit-identical (reflect.DeepEqual) to an uninterrupted run.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
)

// NamedConfig is one configuration dimension value of a sweep grid.
type NamedConfig struct {
	Name   string        `json:"name"`
	Config config.Config `json:"config"`
}

// Spec declares a sweep grid: the cross product Configs × Workloads, each
// point run once at Seed under the spec's budgets and tier. Name labels
// the journal and is not part of the grid's identity.
type Spec struct {
	Name      string
	Configs   []NamedConfig
	Workloads []workload.Workload
	// Seed, MaxInsts and WarmupInsts override every config's own values.
	Seed        int64
	MaxInsts    int64
	WarmupInsts int64
	// Fidelity is the tier of every point: "" (cycle-accurate) or
	// "sampled". The tier is part of the result identity — sampled points
	// cache and journal under tier-tagged keys, so they never masquerade
	// as full-detail results.
	Fidelity string
}

// Fingerprint returns the spec's identity hash: everything that affects
// the produced results (configs, workloads, seed, budgets, tier) and not
// the name. A journal written under one fingerprint refuses to resume a
// spec with another.
func (s Spec) Fingerprint() string {
	// The field names and order are the journal format: the seed is
	// hashed as a one-element list, as when specs had a seed dimension,
	// so every journal written since still resumes.
	type identity struct {
		Configs     []NamedConfig       `json:"configs"`
		Workloads   []workload.Workload `json:"workloads"`
		Seeds       []int64             `json:"seeds"`
		MaxInsts    int64               `json:"max_insts"`
		WarmupInsts int64               `json:"warmup_insts"`
		// omitempty keeps every pre-fidelity journal fingerprint valid:
		// a cycle-accurate spec hashes exactly as it always did.
		Fidelity string `json:"fidelity,omitempty"`
	}
	b, _ := json.Marshal(identity{s.Configs, s.Workloads, []int64{s.Seed}, s.MaxInsts, s.WarmupInsts, s.Fidelity})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Point is one completed grid point, the record a journal stores per line.
// Point carries only deterministic fields — no wall times, cache
// provenance or attempt counts — so the points of a resumed sweep are
// bit-identical to an uninterrupted one.
type Point struct {
	// Index is the point's position in grid order (config-major, then
	// workload).
	Index int `json:"index"`
	// Config and Workload name the grid coordinates; Seed is the
	// effective trace seed of the run.
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Key is the canonical result-cache key of the point's resolved
	// configuration (fidelity.Key); tier-tagged for estimate points.
	Key string `json:"key"`
	// Fidelity is the tier the point ran at ("" = cycle-accurate, the
	// only value pre-fidelity journals contain).
	Fidelity string `json:"fidelity,omitempty"`
	// Results holds the simulation output. Sweep results never carry a
	// memtrace summary: Results.Trace is stripped during
	// canonicalization.
	Results system.Results `json:"results"`
}

// Canonicalize round-trips res through its JSON encoding — the journal's
// storage format — and strips the memtrace summary (trace artifacts belong
// to single fbdsim runs, not to sweep points). Because every Results field
// (including stats.Histogram) marshals losslessly, canonicalization is the
// identity on trace-free results; applying it to every fresh point makes
// fresh and journal-replayed points byte-for-byte interchangeable.
func Canonicalize(res system.Results) (system.Results, error) {
	res.Trace = nil
	b, err := json.Marshal(res)
	if err != nil {
		return system.Results{}, err
	}
	var out system.Results
	if err := json.Unmarshal(b, &out); err != nil {
		return system.Results{}, err
	}
	return out, nil
}
