// Package sweep holds Canonicalize, the canonical form the bench/ result
// digests hash.
package sweep

import (
	"encoding/json"

	"fbdsim/internal/system"
)

// Canonicalize round-trips res through its JSON encoding and strips the
// memtrace summary (trace artifacts belong to single fbdsim runs, not to
// digests). Because every Results field (including stats.Histogram)
// marshals losslessly, canonicalization is the identity on trace-free
// results.
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
