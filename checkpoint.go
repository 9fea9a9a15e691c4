package fbdsim

import (
	"fmt"
	"os"
	"path/filepath"

	"fbdsim/internal/snapshot"
	"fbdsim/internal/system"
)

// Snapshot sentinel errors, re-exported for callers that need to distinguish
// restore failures (errors.Is):
//
//   - ErrSnapshotMismatch: the snapshot was taken by a different
//     configuration or workload than the machine restoring it.
//   - ErrSnapshotVersion: the snapshot format is newer than this build.
//   - ErrSnapshotCorrupt: the file is truncated or fails its checksum.
//
// A failed restore never runs: Run returns the error before simulating.
var (
	ErrSnapshotMismatch = snapshot.ErrFingerprint
	ErrSnapshotVersion  = snapshot.ErrVersion
	ErrSnapshotCorrupt  = snapshot.ErrCorrupt
)

// WithCheckpoint writes a snapshot of the complete machine state to path
// during the run: at the first cycle-batch boundary at or after atCycle, or
// at the warmup boundary when atCycle <= 0. The file is written atomically
// (temp file + rename) and the run continues unperturbed — checkpoint
// capture never changes Results. Restore the file with WithRestore (same
// config and benchmarks) to reproduce the rest of the run bit-identically.
// A run that ends before that boundary writes no snapshot, and Run returns
// an error naming the boundary it never reached.
func WithCheckpoint(path string, atCycle int64) Option {
	return func(s *runSettings) {
		s.checkpointPath = path
		s.checkpointAt = atCycle
	}
}

// WithRestore resumes the run from a snapshot file written by
// WithCheckpoint. The snapshot must come from the same configuration and
// benchmark list (enforced by an embedded fingerprint; mismatches fail with
// ErrSnapshotMismatch before any simulation happens). A restored run
// produces Results identical to the run the snapshot was taken from.
func WithRestore(path string) Option {
	return func(s *runSettings) { s.restorePath = path }
}

// systemOptions translates the run settings into the engine's per-run
// options: the progress callback, snapshot capture and restore. Called by
// Run after options are applied.
func (s *runSettings) systemOptions() (system.Options, error) {
	o := system.Options{Progress: s.progress}
	if s.checkpointPath != "" {
		path := s.checkpointPath
		o.Checkpoint = &system.CheckpointSpec{
			AtCycle: s.checkpointAt,
			AtWarm:  s.checkpointAt <= 0,
			OnCheckpoint: func(cp system.Checkpoint) error {
				if err := WriteSnapshotFile(path, cp.Data); err != nil {
					return err
				}
				s.checkpointWritten = true
				return nil
			},
		}
	}
	if s.restorePath != "" {
		data, err := os.ReadFile(s.restorePath)
		if err != nil {
			return o, fmt.Errorf("fbdsim: reading snapshot: %w", err)
		}
		o.Restore = &system.RestoreSpec{Data: data}
	}
	return o, nil
}

// missedCheckpoint reports a completed run that was asked for a snapshot
// but ended before the checkpoint boundary, so none was written.
func (s *runSettings) missedCheckpoint() error {
	if s.checkpointPath == "" || s.checkpointWritten {
		return nil
	}
	at := "the warmup boundary"
	if s.checkpointAt > 0 {
		at = fmt.Sprintf("cycle %d", s.checkpointAt)
	}
	return fmt.Errorf("fbdsim: no snapshot written to %s: the run ended before %s", s.checkpointPath, at)
}

// WriteSnapshotFile atomically writes snapshot bytes to path: the data lands
// under a temporary name in the target directory and is renamed into place,
// so a concurrent reader (or a crash mid-write) never observes a partial
// snapshot.
func WriteSnapshotFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("fbdsim: writing snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Close()
		if err == nil {
			if err = os.Rename(tmp.Name(), path); err == nil {
				return nil
			}
		}
	} else {
		tmp.Close()
	}
	os.Remove(tmp.Name())
	return fmt.Errorf("fbdsim: writing snapshot: %w", err)
}
