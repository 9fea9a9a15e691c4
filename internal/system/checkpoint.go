// Machine-state checkpointing: serialize a running System at a cycle-batch
// boundary into the versioned internal/snapshot container, and restore one
// into a freshly constructed System so the run continues bit-identically.
//
// Checkpoints are only taken at boundary cycles (multiples of checkInterval,
// the same boundaries both simulation loops use for warmup and measurement
// checks), where the reference and event-driven loops present identical
// machine state: every tick below the boundary cycle has executed, the
// boundary cycle's tick has not. Restoring therefore resumes either loop
// with nothing more than the cycle counter and the warmup snapshot.
package system

import (
	"fbdsim/internal/ambcache"
	"fbdsim/internal/clock"
	"fbdsim/internal/fault"
	"fbdsim/internal/memctrl"
	"fbdsim/internal/snapshot"
	"fbdsim/internal/stats"
)

// Checkpoint is one serialized machine state, delivered to OnCheckpoint.
type Checkpoint struct {
	// Data is the complete snapshot container (see internal/snapshot).
	Data []byte
	// Cycle is the boundary CPU cycle the state was captured at.
	Cycle int64
	// Warm reports whether the warmup boundary had already passed.
	Warm bool
}

// CheckpointSpec configures checkpoint capture for one run. AtCycle and
// AtWarm may both be armed; each fires at most once per run.
type CheckpointSpec struct {
	// AtCycle takes a checkpoint at the first boundary at or after this
	// cycle (<= 0: disabled).
	AtCycle int64
	// AtWarm takes a checkpoint at the warmup boundary, immediately after
	// the measurement baseline is captured and the trace window reset, so
	// a run restored from it simulates only the measured window.
	AtWarm bool
	// OnCheckpoint receives each captured checkpoint. A returned error
	// aborts the run with it. Required for the spec to be useful; runs on
	// the simulation goroutine.
	OnCheckpoint func(Checkpoint) error
}

// RestoreSpec names a snapshot to restore before running. The snapshot must
// carry the run's own config+workload fingerprint.
type RestoreSpec struct {
	Data []byte
}

// Fingerprint returns the config+workload identity hash of this machine —
// the identity embedded in its checkpoints.
func (s *System) Fingerprint() string {
	return snapshot.Fingerprint(s.cfg, s.names)
}

// checkpointState tracks per-run one-shot checkpoint triggers.
type checkpointState struct {
	warmTaken  bool
	cycleTaken bool
}

// maybeCheckpoint runs at every boundary check (both loops, identical
// machine state): it captures and delivers a checkpoint when a trigger
// condition holds. justWarmed marks the boundary at which warmup completed.
// A non-nil return (a serialization or sink error) ends the run.
func (s *System) maybeCheckpoint(spec *CheckpointSpec, st *checkpointState, cycle int64, warm *warmSnapshot, justWarmed bool) error {
	take := false
	if spec.AtWarm && justWarmed && !st.warmTaken {
		take = true
		st.warmTaken = true
	}
	if spec.AtCycle > 0 && cycle >= spec.AtCycle && !st.cycleTaken {
		take = true
		st.cycleTaken = true
	}
	if !take {
		return nil
	}
	data, err := s.snapshotBytes(cycle, warm)
	if err != nil {
		return err
	}
	if spec.OnCheckpoint != nil {
		return spec.OnCheckpoint(Checkpoint{Data: data, Cycle: cycle, Warm: warm != nil})
	}
	return nil
}

// snapshotBytes serializes the entire machine at boundary cycle into a
// snapshot container stamped with the machine's fingerprint.
func (s *System) snapshotBytes(cycle int64, warm *warmSnapshot) ([]byte, error) {
	// Canonicalize the hierarchy's "now" before serializing. At a boundary
	// the reference loop always holds the previous cycle's time, but the
	// fast loop may hold an older value from before a skip — harmless there
	// (it re-pins via SetNow ahead of every controller tick), yet a restored
	// reference loop would consume the stale stamp directly. Pinning the
	// canonical value also makes fast- and reference-taken checkpoints
	// byte-identical.
	s.hier.SetNow(clock.Time(cycle-1) * clock.CPUCycle)
	w := snapshot.NewWriter(s.Fingerprint())

	sys := w.Section("system")
	sys.I64(cycle)
	sys.Bool(warm != nil)
	if warm != nil {
		encodeWarm(sys, warm)
	}

	cores := w.Section("cores")
	cores.Int(len(s.cores))
	for _, c := range s.cores {
		c.Snapshot(cores)
	}

	s.hier.Snapshot(w.Section("hier"))
	s.ctrl.Snapshot(w.Section("memctrl"))

	if err := w.Err(); err != nil {
		return nil, err
	}
	return w.Finish(), nil
}

// RestoreSnapshot restores a checkpoint into s, which must be freshly built
// from the same configuration and workload (New, not yet run). The snapshot
// is validated against the machine's own identity and decoded into a
// scratch machine first, so a corrupt file never leaves s half-mutated: s
// changes only when the whole restore succeeded.
func (s *System) RestoreSnapshot(data []byte) error {
	r, err := snapshot.Open(data, s.Fingerprint())
	if err != nil {
		return err
	}
	tmp, err := New(s.cfg, s.names)
	if err != nil {
		return err
	}

	sys, err := r.Section("system")
	if err != nil {
		return err
	}
	cycle := sys.I64()
	var warm *warmSnapshot
	if sys.Bool() {
		warm = decodeWarm(sys)
	}
	if cycle < 0 || cycle%checkInterval != 0 {
		sys.Fail("system: checkpoint cycle %d is not a boundary", cycle)
	}
	if err := sys.Done(); err != nil {
		return err
	}

	cores, err := r.Section("cores")
	if err != nil {
		return err
	}
	if n := cores.Int(); n != len(tmp.cores) {
		cores.Fail("system: snapshot has %d cores, machine has %d", n, len(tmp.cores))
	}
	if cores.Err() == nil {
		for _, c := range tmp.cores {
			c.Restore(cores)
		}
	}
	if err := cores.Done(); err != nil {
		return err
	}

	hier, err := r.Section("hier")
	if err != nil {
		return err
	}
	tmp.hier.Restore(hier)
	if err := hier.Done(); err != nil {
		return err
	}

	ctrl, err := r.Section("memctrl")
	if err != nil {
		return err
	}
	onRead, onWrite := tmp.hier.RequestCallbacks()
	tmp.ctrl.Restore(ctrl, onRead, onWrite)
	if err := ctrl.Done(); err != nil {
		return err
	}
	if err := r.Strict(); err != nil {
		return err
	}

	// Fully decoded: swap the restored machine in. The object graph under
	// tmp is self-consistent (cores point at tmp.hier, which points at
	// tmp.ctrl), so swapping the roots is a complete state transplant.
	s.ctrl, s.hier, s.cores = tmp.ctrl, tmp.hier, tmp.cores
	s.cycle, s.resumeWarm = cycle, warm
	return nil
}

// encodeWarm serializes the warmup-boundary measurement baseline.
func encodeWarm(e *snapshot.Encoder, w *warmSnapshot) {
	e.I64(w.cycle)
	e.I64s(w.committed)
	w.hist.Snapshot(e)
	e.I64(w.ctrl.Reads)
	e.I64(w.ctrl.Writes)
	e.I64(w.ctrl.AMBHits)
	e.I64(int64(w.ctrl.ReadLatency))
	e.I64(w.ctrl.ReadsDone)
	e.I64(w.ctrl.QueueRejects)
	w.dram.Snapshot(e)
	e.I64(w.amb.Reads)
	e.I64(w.amb.Hits)
	e.I64(w.amb.Prefetched)
	e.I64(w.amb.Evictions)
	e.I64(w.amb.Invalidations)
	e.I64(w.amb.Scrubs)
	e.I64(w.faults.SouthFrameErrors)
	e.I64(w.faults.NorthFrameErrors)
	e.I64(w.faults.Retries)
	e.I64(int64(w.faults.RetryLatency))
	e.I64(w.faults.AMBSoftErrors)
	e.I64(w.faults.Remapped)
	e.I64(w.north)
	e.I64(w.south)
	e.I64(w.conflicts)
	e.I64(int64(w.northBusy))
	e.I64(int64(w.southBusy))
	e.I64(w.l2Acc)
	e.I64(w.l2Miss)
	e.I64(w.demand)
	e.I64(w.swPrefetch)
	e.I64(w.hwPrefetch)
	e.I64(w.writebacks)
}

func decodeWarm(d *snapshot.Decoder) *warmSnapshot {
	w := &warmSnapshot{
		cycle:     d.I64(),
		committed: d.I64s(),
		hist:      &stats.Histogram{},
	}
	w.hist.Restore(d)
	w.ctrl = memctrl.Stats{
		Reads:        d.I64(),
		Writes:       d.I64(),
		AMBHits:      d.I64(),
		ReadLatency:  clock.Time(d.I64()),
		ReadsDone:    d.I64(),
		QueueRejects: d.I64(),
	}
	w.dram.Restore(d)
	w.amb = ambcache.Stats{
		Reads:         d.I64(),
		Hits:          d.I64(),
		Prefetched:    d.I64(),
		Evictions:     d.I64(),
		Invalidations: d.I64(),
		Scrubs:        d.I64(),
	}
	w.faults = fault.Counters{
		SouthFrameErrors: d.I64(),
		NorthFrameErrors: d.I64(),
		Retries:          d.I64(),
		RetryLatency:     clock.Time(d.I64()),
		AMBSoftErrors:    d.I64(),
		Remapped:         d.I64(),
	}
	w.north = d.I64()
	w.south = d.I64()
	w.conflicts = d.I64()
	w.northBusy = clock.Time(d.I64())
	w.southBusy = clock.Time(d.I64())
	w.l2Acc = d.I64()
	w.l2Miss = d.I64()
	w.demand = d.I64()
	w.swPrefetch = d.I64()
	w.hwPrefetch = d.I64()
	w.writebacks = d.I64()
	return w
}
