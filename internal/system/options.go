package system

// Options are one run's inputs beyond its configuration and workload. The
// zero value is a plain run. The context a run takes alongside them carries
// cancellation only.
type Options struct {
	// Progress, when non-nil, receives a liveness snapshot at every
	// boundary check. It runs on the simulation goroutine: it must be fast
	// and must not block, or it throttles the simulation. It observes state
	// only and cannot perturb results.
	Progress func(Progress)
}

// Progress is a liveness snapshot delivered to Options.Progress at
// simulation boundary checks: at most once per executed cycle batch (1024
// CPU cycles); stretches the event-driven loop fast-forwards over coalesce
// into the next report.
type Progress struct {
	// Cycle is the current CPU cycle.
	Cycle int64
	// Committed is the minimum committed instruction count across cores —
	// the counter warmup and measurement completion are judged by.
	Committed int64
	// Warm reports whether warmup has finished (measurement under way).
	Warm bool
}
