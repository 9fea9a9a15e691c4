package simserver

import (
	"sync"
	"time"

	"fbdsim/internal/clock"
	"fbdsim/internal/stats"
)

// Metrics is the server's counter set, published through a stats.Registry
// on /metrics. All counters are goroutine-safe.
type Metrics struct {
	reg *stats.Registry

	// Job lifecycle.
	Accepted  *stats.Counter // submissions admitted (including coalesced)
	Completed *stats.Counter // jobs that finished successfully
	Cancelled *stats.Counter // jobs cancelled before completing
	Failed    *stats.Counter // jobs that errored
	Paused    *stats.Counter // jobs checkpointed and stopped via pause
	Rejected  *stats.Counter // submissions refused with 429 (queue full)
	Panics    *stats.Counter // simulation panics recovered by the worker pool
	SimCycles *stats.Counter // simulated CPU cycles across completed jobs

	// Result cache.
	CacheHits   *stats.Counter // served from cache or coalesced onto a run
	CacheMisses *stats.Counter // submissions that required a simulation

	// Sweeps.
	SweepsAccepted  *stats.Counter // sweep submissions admitted
	SweepsCompleted *stats.Counter // sweeps whose every grid point emitted
	SweepsCancelled *stats.Counter // sweeps stopped before completing
	SweepPoints     *stats.Counter // grid points emitted across all sweeps

	// Per-job wall time of completed simulations.
	wallMu sync.Mutex
	wall   stats.Summary

	// Full wall-time distributions: queueWait is submission→start for every
	// job that reached a worker; runDur is the start→terminal wall time of
	// every executed job, whatever its outcome. Both histograms observe
	// durations as clock.Time picoseconds, the registry's histogram
	// convention, and export as native Prometheus histograms in seconds.
	histMu    sync.Mutex
	queueWait stats.Histogram
	runDur    stats.Histogram
}

func newMetrics() *Metrics {
	reg := &stats.Registry{}
	m := &Metrics{
		reg:         reg,
		Accepted:    reg.Counter("jobs_accepted"),
		Completed:   reg.Counter("jobs_completed"),
		Cancelled:   reg.Counter("jobs_cancelled"),
		Failed:      reg.Counter("jobs_failed"),
		Paused:      reg.Counter("jobs_paused"),
		Rejected:    reg.Counter("jobs_rejected"),
		Panics:      reg.Counter("job_panics"),
		SimCycles:   reg.Counter("sim_cycles_total"),
		CacheHits:   reg.Counter("cache_hits"),
		CacheMisses: reg.Counter("cache_misses"),

		SweepsAccepted:  reg.Counter("sweeps_accepted"),
		SweepsCompleted: reg.Counter("sweeps_completed"),
		SweepsCancelled: reg.Counter("sweeps_cancelled"),
		SweepPoints:     reg.Counter("sweep_points_total"),
	}
	reg.Func("job_wall_ms_count", func() any { i, _, _ := m.wallSnapshot(); return i })
	reg.Func("job_wall_ms_mean", func() any { _, mean, _ := m.wallSnapshot(); return mean })
	reg.Func("job_wall_ms_max", func() any { _, _, max := m.wallSnapshot(); return max })
	reg.Func("job_queue_wait_seconds", func() any {
		m.histMu.Lock()
		defer m.histMu.Unlock()
		return m.queueWait.Clone()
	})
	reg.Func("job_run_seconds", func() any {
		m.histMu.Lock()
		defer m.histMu.Unlock()
		return m.runDur.Clone()
	})
	return m
}

// durationTime converts a wall duration to the histogram domain
// (clock.Time picoseconds), saturating instead of overflowing.
func durationTime(d time.Duration) clock.Time {
	if d < 0 {
		return 0
	}
	ns := d.Nanoseconds()
	if ns > (1<<62)/1000 {
		return clock.Time(1 << 62)
	}
	return clock.Time(ns * 1000)
}

// ObserveQueueWait records one job's submission→start wait.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	m.histMu.Lock()
	m.queueWait.Observe(durationTime(d))
	m.histMu.Unlock()
}

// ObserveRunDuration records one executed job's start→terminal wall time.
func (m *Metrics) ObserveRunDuration(d time.Duration) {
	m.histMu.Lock()
	m.runDur.Observe(durationTime(d))
	m.histMu.Unlock()
}

// ObserveWall records one completed job's wall time.
func (m *Metrics) ObserveWall(d time.Duration) {
	m.wallMu.Lock()
	m.wall.Observe(float64(d) / float64(time.Millisecond))
	m.wallMu.Unlock()
}

func (m *Metrics) wallSnapshot() (count int64, mean, max float64) {
	m.wallMu.Lock()
	defer m.wallMu.Unlock()
	return m.wall.Count(), m.wall.Mean(), m.wall.Max()
}

// Registry exposes the underlying registry so the server can attach
// gauges (queue depth, busy workers).
func (m *Metrics) Registry() *stats.Registry { return m.reg }
