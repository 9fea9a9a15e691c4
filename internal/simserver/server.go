// Package simserver turns the simulator into a service: an HTTP JSON API
// that queues simulation jobs onto a bounded worker pool, deduplicates
// identical requests through an LRU result cache and in-flight coalescing,
// cancels running jobs through the simulator's context plumbing, and
// exposes its counters on an expvar-style /metrics endpoint.
//
// API:
//
//	POST   /v1/jobs                 submit {preset, config, benchmarks, seed, trace, ...}
//	GET    /v1/jobs/{id}            poll one job (results embedded when done)
//	GET    /v1/jobs/{id}/trace      Chrome trace_event JSON (jobs submitted with trace)
//	GET    /v1/jobs/{id}/timeline   epoch time-series CSV (jobs submitted with trace)
//	POST   /v1/jobs/{id}/pause      checkpoint a running job at the next boundary and stop it
//	GET    /v1/jobs/{id}/checkpoint download a paused job's snapshot artifact (binary)
//	DELETE /v1/jobs/{id}            cancel; returns the job's final state
//	GET    /v1/results/{key}        direct result-cache lookup by canonical key
//	POST   /v1/sweeps               submit a sweep grid {name, configs, workloads, seeds, ...}
//	GET    /v1/sweeps/{id}          poll a sweep (state + progress counters)
//	GET    /v1/sweeps/{id}/results  stream completed grid points as NDJSON (?follow=1 tails)
//	DELETE /v1/sweeps/{id}          cancel a sweep; returns its final state
//	GET    /healthz                 liveness (503 while shutting down)
//	GET    /readyz                  readiness (503 when the queue is saturated or shutdown began)
//	GET    /metrics                 counter registry as JSON (?format=prom for Prometheus text)
//
// Every /v1 error response uses one envelope:
//
//	{"error": {"code": "not_found", "message": "no such job"}}
//
// where code is a stable machine-readable identifier (bad_request,
// not_found, conflict, queue_full, shutting_down, cancel_timeout) and
// message is human-readable detail.
//
// Sweeps run the internal/sweep engine against the same single-flight
// result cache as jobs, so sweep points, concurrent sweeps and individual
// job submissions all deduplicate against each other.
//
// Backpressure: when the job queue is full, submissions are refused with
// HTTP 429 and a Retry-After header. Shutdown stops intake immediately,
// drains in-flight jobs for a grace period, then cancels survivors.
//
// Resilience: a panic inside a simulation run is recovered by the worker —
// the job fails with the panic message, the pool survives. Jobs submitted
// with "retries": N re-run transient failures up to N times (capped by the
// server) with exponential backoff; panics, cancellations and deadline
// expiries are never retried.
package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/memtrace"
	"fbdsim/internal/retry"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/internal/telemetry"
	"fbdsim/internal/trace"
)

// RunFunc executes one simulation. Tests substitute fakes; production uses
// system.RunWorkloadContext.
type RunFunc func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error)

// TierRunFunc executes one estimate-tier simulation ("sampled" or
// "analytic"). Tests substitute fakes; production uses fidelity.Run.
type TierRunFunc func(ctx context.Context, tier string, cfg config.Config, benchmarks []string) (system.Results, error)

// Options configures a Server. The zero value gets sensible defaults.
type Options struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO job queue; a full queue rejects
	// submissions with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 256).
	CacheEntries int
	// JobTimeout is the per-job execution deadline; 0 means none.
	JobTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxInsts caps the per-job instruction budget a client may request;
	// 0 means no cap.
	MaxInsts int64
	// MaxJobRetries caps the per-job transient-failure retries a client
	// may request with the submit body's "retries" field (default 3).
	// Jobs retry only when they ask to; panics, cancellations and
	// deadline expiries are never retried.
	MaxJobRetries int
	// RetryBackoff is the first retry's delay, doubled per attempt
	// (default 50ms); RetryBackoffMax caps the doubling (default 2s).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// SweepParallel caps the per-sweep shard parallelism a client may
	// request (default: Workers). Each sweep runs its own bounded pool;
	// this keeps one greedy sweep from oversubscribing the host.
	SweepParallel int
	// MaxSweepPoints caps the grid size of one sweep submission
	// (default 4096).
	MaxSweepPoints int
	// Logger receives the server's structured lifecycle log (job and
	// sweep transitions, shutdown). Defaults to a discard logger so
	// embedding tests stay quiet; fbdserve passes its process logger.
	Logger *slog.Logger
	// Telemetry sizes the live-telemetry hub's per-stream rings; the zero
	// value takes the hub defaults.
	Telemetry telemetry.Options
	// Run overrides the simulation function (tests).
	Run RunFunc
	// RunTier overrides the estimate-tier executor (tests). Jobs and
	// sweep points submitted with "fidelity": "sampled" or "analytic" go
	// through it; everything else goes through Run.
	RunTier TierRunFunc
	// FastWorkers is the size of the dedicated pool draining the
	// fast lane — the queue analytic jobs are admitted to, so a
	// sub-second estimate is never stuck behind queued cycle-accurate
	// work (default 1).
	FastWorkers int
}

func (o Options) norm() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxJobRetries <= 0 {
		o.MaxJobRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.RetryBackoffMax <= 0 {
		o.RetryBackoffMax = 2 * time.Second
	}
	if o.SweepParallel <= 0 {
		o.SweepParallel = o.Workers
	}
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = 4096
	}
	if o.Logger == nil {
		// slog.DiscardHandler is newer than this module's Go baseline;
		// a text handler on io.Discard is the same thing.
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Run == nil {
		o.Run = system.RunWorkloadContext
	}
	if o.RunTier == nil {
		o.RunTier = func(ctx context.Context, tier string, cfg config.Config, benchmarks []string) (system.Results, error) {
			return fidelity.Run(ctx, fidelity.Tier(tier), cfg, benchmarks)
		}
	}
	if o.FastWorkers <= 0 {
		o.FastWorkers = 1
	}
	return o
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StatePaused means the job's simulation was checkpointed at a cycle
	// boundary and stopped. The snapshot is served at
	// /v1/jobs/{id}/checkpoint and a new job submitted with
	// {"from_checkpoint": id} resumes it; the paused job itself never
	// transitions again.
	StatePaused State = "paused"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StatePaused
}

// job is one tracked simulation request.
type job struct {
	id         string
	key        string
	cfg        config.Config
	benchmarks []string
	// fidelity is the job's simulation tier: "" (cycle-accurate),
	// "sampled" or "analytic". Estimate tiers run through
	// Options.RunTier and cannot be paused, traced or checkpointed.
	fidelity  string
	submitted time.Time
	// retries is the client-requested transient-failure retry budget,
	// clamped to Options.MaxJobRetries at submission.
	retries int

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal transition

	// pauseTrig asks the simulator to checkpoint at the next cycle
	// boundary and end the run with system.ErrPaused. restore, when
	// non-nil, is a snapshot the run starts from instead of cycle zero.
	pauseTrig *system.Trigger
	restore   []byte

	// stream is the job's live-telemetry channel: lifecycle state events
	// always, epoch samples when the job is traced. Set at registration,
	// closed with the terminal state.
	stream *telemetry.Stream

	mu       sync.Mutex
	state    State
	res      system.Results
	errMsg   string
	attempts int
	started  time.Time
	finished time.Time
	// checkpoint is the snapshot captured by a pause, stored before the
	// paused transition so the artifact is ready the moment done closes.
	checkpoint []byte
}

// snapshotView renders the job for JSON responses.
func (j *job) snapshotView(withResults bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:              j.id,
		Key:             j.key,
		State:           string(j.state),
		Benchmarks:      j.benchmarks,
		Fidelity:        j.fidelity,
		Attempts:        j.attempts,
		Error:           j.errMsg,
		CheckpointBytes: len(j.checkpoint),
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		wall := j.finished.Sub(j.started)
		v.WallMS = float64(wall) / float64(time.Millisecond)
		if j.state == StateDone && wall > 0 {
			v.SimCyclesPerSec = float64(j.res.Cycles) / wall.Seconds()
		}
	}
	if j.state == StateDone {
		v.TotalIPC = j.res.TotalIPC()
		if e := j.res.Estimate; e != nil {
			v.IPCCI95 = e.CI95
		}
	}
	if withResults && j.state == StateDone {
		res := j.res
		v.Results = &res
	}
	return v
}

// tryStart moves queued -> running; false if the job was cancelled while
// waiting in the queue.
func (j *job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state and wakes waiters.
func (j *job) finish(state State, res system.Results, errMsg string) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.res = res
	j.errMsg = errMsg
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
	j.closeStream(state)
}

func (j *job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Server is the simulation service: queue, worker pool, cache, metrics.
type Server struct {
	opts    Options
	metrics *Metrics
	cache   *sweep.Cache
	queue   chan *job
	// fastQueue is the analytic-job lane, drained by its own worker
	// pool: a sub-second estimate never waits behind queued
	// cycle-accurate simulations.
	fastQueue chan *job
	hub       *telemetry.Hub
	log       *slog.Logger
	started   time.Time
	occ       occHistory

	baseCtx    context.Context
	baseCancel context.CancelFunc
	// shutdownCh closes the moment Shutdown begins, so long-lived
	// streaming handlers (SSE) end promptly instead of pinning the HTTP
	// drain until the grace period expires.
	shutdownCh chan struct{}

	// retryPol backs off transient job-retry attempts: capped exponential
	// with full jitter (internal/retry), built from Options.RetryBackoff.
	retryPol retry.Policy

	mu          sync.Mutex
	jobs        map[string]*job
	byKey       map[string]*job // queued/running jobs, for coalescing
	sweeps      map[string]*sweepJob
	closed      bool
	nextID      int64
	nextSweepID int64

	busy     atomic.Int64
	workerWG sync.WaitGroup
	sweepWG  sync.WaitGroup
	shutOnce sync.Once
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	o := opts.norm()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       o,
		metrics:    newMetrics(),
		cache:      sweep.NewCache(o.CacheEntries),
		queue:      make(chan *job, o.QueueDepth),
		fastQueue:  make(chan *job, o.QueueDepth),
		hub:        telemetry.NewHub(o.Telemetry),
		log:        o.Logger,
		started:    time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		shutdownCh: make(chan struct{}),
		retryPol: retry.Policy{
			Initial: o.RetryBackoff, Max: o.RetryBackoffMax, Jitter: true,
		},
		jobs:   make(map[string]*job),
		byKey:  make(map[string]*job),
		sweeps: make(map[string]*sweepJob),
	}
	reg := s.metrics.Registry()
	reg.Func("queue_depth", func() any { return len(s.queue) })
	reg.Func("fast_queue_depth", func() any { return len(s.fastQueue) })
	reg.Func("workers", func() any { return o.Workers })
	reg.Func("workers_busy", func() any { return s.busy.Load() })
	reg.Func("cache_entries", func() any { return s.cache.Len() })
	reg.Func("sweeps_active", func() any { return s.activeSweeps() })
	reg.Func("uptime_seconds", func() any { return time.Since(s.started).Seconds() })
	reg.Func("build_info", func() any { return buildInfo(s.started) })
	for i := 0; i < o.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	for i := 0; i < o.FastWorkers; i++ {
		s.workerWG.Add(1)
		go s.fastWorker()
	}
	return s
}

// Metrics exposes the server's counters (tests, embedding binaries).
func (s *Server) Metrics() *Metrics { return s.metrics }

// worker drains the queue until it is closed by Shutdown. When the main
// queue has nothing ready, an idle worker helps the fast lane.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(j)
		case j, ok := <-s.fastQueue:
			if !ok {
				// Fast lane closed; keep draining the main queue.
				for j := range s.queue {
					s.runJob(j)
				}
				return
			}
			s.runJob(j)
		}
	}
}

// fastWorker drains only the fast lane, so analytic estimates keep their
// sub-second latency even when every general worker is deep in a
// cycle-accurate run.
func (s *Server) fastWorker() {
	defer s.workerWG.Done()
	for j := range s.fastQueue {
		s.runJob(j)
	}
}

// panicError marks a job failure caused by a recovered simulation panic.
// Panics are deterministic model bugs, never retried.
type panicError struct{ msg string }

func (e *panicError) Error() string { return e.msg }

// retryable reports whether a failed attempt may be retried: cancellation,
// deadline expiry, panics and pauses are final; other errors are treated as
// transient when the job asked for retries.
func retryable(err error) bool {
	var pe *panicError
	if errors.As(err, &pe) {
		return false
	}
	return !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, system.ErrPaused)
}

// runSim executes one simulation attempt, converting a panic in the
// simulation into an error so a crashing run fails its job instead of
// killing the worker (and with it the whole server).
func (s *Server) runSim(ctx context.Context, j *job) (res system.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Panics.Inc()
			res, err = system.Results{}, &panicError{msg: fmt.Sprintf("simulation panicked: %v", r)}
		}
	}()
	j.mu.Lock()
	j.attempts++
	j.mu.Unlock()
	if j.fidelity != "" {
		return s.opts.RunTier(ctx, j.fidelity, j.cfg, j.benchmarks)
	}
	return s.opts.Run(ctx, j.cfg, j.benchmarks)
}

// runJob executes one job — retrying transient failures up to the job's
// requested budget — and records its outcome.
func (s *Server) runJob(j *job) {
	if !j.tryStart() {
		// Cancelled while queued; cancelJob already finished it.
		return
	}
	s.metrics.ObserveQueueWait(time.Since(j.submitted))
	j.publishState(StateRunning)
	s.busy.Add(1)
	defer s.busy.Add(-1)

	ctx := j.ctx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	// Estimate-tier jobs skip the cycle-accurate context plumbing: the
	// sampled tier drives the machine through its own stepping API (an
	// armed checkpoint spec would corrupt its window surgery) and the
	// analytic tier has no machine at all. Pause, checkpoint and trace
	// are rejected for these jobs at submission.
	if j.fidelity == "" {
		// Arm the pause trigger: when fired, the simulator snapshots itself at
		// the next cycle boundary, hands the bytes here, and ends the run with
		// ErrPaused. The checkpoint is stored before finish() runs, so the
		// artifact is available the moment the job reports "paused". A RunFunc
		// that ignores the context (test fakes) simply never pauses.
		ctx = system.WithCheckpoint(ctx, system.CheckpointSpec{
			Trigger: j.pauseTrig,
			OnCheckpoint: func(cp system.Checkpoint) error {
				j.mu.Lock()
				j.checkpoint = append([]byte(nil), cp.Data...)
				j.mu.Unlock()
				return nil
			},
		})
		if j.restore != nil {
			ctx = system.WithRestore(ctx, system.RestoreSpec{Data: j.restore})
		}
		// Traced jobs publish their epoch series live: the hub sink rides the
		// recorder's epoch-flush seam, so untraced jobs pay nothing and traced
		// ones pay one publish per 1024-cycle measurement boundary.
		if j.cfg.Trace.Enabled && j.stream != nil {
			ctx = system.WithEpochSink(ctx, telemetry.NewJobSink(j.stream))
		}
	}
	start := time.Now()
	var (
		res system.Results
		err error
	)
	for attempt := 1; ; attempt++ {
		res, err = s.runSim(ctx, j)
		if err == nil || attempt > j.retries || !retryable(err) {
			break
		}
		s.metrics.Retries.Inc()
		if s.retryPol.Sleep(ctx, attempt) != nil {
			err = ctx.Err()
			break
		}
	}
	wall := time.Since(start)

	s.mu.Lock()
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	s.mu.Unlock()

	s.metrics.ObserveRunDuration(wall)

	switch {
	case err == nil:
		s.cache.Put(j.key, res)
		s.metrics.ObserveWall(wall)
		s.metrics.SimCycles.Add(res.Cycles)
		s.metrics.Completed.Inc()
		j.finish(StateDone, res, "")
	case errors.Is(err, system.ErrPaused):
		s.metrics.Paused.Inc()
		j.finish(StatePaused, system.Results{}, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.metrics.Cancelled.Inc()
		j.finish(StateCancelled, system.Results{}, err.Error())
	default:
		s.metrics.Failed.Inc()
		j.finish(StateFailed, system.Results{}, err.Error())
	}
	j.mu.Lock()
	state, attempts := j.state, j.attempts
	j.mu.Unlock()
	s.log.Info("job finished",
		"job_id", j.id, "state", string(state),
		"wall_ms", float64(wall)/float64(time.Millisecond), "attempts", attempts)
}

// Shutdown stops intake, then waits for queued and running jobs to drain.
// When ctx expires first, every remaining job is cancelled through the
// simulator's context plumbing and Shutdown still waits (briefly) for the
// workers to observe the cancellation. Subsequent submissions are refused
// with 503. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		// No submission can be in flight past this point: enqueue happens
		// under s.mu with the closed check, so closing the channels is safe.
		close(s.queue)
		close(s.fastQueue)
		// Wake every SSE handler so streaming connections end now, not at
		// the end of the HTTP server's grace period.
		close(s.shutdownCh)
		s.log.Info("shutdown started")
	})
	drained := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		s.sweepWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseCancel() // cancel every job context; workers unwind fast
		<-drained
		return ctx.Err()
	}
}

// ------------------------------------------------------------------ HTTP

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	// Preset names a base configuration: ddr2, fbd (default), fbd-ap,
	// fbd-apfl.
	Preset string `json:"preset"`
	// Config optionally overrides preset fields; unknown fields are
	// rejected, mirroring config.Load.
	Config json.RawMessage `json:"config"`
	// Benchmarks is the per-core program list (required).
	Benchmarks []string `json:"benchmarks"`
	Seed       int64    `json:"seed"`
	MaxInsts   int64    `json:"max_insts"`
	Warmup     int64    `json:"warmup_insts"`
	// Trace enables the memtrace recorder for this job; the trace and
	// timeline artifacts are then served at /v1/jobs/{id}/trace and
	// /v1/jobs/{id}/timeline once the job completes.
	Trace bool `json:"trace"`
	// Fidelity selects the simulation tier: "cycle-accurate" (or "",
	// the default), "sampled" or "analytic". Analytic jobs are admitted
	// to a dedicated fast lane and never queue behind cycle-accurate
	// work; sampled and analytic jobs cannot be traced, paused or
	// checkpointed.
	Fidelity string `json:"fidelity"`
	// Retries requests up to this many transient-failure retries (capped
	// by the server's MaxJobRetries). Cancellations, deadline expiries
	// and panics are never retried.
	Retries int `json:"retries"`
	// FromCheckpoint names a paused job whose snapshot this submission
	// resumes. The new job runs the source job's exact configuration and
	// workload from the checkpointed cycle; every other field except
	// retries must be left unset (the snapshot's fingerprint pins the
	// machine identity, so overrides could only fail at restore time).
	FromCheckpoint string `json:"from_checkpoint"`
}

// jobView is the JSON rendering of a job.
type jobView struct {
	ID         string   `json:"id"`
	Key        string   `json:"key"`
	State      string   `json:"state"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Fidelity is the job's simulation tier; absent means
	// cycle-accurate (so pre-fidelity clients and goldens see
	// byte-identical responses).
	Fidelity string `json:"fidelity,omitempty"`
	// TotalIPC is the done job's headline result; IPCCI95 is the 95%
	// confidence half-width on it for sampled jobs (absent otherwise).
	TotalIPC  float64 `json:"total_ipc,omitempty"`
	IPCCI95   float64 `json:"ipc_ci95,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	Attempts  int     `json:"attempts,omitempty"`
	WallMS    float64 `json:"wall_ms,omitempty"`
	// SimCyclesPerSec is the completed job's simulation throughput:
	// simulated CPU cycles divided by the attempt's wall time.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
	// CheckpointBytes is the size of a paused job's snapshot artifact.
	CheckpointBytes int             `json:"checkpoint_bytes,omitempty"`
	Error           string          `json:"error,omitempty"`
	Results         *system.Results `json:"results,omitempty"`
}

// route is one entry of the server's route table: the single source of
// truth for mux registration and the OpenAPI contract — the spec-drift
// test asserts this table and api/openapi.yaml describe exactly the same
// method/path surface.
type route struct {
	method  string
	pattern string
	h       http.HandlerFunc
}

// routes returns the full API surface. Add routes here (and to
// api/openapi.yaml — the drift test enforces the pairing), never directly
// on the mux.
func (s *Server) routes() []route {
	return []route{
		{"POST", "/v1/jobs", s.handleSubmit},
		{"GET", "/v1/jobs", s.handleJobs},
		{"GET", "/v1/jobs/{id}", s.handleGet},
		{"GET", "/v1/jobs/{id}/trace", s.handleTrace},
		{"GET", "/v1/jobs/{id}/timeline", s.handleTimeline},
		{"GET", "/v1/jobs/{id}/events", s.handleJobEvents},
		{"GET", "/v1/jobs/{id}/stats", s.handleJobStats},
		{"POST", "/v1/jobs/{id}/pause", s.handlePause},
		{"GET", "/v1/jobs/{id}/checkpoint", s.handleCheckpoint},
		{"DELETE", "/v1/jobs/{id}", s.handleCancel},
		{"GET", "/v1/results/{key}", s.handleResult},
		{"POST", "/v1/sweeps", s.handleSweepSubmit},
		{"GET", "/v1/sweeps/{id}", s.handleSweepGet},
		{"GET", "/v1/sweeps/{id}/results", s.handleSweepResults},
		{"GET", "/v1/sweeps/{id}/events", s.handleSweepEvents},
		{"DELETE", "/v1/sweeps/{id}", s.handleSweepCancel},
		{"GET", "/v1/dashboard", s.handleDashboard},
		{"GET", "/v1/version", s.handleVersion},
		{"GET", "/healthz", s.handleHealth},
		{"GET", "/readyz", s.handleReady},
		{"GET", "/metrics", s.handleMetrics},
	}
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.method+" "+rt.pattern, rt.h)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Stable machine-readable error codes carried by every /v1 error response.
const (
	codeBadRequest    = "bad_request"
	codeNotFound      = "not_found"
	codeConflict      = "conflict"
	codeQueueFull     = "queue_full"
	codeShuttingDown  = "shutting_down"
	codeCancelTimeout = "cancel_timeout"
	codePauseTimeout  = "pause_timeout"
	codeInternal      = "internal"
)

// errorView is the uniform error envelope of the /v1 API:
// {"error": {"code": ..., "message": ...}}.
type errorView struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorView{Error: errorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// resolveConfig materializes a preset name plus an optional strict JSON
// overlay into a Config. It is the shared front half of job and sweep
// config resolution.
func resolveConfig(preset string, overlay json.RawMessage) (config.Config, error) {
	var cfg config.Config
	switch preset {
	case "", "fbd":
		cfg = config.Default()
	case "ddr2":
		cfg = config.DDR2Baseline()
	case "fbd-ap":
		cfg = config.WithAMBPrefetch(config.Default())
	case "fbd-apfl":
		cfg = config.WithFullLatencyHits(config.Default())
	default:
		return config.Config{}, fmt.Errorf("unknown preset %q (want ddr2, fbd, fbd-ap, fbd-apfl)", preset)
	}
	if len(overlay) > 0 {
		dec := json.NewDecoder(bytes.NewReader(overlay))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return config.Config{}, fmt.Errorf("config overrides: %v", err)
		}
	}
	return cfg, nil
}

// validBenchmarks rejects unknown program names.
func validBenchmarks(benchmarks []string) error {
	for _, b := range benchmarks {
		if _, err := trace.ProfileFor(b); err != nil {
			return fmt.Errorf("unknown benchmark %q (valid: %v)", b, trace.AllProgramNames())
		}
	}
	return nil
}

// buildConfig resolves preset + overrides + budgets into a validated Config.
func (s *Server) buildConfig(req *submitRequest) (config.Config, error) {
	cfg, err := resolveConfig(req.Preset, req.Config)
	if err != nil {
		return config.Config{}, err
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if req.MaxInsts > 0 {
		cfg.MaxInsts = req.MaxInsts
	}
	if req.Warmup > 0 {
		cfg.WarmupInsts = req.Warmup
	}
	if req.Trace {
		cfg.Trace.Enabled = true
	}
	if s.opts.MaxInsts > 0 && cfg.MaxInsts > s.opts.MaxInsts {
		return config.Config{}, fmt.Errorf("max_insts %d exceeds server cap %d", cfg.MaxInsts, s.opts.MaxInsts)
	}
	if len(req.Benchmarks) == 0 {
		return config.Config{}, errors.New("benchmarks list is required")
	}
	if err := validBenchmarks(req.Benchmarks); err != nil {
		return config.Config{}, err
	}
	cfg.CPU.Cores = len(req.Benchmarks)
	if err := cfg.Validate(); err != nil {
		return config.Config{}, err
	}
	return cfg, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "decoding request: %v", err)
		return
	}
	if req.FromCheckpoint != "" {
		if req.Fidelity != "" {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"from_checkpoint resumes cycle-accurately; fidelity cannot accompany it")
			return
		}
		s.resumeFromCheckpoint(w, &req)
		return
	}
	tier, err := fidelity.Parse(req.Fidelity)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	fid := ""
	if tier != fidelity.CycleAccurate {
		fid = string(tier)
	}
	if fid != "" && req.Trace {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"tracing requires cycle-accurate fidelity; %s jobs return estimates", fid)
		return
	}
	cfg, err := s.buildConfig(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	s.admit(w, fidelity.Key(tier, cfg, req.Benchmarks), cfg, req.Benchmarks, req.Retries, nil, fid)
}

// resumeFromCheckpoint admits a job that continues a paused job's simulation
// from its stored snapshot instead of cycle zero. The resumed run replays
// the exact machine, so it shares the source job's cache key: a cached or
// in-flight identical run satisfies the resume without simulating.
func (s *Server) resumeFromCheckpoint(w http.ResponseWriter, req *submitRequest) {
	if req.Preset != "" || len(req.Config) > 0 || len(req.Benchmarks) > 0 ||
		req.Seed != 0 || req.MaxInsts != 0 || req.Warmup != 0 || req.Trace {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"from_checkpoint resumes the source job's exact configuration; only \"retries\" may accompany it")
		return
	}
	src := s.lookup(req.FromCheckpoint)
	if src == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job %q", req.FromCheckpoint)
		return
	}
	src.mu.Lock()
	state, data := src.state, src.checkpoint
	src.mu.Unlock()
	if state != StatePaused || len(data) == 0 {
		writeError(w, http.StatusConflict, codeConflict,
			"job %s is %s; only a paused job's checkpoint can be resumed", src.id, state)
		return
	}
	s.admit(w, src.key, src.cfg, src.benchmarks, req.Retries, data, "")
}

// admit runs the shared admission path: cache fast path, in-flight
// coalescing, then enqueue. restore, when non-nil, is the snapshot the job
// starts from.
func (s *Server) admit(w http.ResponseWriter, key string, cfg config.Config, benchmarks []string, retries int, restore []byte, fid string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown, "server is shutting down")
		return
	}
	// Fast path 1: an identical completed run is cached.
	if res, ok := s.cache.Get(key); ok {
		id := s.newIDLocked()
		j := s.newJobLocked(id, key, cfg, benchmarks, 0)
		j.fidelity = fid
		j.finish(StateDone, res, "")
		j.cancel() // release the job context; nothing will run
		s.metrics.Accepted.Inc()
		s.metrics.CacheHits.Inc()
		s.mu.Unlock()
		v := j.snapshotView(true)
		v.Cached = true
		writeJSON(w, http.StatusOK, v)
		return
	}
	// Fast path 2: an identical job is already queued or running —
	// coalesce onto it instead of simulating twice.
	if existing, ok := s.byKey[key]; ok {
		s.metrics.Accepted.Inc()
		s.metrics.CacheHits.Inc()
		s.mu.Unlock()
		v := existing.snapshotView(false)
		v.Coalesced = true
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	// Slow path: a fresh simulation must be queued. Analytic jobs take
	// the fast lane — its dedicated workers guarantee they never wait
	// behind queued cycle-accurate simulations.
	id := s.newIDLocked()
	j := s.newJobLocked(id, key, cfg, benchmarks, retries)
	j.fidelity = fid
	j.restore = restore
	lane := s.queue
	if fid == string(fidelity.Analytic) {
		lane = s.fastQueue
	}
	select {
	case lane <- j:
	default:
		delete(s.jobs, id)
		j.cancel()
		s.metrics.Rejected.Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.RetryAfter.Seconds()+0.5)))
		writeError(w, http.StatusTooManyRequests, codeQueueFull, "job queue full (depth %d); retry later", s.opts.QueueDepth)
		return
	}
	s.byKey[key] = j
	s.metrics.Accepted.Inc()
	s.metrics.CacheMisses.Inc()
	s.mu.Unlock()
	s.log.Info("job accepted", "job_id", j.id, "benchmarks", benchmarks,
		"traced", cfg.Trace.Enabled, "fidelity", fidelity.Tier(fid).String())
	writeJSON(w, http.StatusAccepted, j.snapshotView(false))
}

// newIDLocked mints a job id; caller holds s.mu.
func (s *Server) newIDLocked() string {
	s.nextID++
	return fmt.Sprintf("job-%d", s.nextID)
}

// newJobLocked creates and registers a job record; caller holds s.mu.
func (s *Server) newJobLocked(id, key string, cfg config.Config, benchmarks []string, retries int) *job {
	if retries < 0 {
		retries = 0
	}
	if retries > s.opts.MaxJobRetries {
		retries = s.opts.MaxJobRetries
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:         id,
		key:        key,
		cfg:        cfg,
		benchmarks: append([]string(nil), benchmarks...),
		submitted:  time.Now(),
		retries:    retries,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		state:      StateQueued,
		pauseTrig:  &system.Trigger{},
		stream:     s.hub.Open(id),
	}
	j.publishState(StateQueued)
	s.jobs[id] = j
	return j
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobFromPath resolves the request's {id} path value to a job, writing the
// 404 itself when there is none. Returns nil after an error has been
// written.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) *job {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job")
	}
	return j
}

// jobsView is the GET /v1/jobs body: every tracked job in submission
// order, without embedded results (poll GET /v1/jobs/{id} for those). Each
// entry carries the job's fidelity tier, and for done jobs the headline
// total IPC — with its 95% confidence half-width when the job ran sampled.
type jobsView struct {
	Jobs []jobView `json:"jobs"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	idOrder(ids)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := jobsView{Jobs: make([]jobView, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.snapshotView(false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.snapshotView(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	s.cancelJob(j)
	// The simulator polls its context at cycle-batch granularity, so a
	// running job reaches a terminal state within milliseconds; wait for
	// it so the response carries the final state.
	select {
	case <-j.done:
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, codeCancelTimeout, "cancellation still in flight")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshotView(false))
}

// cancelJob cancels one job whatever its phase. A queued job is finished
// immediately (the worker will skip it); a running one is stopped through
// its context and the worker records the outcome.
func (s *Server) cancelJob(j *job) {
	j.mu.Lock()
	if j.state == StateQueued {
		// Atomic with tryStart (both hold j.mu): the worker cannot start
		// this job anymore.
		j.state = StateCancelled
		j.errMsg = context.Canceled.Error()
		j.finished = time.Now()
		j.mu.Unlock()
		close(j.done)
		j.closeStream(StateCancelled)
		s.mu.Lock()
		if s.byKey[j.key] == j {
			delete(s.byKey, j.key)
		}
		s.mu.Unlock()
		s.metrics.Cancelled.Inc()
		j.cancel()
		return
	}
	j.mu.Unlock()
	j.cancel()
}

// handlePause fires a running job's pause trigger and waits for the
// simulator to take the checkpoint. The trigger is observed at the next
// 1024-cycle boundary, so the wait is milliseconds; the response carries the
// job's resulting state — normally "paused", or "done" when the run crossed
// the finish line before the trigger landed.
func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	if j.fidelity != "" {
		writeError(w, http.StatusConflict, codeConflict,
			"%s jobs cannot be paused; only cycle-accurate simulations checkpoint", j.fidelity)
		return
	}
	switch state := j.currentState(); state {
	case StateRunning:
	case StateQueued:
		writeError(w, http.StatusConflict, codeConflict,
			"job is queued; pause applies to a running job (cancel it instead)")
		return
	default:
		writeError(w, http.StatusConflict, codeConflict, "job is already %s", state)
		return
	}
	j.pauseTrig.Fire()
	select {
	case <-j.done:
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, codePauseTimeout, "pause still in flight")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshotView(false))
}

// handleCheckpoint serves a paused job's snapshot artifact. The bytes are
// the simulator's versioned snapshot container, suitable for
// "from_checkpoint" resubmission or offline fbdsim -restore.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, data := j.state, j.checkpoint
	j.mu.Unlock()
	switch {
	case !state.terminal():
		writeError(w, http.StatusConflict, codeConflict, "job is %s; pause it to produce a checkpoint", state)
		return
	case len(data) == 0:
		writeError(w, http.StatusNotFound, codeNotFound, "job %s has no checkpoint artifact", state)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.id+".snapshot"))
	_, _ = w.Write(data)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.cache.Get(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no cached result for key")
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyView is the structured /readyz body: one document whatever the
// verdict, so probes and operators read capacity from the same endpoint
// that gates routing.
type readyView struct {
	Status        string `json:"status"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Workers       int    `json:"workers"`
	WorkersBusy   int64  `json:"workers_busy"`
	SweepsActive  int    `json:"sweeps_active"`
}

// handleReady is the load-balancer readiness probe, distinct from liveness:
// a saturated queue or a begun shutdown answers 503 so routing stops before
// submissions start bouncing with 429, while /healthz keeps reporting the
// process alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	v := readyView{
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Workers:       s.opts.Workers,
		WorkersBusy:   s.busy.Load(),
		SweepsActive:  s.activeSweeps(),
	}
	switch {
	case closed:
		v.Status = "shutting down"
		writeJSON(w, http.StatusServiceUnavailable, v)
	case v.QueueDepth >= v.QueueCapacity:
		v.Status = "saturated"
		writeJSON(w, http.StatusServiceUnavailable, v)
	default:
		v.Status = "ready"
		writeJSON(w, http.StatusOK, v)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.Registry().WriteProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.Registry().WriteJSON(w)
}

// traceSummary fetches a done job's memtrace summary, writing the error
// response itself when the artifact is unavailable. Returns nil after an
// error has been written.
func (s *Server) traceSummary(w http.ResponseWriter, r *http.Request) *memtrace.Summary {
	j := s.jobFromPath(w, r)
	if j == nil {
		return nil
	}
	j.mu.Lock()
	state := j.state
	tr := j.res.Trace
	j.mu.Unlock()
	switch {
	case !state.terminal():
		writeError(w, http.StatusConflict, codeConflict, "job is %s; artifacts are available once it is done", state)
		return nil
	case state != StateDone:
		writeError(w, http.StatusNotFound, codeNotFound, "job %s; no results", state)
		return nil
	case tr == nil:
		writeError(w, http.StatusNotFound, codeNotFound, "job ran without tracing; submit with \"trace\": true")
		return nil
	}
	return tr
}

// handleTrace serves a done job's Chrome trace_event JSON (Perfetto-loadable).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.traceSummary(w, r)
	if tr == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", "attachment; filename=\"trace.json\"")
	_ = tr.WriteChromeTrace(w)
}

// handleTimeline serves a done job's epoch time-series as CSV.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	tr := s.traceSummary(w, r)
	if tr == nil {
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition", "attachment; filename=\"timeline.csv\"")
	_ = tr.WriteTimelineCSV(w)
}
