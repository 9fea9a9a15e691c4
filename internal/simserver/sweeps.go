package simserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"fbdsim/internal/sweep"
	"fbdsim/internal/telemetry"
	"fbdsim/internal/workload"
)

// This file is the sweep half of the API: POST /v1/sweeps expands a
// declarative grid (configs × workloads × seeds) through the
// internal/sweep engine, GET polls progress, GET .../results streams the
// completed points as NDJSON (optionally tailing a live sweep with
// ?follow=1), DELETE cancels. Sweeps share the server's single-flight
// result cache with individual job submissions, so identical simulations
// are never run twice no matter which door they come in through.

// sweepConfigDim is one configuration-dimension entry of a sweep request:
// a preset plus an optional strict JSON overlay, exactly like a job
// submission's preset/config pair.
type sweepConfigDim struct {
	// Name labels the dimension value in results; defaults to the preset
	// name. Names must be unique within one sweep.
	Name   string          `json:"name"`
	Preset string          `json:"preset"`
	Config json.RawMessage `json:"config"`
	// Fidelity overrides the sweep-level tier for this config's points
	// ("" inherits): triage the grid analytically, refine one config
	// cycle-accurately, in a single submission.
	Fidelity string `json:"fidelity"`
}

// sweepWorkloadDim is one workload-dimension entry: a benchmark list run
// one-per-core. Name defaults to the benchmarks joined with "+".
type sweepWorkloadDim struct {
	Name       string   `json:"name"`
	Benchmarks []string `json:"benchmarks"`
}

// sweepRequest is the POST /v1/sweeps body. The grid is the cross product
// Configs × Workloads × Seeds; each point is one simulation.
type sweepRequest struct {
	Name      string             `json:"name"`
	Configs   []sweepConfigDim   `json:"configs"`
	Workloads []sweepWorkloadDim `json:"workloads"`
	// Seeds is the seed dimension; empty runs one pass per
	// (config, workload) with each config's own seed.
	Seeds []int64 `json:"seeds"`
	// MaxInsts > 0 overrides every point's instruction budget;
	// WarmupInsts > 0 overrides every point's warmup budget.
	MaxInsts    int64 `json:"max_insts"`
	WarmupInsts int64 `json:"warmup_insts"`
	// Parallel bounds concurrently simulating points, clamped to the
	// server's SweepParallel cap (0 takes the cap).
	Parallel int `json:"parallel"`
	// Fidelity selects every point's simulation tier: "cycle-accurate"
	// (or "", the default), "sampled" or "analytic". Per-config
	// fidelity overrides it point-wise.
	Fidelity string `json:"fidelity"`
}

// sweepView is the JSON rendering of a sweep.
type sweepView struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	// Fingerprint is the spec's identity hash (see sweep.Spec.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Progress carries the engine counters: total, completed, failed,
	// cache hits.
	Progress sweep.Progress `json:"progress"`
	// Points is the number of grid points emitted so far; they are
	// readable at /v1/sweeps/{id}/results while the sweep runs.
	Points int     `json:"points"`
	Error  string  `json:"error,omitempty"`
	WallMS float64 `json:"wall_ms,omitempty"`
}

// sweepJob is one tracked sweep plus its accumulated points. progress is
// the engine's live counter snapshot (sweep.Engine.Progress).
type sweepJob struct {
	id          string
	name        string
	fingerprint string
	total       int
	progress    func() sweep.Progress
	cancel      context.CancelFunc
	done        chan struct{} // closed on terminal transition

	// stream is the sweep's live-telemetry channel: lifecycle states plus
	// one point event per completed grid point.
	stream *telemetry.Stream

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on point append and terminal transition
	state    State
	points   []sweep.Point
	errMsg   string
	started  time.Time
	finished time.Time
}

func newSweepJob(id string, spec sweep.Spec, total int, progress func() sweep.Progress, cancel context.CancelFunc, stream *telemetry.Stream) *sweepJob {
	sj := &sweepJob{
		id:          id,
		name:        spec.Name,
		fingerprint: spec.Fingerprint(),
		total:       total,
		progress:    progress,
		cancel:      cancel,
		done:        make(chan struct{}),
		stream:      stream,
		state:       StateRunning,
		started:     time.Now(),
	}
	sj.cond = sync.NewCond(&sj.mu)
	if stream != nil {
		stream.PublishState(string(StateRunning))
	}
	return sj
}

func (sj *sweepJob) view() sweepView {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	v := sweepView{
		ID:          sj.id,
		Name:        sj.name,
		State:       string(sj.state),
		Fingerprint: sj.fingerprint,
		Progress:    sj.progress(),
		Points:      len(sj.points),
		Error:       sj.errMsg,
	}
	if !sj.finished.IsZero() {
		v.WallMS = float64(sj.finished.Sub(sj.started)) / float64(time.Millisecond)
	}
	return v
}

func (sj *sweepJob) currentState() State {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.state
}

// finish records the terminal state and wakes pollers and followers.
func (sj *sweepJob) finish(state State, errMsg string) {
	sj.mu.Lock()
	closed := sj.state.terminal()
	if !closed {
		sj.state = state
		sj.errMsg = errMsg
		sj.finished = time.Now()
		close(sj.done)
	}
	sj.cond.Broadcast()
	sj.mu.Unlock()
	if !closed && sj.stream != nil {
		sj.stream.Close(string(state))
	}
}

// buildSweepSpec resolves a sweep request into a validated engine spec,
// applying the server's parallelism, grid-size and instruction-budget caps.
func (s *Server) buildSweepSpec(req *sweepRequest) (sweep.Spec, error) {
	spec := sweep.Spec{
		Name:        req.Name,
		Seeds:       req.Seeds,
		MaxInsts:    req.MaxInsts,
		WarmupInsts: -1, // keep each config's own warmup by default
		Parallel:    req.Parallel,
		Fidelity:    req.Fidelity,
	}
	if spec.Name == "" {
		spec.Name = "sweep"
	}
	if req.WarmupInsts > 0 {
		spec.WarmupInsts = req.WarmupInsts
	}
	if spec.Parallel <= 0 || spec.Parallel > s.opts.SweepParallel {
		spec.Parallel = s.opts.SweepParallel
	}
	for _, dim := range req.Configs {
		cfg, err := resolveConfig(dim.Preset, dim.Config)
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("config %q: %v", dim.Name, err)
		}
		name := dim.Name
		if name == "" {
			if name = dim.Preset; name == "" {
				name = "fbd"
			}
		}
		spec.Configs = append(spec.Configs, sweep.NamedConfig{Name: name, Config: cfg, Fidelity: dim.Fidelity})
	}
	for _, dim := range req.Workloads {
		if err := validBenchmarks(dim.Benchmarks); err != nil {
			return sweep.Spec{}, fmt.Errorf("workload %q: %v", dim.Name, err)
		}
		name := dim.Name
		if name == "" {
			name = strings.Join(dim.Benchmarks, "+")
		}
		spec.Workloads = append(spec.Workloads, workload.Workload{Name: name, Benchmarks: dim.Benchmarks})
	}
	if err := spec.Validate(); err != nil {
		return sweep.Spec{}, err
	}
	seeds := len(spec.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	if points := len(spec.Configs) * len(spec.Workloads) * seeds; points > s.opts.MaxSweepPoints {
		return sweep.Spec{}, fmt.Errorf("sweep grid has %d points, server cap is %d", points, s.opts.MaxSweepPoints)
	}
	// Validate every grid point's effective configuration up front: a bad
	// point must fail the submission, not surface minutes later as a
	// failed shard.
	for _, nc := range spec.Configs {
		c := nc.Config
		if spec.MaxInsts > 0 {
			c.MaxInsts = spec.MaxInsts
		}
		if spec.WarmupInsts >= 0 {
			c.WarmupInsts = spec.WarmupInsts
		}
		if s.opts.MaxInsts > 0 && c.MaxInsts > s.opts.MaxInsts {
			return sweep.Spec{}, fmt.Errorf("config %q: max_insts %d exceeds server cap %d", nc.Name, c.MaxInsts, s.opts.MaxInsts)
		}
		for _, wl := range spec.Workloads {
			c.CPU.Cores = len(wl.Benchmarks)
			if err := c.Validate(); err != nil {
				return sweep.Spec{}, fmt.Errorf("config %q with workload %q: %v", nc.Name, wl.Name, err)
			}
		}
	}
	return spec, nil
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "decoding request: %v", err)
		return
	}
	spec, err := s.buildSweepSpec(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	eng, err := sweep.New(spec, sweep.Options{
		Run:     sweep.RunFunc(s.opts.Run),
		RunTier: sweep.TierRunFunc(s.opts.RunTier),
		Cache:   s.cache,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown, "server is shutting down")
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	ch, err := eng.Start(ctx)
	if err != nil {
		s.mu.Unlock()
		cancel()
		writeError(w, http.StatusInternalServerError, codeInternal, "starting sweep: %v", err)
		return
	}
	s.nextSweepID++
	id := fmt.Sprintf("sweep-%d", s.nextSweepID)
	sj := newSweepJob(id, spec, eng.Total(), eng.Progress, cancel, s.hub.Open(id))
	s.sweeps[sj.id] = sj
	s.sweepWG.Add(1)
	s.mu.Unlock()

	s.metrics.SweepsAccepted.Inc()
	s.log.Info("sweep accepted", "sweep_id", sj.id, "name", sj.name, "points", eng.Total())
	go s.drainSweep(sj, ctx, ch)
	writeJSON(w, http.StatusAccepted, sj.view())
}

// drainSweep accumulates the engine's point stream into the sweep record
// and settles its terminal state once the stream closes.
func (s *Server) drainSweep(sj *sweepJob, ctx context.Context, ch <-chan sweep.Point) {
	defer s.sweepWG.Done()
	emitted := 0
	for p := range ch {
		sj.mu.Lock()
		sj.points = append(sj.points, p)
		sj.cond.Broadcast()
		sj.mu.Unlock()
		emitted++
		s.metrics.SweepPoints.Inc()
		if sj.stream != nil {
			// Same JSON rendering the NDJSON results endpoint streams, so
			// SSE followers and ?follow=1 tails see identical documents.
			if data, err := json.Marshal(p); err == nil {
				sj.stream.PublishPoint(data)
			}
		}
	}
	// The engine emits one point per grid slot (failed points carry Err);
	// anything short means cancellation stopped dispatch.
	if emitted == sj.total {
		s.metrics.SweepsCompleted.Inc()
		sj.finish(StateDone, "")
		s.log.Info("sweep finished", "sweep_id", sj.id, "state", string(StateDone), "points", emitted)
		return
	}
	s.metrics.SweepsCancelled.Inc()
	msg := context.Canceled.Error()
	if err := ctx.Err(); err != nil {
		msg = err.Error()
	}
	sj.finish(StateCancelled, msg)
	s.log.Info("sweep finished", "sweep_id", sj.id, "state", string(StateCancelled), "points", emitted)
}

func (s *Server) lookupSweep(id string) *sweepJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

// sweepFromPath is jobFromPath for sweeps.
func (s *Server) sweepFromPath(w http.ResponseWriter, r *http.Request) *sweepJob {
	sj := s.lookupSweep(r.PathValue("id"))
	if sj == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "no such sweep")
	}
	return sj
}

// activeSweeps counts non-terminal sweeps (the sweeps_active gauge).
func (s *Server) activeSweeps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sj := range s.sweeps {
		if !sj.currentState().terminal() {
			n++
		}
	}
	return n
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	sj := s.sweepFromPath(w, r)
	if sj == nil {
		return
	}
	writeJSON(w, http.StatusOK, sj.view())
}

// handleSweepResults streams the sweep's completed points as NDJSON, one
// sweep.Point per line in completion order. Without ?follow=1 it returns
// the points completed so far and ends; with it, the stream stays open and
// tails new points until the sweep reaches a terminal state or the client
// disconnects.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	sj := s.sweepFromPath(w, r)
	if sj == nil {
		return
	}
	follow := r.URL.Query().Get("follow") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting follower must not sleep on the condition variable
	// forever; wake it so the wait loop can observe the dead request.
	stopWatch := context.AfterFunc(r.Context(), func() {
		sj.mu.Lock()
		sj.cond.Broadcast()
		sj.mu.Unlock()
	})
	defer stopWatch()

	next := 0
	for {
		sj.mu.Lock()
		if follow {
			for next >= len(sj.points) && !sj.state.terminal() && r.Context().Err() == nil {
				sj.cond.Wait()
			}
		}
		batch := append([]sweep.Point(nil), sj.points[next:]...)
		next += len(batch)
		terminal := sj.state.terminal()
		sj.mu.Unlock()

		for _, p := range batch {
			if err := enc.Encode(p); err != nil {
				return
			}
		}
		if flusher != nil && len(batch) > 0 {
			flusher.Flush()
		}
		if !follow || terminal || r.Context().Err() != nil {
			return
		}
	}
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sj := s.sweepFromPath(w, r)
	if sj == nil {
		return
	}
	sj.cancel()
	// In-flight shards observe the cancellation at cycle-batch granularity;
	// wait for the terminal state so the response carries it.
	select {
	case <-sj.done:
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, codeCancelTimeout, "cancellation still in flight")
		return
	}
	writeJSON(w, http.StatusOK, sj.view())
}
