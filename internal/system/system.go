// Package system wires cores, cache hierarchy and memory controller into a
// complete simulated machine and runs it to an instruction budget. It is
// the execution engine behind every experiment: build a System from a
// Config and a benchmark list, call Run, read the Results.
package system

import (
	"context"
	"fmt"
	"os"

	"fbdsim/internal/ambcache"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/cpu"
	"fbdsim/internal/dram"
	"fbdsim/internal/fault"
	"fbdsim/internal/memctrl"
	"fbdsim/internal/memtrace"
	"fbdsim/internal/stats"
	"fbdsim/internal/trace"
)

// Results summarizes one simulation run (post-warmup deltas only).
type Results struct {
	Benchmarks []string
	Cores      int

	// IPC per core, in benchmark order.
	IPC []float64
	// Committed instructions per core.
	Committed []int64
	// Cycles is the measured CPU-cycle count.
	Cycles int64

	// Memory subsystem measurements.
	Reads            int64
	Writes           int64
	AMBHits          int64
	AvgReadLatencyNS float64
	// Read-latency distribution over the measured window.
	P50LatencyNS float64
	P90LatencyNS float64
	P99LatencyNS float64
	MaxLatencyNS float64
	// LatencyHist is the full post-warmup distribution (nil only for
	// zero-read runs).
	LatencyHist *stats.Histogram
	// UtilizedBandwidthGBs is total channel traffic divided by wall time —
	// the metric of Figures 5 and 10.
	UtilizedBandwidthGBs float64
	// BankConflicts counts activations delayed by bank-level timing —
	// the inefficiency Section 5.2 argues AMB prefetching reduces.
	BankConflicts int64
	// ReadLinkUtilization / WriteLinkUtilization are the busy fractions of
	// the read path (northbound / DDR2 data bus) and the write/command
	// path, averaged over channels.
	ReadLinkUtilization  float64
	WriteLinkUtilization float64

	DRAM dram.Counters
	AMB  ambcache.Stats

	// Faults summarizes injected faults and their cost over the measured
	// window (all zero unless Config.Fault.Enabled was set).
	Faults fault.Counters

	// L2 behaviour.
	L2Accesses   int64
	L2Misses     int64
	DemandMisses int64
	SWPrefetches int64
	HWPrefetches int64
	Writebacks   int64

	// Trace is the memtrace summary (per-stage latency breakdowns, epoch
	// time-series, retained per-request events); nil unless
	// Config.Trace.Enabled was set.
	Trace *memtrace.Summary

	// Estimate describes how these Results were produced when the sampled
	// fidelity tier generated them: the tier name, the headline-IPC
	// confidence interval, and the tier's cost accounting. Nil for
	// cycle-accurate runs, so cycle-accurate JSON output is unchanged.
	Estimate *EstimateInfo `json:",omitempty"`
}

// EstimateInfo annotates Results produced by a reduced-fidelity tier.
type EstimateInfo struct {
	// Tier is "sampled".
	Tier string
	// TotalIPC is the headline estimate (sum of per-core IPC).
	TotalIPC float64
	// CI95 is the half-width of the 95% confidence interval on TotalIPC
	// (batch-means over measured windows for the sampled tier; 0 when the
	// tier provides no variance estimate).
	CI95 float64 `json:",omitempty"`
	// Windows / DetailedInsts / FunctionalInsts account for the sampled
	// tier's cost: measured windows, per-core instructions simulated in
	// detail, and per-core instructions executed functionally.
	Windows         int   `json:",omitempty"`
	DetailedInsts   int64 `json:",omitempty"`
	FunctionalInsts int64 `json:",omitempty"`
	// PerWindowIPC is the sampled tier's batch-means input (total IPC per
	// measured window).
	PerWindowIPC []float64 `json:",omitempty"`
}

// L2MissRate returns L2 misses per access.
func (r Results) L2MissRate() float64 {
	if r.L2Accesses == 0 {
		return 0
	}
	return float64(r.L2Misses) / float64(r.L2Accesses)
}

// TotalIPC returns the sum of per-core IPCs.
func (r Results) TotalIPC() float64 {
	sum := 0.0
	for _, v := range r.IPC {
		sum += v
	}
	return sum
}

// warmSnapshot captures every cumulative counter at the warmup boundary:
// the measurement baseline results are reported against.
type warmSnapshot struct {
	cycle      int64
	committed  []int64
	hist       *stats.Histogram
	ctrl       memctrl.Stats
	dram       dram.Counters
	amb        ambcache.Stats
	faults     fault.Counters
	north      int64
	south      int64
	conflicts  int64
	northBusy  clock.Time
	southBusy  clock.Time
	l2Acc      int64
	l2Miss     int64
	demand     int64
	swPrefetch int64
	hwPrefetch int64
	writebacks int64
}

// System is one fully-wired simulated machine.
type System struct {
	cfg   config.Config
	names []string
	ctrl  *memctrl.Controller
	hier  *cpu.Hierarchy
	cores []*cpu.Core
	ratio int64

	// refLoop forces the tick-every-cycle reference loop instead of the
	// event-driven fast-forward loop. Settable via the SIM_REFERENCE_LOOP
	// environment variable (any non-empty value) or SetReferenceLoop; the
	// two loops produce bit-identical Results, so this exists as an escape
	// hatch and as the oracle for the equivalence property tests.
	refLoop bool

	// cycle is the boundary cycle the machine is parked at and the next
	// run resumes from: 0 when built, the final boundary after a completed
	// run (the sampled tier steps one machine through many windows).
	cycle int64
}

// New builds a system running one benchmark per core. The Config's
// CPU.Cores is overridden by len(benchmarks).
func New(cfg config.Config, benchmarks []string) (*System, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("system: no benchmarks given")
	}
	cfg.CPU.Cores = len(benchmarks)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctrl := memctrl.New(&cfg.Mem)
	if cfg.Trace.Enabled {
		ctrl.SetRecorder(memtrace.New(memtrace.Config{
			Epoch:     cfg.Trace.Epoch,
			MaxEvents: cfg.Trace.MaxEvents,
			Channels:  cfg.Mem.LogicalChannels,
			DIMMBuses: cfg.Mem.LogicalChannels * cfg.Mem.DIMMsPerChannel,
		}))
	}
	if cfg.Fault.Enabled {
		ctrl.SetInjector(fault.FromConfig(cfg.Fault))
	}
	hier := cpu.NewHierarchy(&cfg.CPU, cfg.CPU.Cores, ctrl)
	// Start from a steady-state L2 so short runs produce representative
	// eviction/writeback traffic (see PrewarmL2). The dirty fraction
	// approximates the steady-state share of written-to lines: about one
	// in three streams is a store stream, and stores also dirty part of
	// the hot set.
	hier.PrewarmL2(0.35)
	s := &System{
		cfg:     cfg,
		names:   append([]string(nil), benchmarks...),
		ctrl:    ctrl,
		hier:    hier,
		ratio:   int64(clock.CPUCyclesPerTCK(cfg.Mem.DataRate)),
		refLoop: os.Getenv("SIM_REFERENCE_LOOP") != "",
	}
	for i, name := range benchmarks {
		p, err := trace.ProfileFor(name)
		if err != nil {
			return nil, err
		}
		gen := trace.NewSynthetic(p, i, cfg.Seed)
		s.cores = append(s.cores, cpu.NewCore(&s.cfg.CPU, i, gen, hier))
	}
	return s, nil
}

// Controller exposes the memory controller (tests and experiments).
func (s *System) Controller() *memctrl.Controller { return s.ctrl }

// Hierarchy exposes the cache hierarchy (tests and experiments).
func (s *System) Hierarchy() *cpu.Hierarchy { return s.hier }

// Run executes warmup then measurement and returns the measured Results.
// It errors out if the machine stops making progress (a model bug guard).
func (s *System) Run() (Results, error) {
	return s.RunContext(context.Background())
}

// SetReferenceLoop selects (true) or deselects (false) the tick-every-cycle
// reference loop for subsequent runs. It exists for the equivalence
// property tests; production callers use SIM_REFERENCE_LOOP.
func (s *System) SetReferenceLoop(ref bool) { s.refLoop = ref }

// checkInterval is the cycle batch between boundary checks (cancellation,
// warmup snapshot, measurement end, progress guard). Both loops use the
// same interval so snapshots land on identical cycles.
const checkInterval = int64(1024)

// RunContext is Run with cancellation: ctx is checked at least once per
// cycle batch (1024 executed CPU cycles) and once per fast-forward skip, so
// a cancelled run stops within milliseconds of wall time rather than at the
// instruction budget. On cancellation it returns ctx.Err() and an empty
// Results.
//
// By default the system runs the event-driven loop, which jumps from one
// machine-wide interesting cycle to the next instead of ticking every CPU
// cycle; it produces bit-identical Results to the reference loop (see
// DESIGN.md §9 for the quiescence contract each component provides). Set
// SIM_REFERENCE_LOOP=1 to force the reference loop.
func (s *System) RunContext(ctx context.Context) (Results, error) {
	return s.run(ctx, s.fullWindow())
}

// window is the instruction span one run measures. The measurement opens
// at the first boundary where every core has committed warmAt instructions
// and closes at the first boundary where some core has committed measure
// more. budget, the instructions per core the run may take to get there,
// sizes the wedge guard.
type window struct {
	warmAt, measure, budget int64
}

// fullWindow is an ordinary run's window: the configured warmup, then the
// configured measurement budget.
func (s *System) fullWindow() window {
	return window{
		warmAt:  s.cfg.WarmupInsts,
		measure: s.cfg.MaxInsts,
		budget:  s.cfg.WarmupInsts + s.cfg.MaxInsts,
	}
}

// runState is one run's state, shared by both loops: the caller's window,
// the wedge guard derived from it, and what the run has reached so far.
type runState struct {
	ctx  context.Context
	done <-chan struct{}
	win  window
	// maxCycles is the wedge guard: a run still going past it has stopped
	// making progress.
	maxCycles int64
	// warm is the measurement baseline, nil until the window opens.
	warm *warmSnapshot
}

// run executes one run of the machine from its parked cycle over window w.
func (s *System) run(ctx context.Context, w window) (Results, error) {
	r := &runState{
		ctx:       ctx,
		done:      ctx.Done(),
		win:       w,
		maxCycles: s.progressBound(w.budget),
	}
	if s.refLoop {
		return s.runReference(r)
	}
	return s.runFast(r)
}

// cancelled reports whether the run's context has ended.
func (r *runState) cancelled() bool {
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// windowEdge reports whether the current committed counts open the
// measured window (before warmup) or close it (after).
func (s *System) windowEdge(r *runState) bool {
	if r.warm == nil {
		return s.minCommitted() >= r.win.warmAt
	}
	return s.maxDelta(r.warm) >= r.win.measure
}

// boundary runs the checks both loops make at every boundary cycle, in
// order: cancellation, opening or closing the measured window and the
// wedge guard. stop reports that the run ends here
// with res and err.
func (s *System) boundary(r *runState, cycle int64) (res Results, stop bool, err error) {
	if r.cancelled() {
		return Results{}, true, r.ctx.Err()
	}
	if s.windowEdge(r) {
		if r.warm != nil {
			return s.results(r.warm, cycle), true, nil
		}
		snap := s.snapshot(cycle)
		r.warm = &snap
		// Restart the trace window so the recorder covers exactly the
		// measured interval (no-op when tracing is off).
		s.ctrl.ResetTraceMeasurement(clock.Time(cycle) * clock.CPUCycle)
	}
	if cycle > r.maxCycles {
		return Results{}, true, s.wedgedError(cycle, r.maxCycles)
	}
	return Results{}, false, nil
}

// runReference is the naive loop: every component ticks every CPU cycle.
// It is the behavioural oracle the fast loop is tested against, and the
// escape hatch if a model change ever violates a quiescence contract.
func (s *System) runReference(r *runState) (Results, error) {
	cycle := s.cycle
	for {
		now := clock.Time(cycle) * clock.CPUCycle
		if cycle%s.ratio == 0 {
			s.ctrl.Tick(now)
		}
		s.hier.Tick(cycle, now)
		for _, c := range s.cores {
			c.Tick(cycle)
		}
		cycle++

		if cycle%checkInterval != 0 {
			continue
		}
		if res, stop, err := s.boundary(r, cycle); stop {
			return res, err
		}
	}
}

// runFast is the event-driven loop. After executing a cycle it asks every
// component for its next interesting cycle — cores report commit wakeups
// and dispatchability, the hierarchy reports pending retries the controller
// would accept, the controller reports completions, pipeline-exit times and
// epoch boundaries — and jumps straight there when that is in the future.
// Component estimates are conservative (never later than the true next
// state change), and a skipped cycle is exactly a cycle in which the
// reference loop's ticks would all have been no-ops, so the two loops
// produce bit-identical Results. The only per-skipped-cycle effect the
// reference loop has — the cache-statistics cost of failed dispatch
// probes — is replayed in bulk.
//
// Within an executed cycle the loop also skips each core whose kept
// answer (cpu.Core.Kept) lies after the cycle: that core is blocked on its
// own state, so its Tick would change nothing. A core the hierarchy
// refuses is never kept, so it still ticks, and pays its failed probes, on
// every executed cycle.
func (s *System) runFast(r *runState) (Results, error) {
	cycle := s.cycle
	// The reference loop errors out at the first check boundary past
	// maxCycles; a fully wedged machine fast-forwards straight there.
	errBoundary := (r.maxCycles/checkInterval + 1) * checkInterval

	// Resume-aware loop state: at a fresh start (cycle 0) these come out to
	// checkInterval and 0; resuming from the boundary X an earlier window
	// parked at, they come out exactly as an unbroken run would have them
	// at the top of the iteration that executes cycle X (the boundary's own
	// checks already ran when that window ended).
	nextCheck := cycle + checkInterval                    // next boundary-check cycle
	nextTick := (cycle + s.ratio - 1) / s.ratio * s.ratio // next controller tick cycle (multiple of ratio)

	for {
		// Boundary bookkeeping, hoisted to the loop top (the reference
		// loop runs it after incrementing past the boundary — the same
		// machine state, since the boundary cycle has not executed yet in
		// either formulation). Hoisting lets a skip land exactly on a
		// boundary and still perform its checks.
		if cycle == nextCheck {
			nextCheck += checkInterval
			if res, stop, err := s.boundary(r, cycle); stop {
				return res, err
			}
		}

		now := clock.Time(cycle) * clock.CPUCycle
		if cycle == nextTick {
			// In the reference loop the hierarchy's "now" still holds the
			// previous cycle's time when the controller ticks (Hierarchy
			// ticks after the controller); writebacks spawned by completion
			// callbacks inherit that stamp. Reproduce it after skips.
			s.hier.SetNow(now - clock.CPUCycle)
			s.ctrl.Tick(now)
			nextTick += s.ratio
		}
		s.hier.Tick(cycle, now)
		// soonest is the earliest cycle any core could move at: a skipped
		// core's kept answer, or a ticked core's answer right after its
		// Tick.
		soonest := never
		for _, c := range s.cores {
			if w := c.Kept(); w > cycle {
				soonest = min(soonest, w)
				continue
			}
			c.Tick(cycle)
			soonest = min(soonest, c.NextEventCycle(cycle+1))
		}
		cycle++
		if soonest <= cycle {
			continue
		}

		target := s.nextEventCycle(cycle, nextTick)
		if target <= cycle {
			continue
		}
		// Never skip a boundary whose condition is already armed: committed
		// counts are frozen while skipping, so armed-ness cannot change
		// mid-skip, and the snapshot must land on the same boundary cycle
		// the reference loop uses.
		if target > nextCheck && s.windowEdge(r) {
			target = nextCheck
		}
		if target > errBoundary {
			target = errBoundary // a wedged machine jumps straight to the guard
		}
		if target <= cycle {
			continue
		}
		// One cancellation check per skip preserves the reference loop's
		// wall-clock cancellation latency: a skip costs O(cores) work, far
		// less than the 1024 executed cycles between reference checks.
		if r.cancelled() {
			return Results{}, r.ctx.Err()
		}
		skipped := target - cycle
		for i, c := range s.cores {
			if c.RetryProbesCache() {
				s.hier.ReplayBlockedProbes(i, skipped)
			}
		}
		cycle = target
		nextTick = (cycle + s.ratio - 1) / s.ratio * s.ratio
		nextCheck = (cycle + checkInterval - 1) / checkInterval * checkInterval
	}
}

// never is a next-event cycle later than any the machine reports.
const never = int64(1) << 62

// nextEventCycle returns the earliest cycle at or after cycle whose
// execution could change machine state: the minimum over every component's
// own conservative estimate. A core keeping its answer returns it without
// looking again; only the others are queried. nextTick is the next
// controller tick cycle; controller events round up to it because they can
// only be serviced inside a tick.
func (s *System) nextEventCycle(cycle, nextTick int64) int64 {
	if !s.hier.Quiescent() {
		return cycle
	}
	next := never
	for _, c := range s.cores {
		w := c.NextEventCycle(cycle)
		if w <= cycle {
			return cycle
		}
		if w < next {
			next = w
		}
	}
	if at := s.ctrl.NextEventAt(); at < clock.Infinity {
		tc := (clock.CyclesCeil(at) + s.ratio - 1) / s.ratio * s.ratio
		if tc < nextTick {
			tc = nextTick
		}
		if tc < next {
			next = tc
		}
	}
	return next
}

// progressBound derives the wedge-detection cycle limit of a run that may
// execute budget instructions per core from the configuration (replacing a
// former magic budget*500+1e6 constant): the budget times a worst-case
// per-instruction cost — a demand miss waiting behind a full transaction
// buffer of worst-case close-page accesses, each inflated by the retry
// protocol when fault injection is enabled — floored at the old 500
// cycles/instruction, plus fixed slack for warmup transients. It is
// deliberately generous; tripping it means a model bug, not a slow
// workload.
func (s *System) progressBound(budget int64) int64 {
	t := s.cfg.Mem.Timing
	burst := clock.Time(s.cfg.Mem.LineBytes/8) * s.cfg.Mem.DataRate.TCK() / 2
	access := t.TRP + t.TRCD + t.TCL + burst
	if s.cfg.Fault.Enabled {
		delay, retries := s.cfg.Fault.RetrySettings()
		access += delay * clock.Time(retries)
	}
	perInst := s.cfg.Mem.CtrlOverhead + clock.Time(s.cfg.Mem.QueueEntries)*access
	cyc := int64(perInst / clock.CPUCycle)
	if cyc < 500 {
		cyc = 500
	}
	// Relative to the resume point: a windowed run only has its own budget
	// left, not the cycles already executed before it.
	return s.cycle + budget*cyc + 1_000_000
}

// wedgedError reports a tripped progress guard, naming the component that
// looks stuck so the failure is debuggable from the message alone.
func (s *System) wedgedError(cycle, limit int64) error {
	suspect := "cores (queues empty and idle, yet instructions are not committing)"
	if p := s.ctrl.Pending(); p > 0 || s.ctrl.QueuedReads()+s.ctrl.QueuedWrites() > 0 {
		suspect = fmt.Sprintf("memory controller (%d queued reads, %d queued writes, %d in flight)",
			s.ctrl.QueuedReads(), s.ctrl.QueuedWrites(), p)
	} else if m := s.hier.OutstandingMisses(); m > 0 {
		suspect = fmt.Sprintf("cache hierarchy (%d outstanding misses, none in the controller)", m)
	}
	rob := make([]int, len(s.cores))
	for i, c := range s.cores {
		rob[i] = c.ROBOccupancy()
	}
	return fmt.Errorf("system: no progress after %d cycles (limit %d): suspect %s; committed %v, rob occupancy %v",
		cycle, limit, suspect, s.committedNow(), rob)
}

func (s *System) committedNow() []int64 {
	out := make([]int64, len(s.cores))
	for i, c := range s.cores {
		out[i] = c.Committed
	}
	return out
}

func (s *System) minCommitted() int64 {
	min := s.cores[0].Committed
	for _, c := range s.cores[1:] {
		if c.Committed < min {
			min = c.Committed
		}
	}
	return min
}

func (s *System) maxDelta(w *warmSnapshot) int64 {
	var max int64
	for i, c := range s.cores {
		if d := c.Committed - w.committed[i]; d > max {
			max = d
		}
	}
	return max
}

func (s *System) snapshot(cycle int64) warmSnapshot {
	north, south := s.ctrl.LinkBytes()
	nBusy, sBusy := s.ctrl.LinkBusy()
	l2 := s.hier.L2().Stats
	return warmSnapshot{
		cycle:      cycle,
		committed:  s.committedNow(),
		hist:       s.ctrl.LatHist.Clone(),
		ctrl:       s.ctrl.Stats,
		dram:       s.ctrl.DRAMCounters(),
		amb:        s.ctrl.AMBStats(),
		faults:     s.ctrl.FaultCounters(),
		north:      north,
		south:      south,
		conflicts:  s.ctrl.BankConflicts(),
		northBusy:  nBusy,
		southBusy:  sBusy,
		l2Acc:      l2.Accesses,
		l2Miss:     l2.Misses,
		demand:     s.hier.DemandMisses,
		swPrefetch: s.hier.SWPrefetches,
		hwPrefetch: s.hier.HWPrefetches,
		writebacks: s.hier.WBCount,
	}
}

func (s *System) results(w *warmSnapshot, cycle int64) Results {
	end := s.snapshot(cycle)
	dc := cycle - w.cycle
	r := Results{
		Benchmarks: s.names,
		Cores:      len(s.cores),
		Cycles:     dc,
		IPC:        make([]float64, len(s.cores)),
		Committed:  make([]int64, len(s.cores)),
	}
	for i := range s.cores {
		r.Committed[i] = end.committed[i] - w.committed[i]
		r.IPC[i] = float64(r.Committed[i]) / float64(dc)
	}

	r.Reads = end.ctrl.Reads - w.ctrl.Reads
	r.Writes = end.ctrl.Writes - w.ctrl.Writes
	r.AMBHits = end.ctrl.AMBHits - w.ctrl.AMBHits
	lat := end.ctrl.ReadLatency - w.ctrl.ReadLatency
	done := end.ctrl.ReadsDone - w.ctrl.ReadsDone
	if done > 0 {
		r.AvgReadLatencyNS = lat.Nanoseconds() / float64(done)
	}
	hist := s.ctrl.LatHist.Sub(w.hist)
	r.LatencyHist = hist
	if hist.Count() > 0 {
		r.P50LatencyNS = hist.Percentile(0.50).Nanoseconds()
		r.P90LatencyNS = hist.Percentile(0.90).Nanoseconds()
		r.P99LatencyNS = hist.Percentile(0.99).Nanoseconds()
		r.MaxLatencyNS = hist.Max().Nanoseconds()
	}

	bytes := (end.north - w.north) + (end.south - w.south)
	seconds := float64(dc) * float64(clock.CPUCycle) * 1e-12
	if seconds > 0 {
		r.UtilizedBandwidthGBs = float64(bytes) / seconds / 1e9
	}
	r.BankConflicts = end.conflicts - w.conflicts
	if wall := clock.Time(dc) * clock.CPUCycle; wall > 0 {
		chans := float64(s.cfg.Mem.LogicalChannels)
		r.ReadLinkUtilization = float64(end.northBusy-w.northBusy) / float64(wall) / chans
		r.WriteLinkUtilization = float64(end.southBusy-w.southBusy) / float64(wall) / chans
	}

	r.DRAM = dram.Counters{
		ACT:     end.dram.ACT - w.dram.ACT,
		PRE:     end.dram.PRE - w.dram.PRE,
		ColRead: end.dram.ColRead - w.dram.ColRead,
		ColWrit: end.dram.ColWrit - w.dram.ColWrit,
	}
	r.AMB = ambcache.Stats{
		Reads:         end.amb.Reads - w.amb.Reads,
		Hits:          end.amb.Hits - w.amb.Hits,
		Prefetched:    end.amb.Prefetched - w.amb.Prefetched,
		Evictions:     end.amb.Evictions - w.amb.Evictions,
		Invalidations: end.amb.Invalidations - w.amb.Invalidations,
		Scrubs:        end.amb.Scrubs - w.amb.Scrubs,
	}
	r.Faults = end.faults.Sub(w.faults)
	r.L2Accesses = end.l2Acc - w.l2Acc
	r.L2Misses = end.l2Miss - w.l2Miss
	r.DemandMisses = end.demand - w.demand
	r.SWPrefetches = end.swPrefetch - w.swPrefetch
	r.HWPrefetches = end.hwPrefetch - w.hwPrefetch
	r.Writebacks = end.writebacks - w.writebacks
	r.Trace = s.ctrl.TraceSummary(clock.Time(cycle) * clock.CPUCycle)
	s.cycle = cycle
	return r
}

// RunWorkload builds a machine running one benchmark per core and runs it
// to its instruction budget. It is the engine's one package-level entry;
// ctx carries cancellation only (see RunContext).
func RunWorkload(ctx context.Context, cfg config.Config, benchmarks []string) (Results, error) {
	s, err := New(cfg, benchmarks)
	if err != nil {
		return Results{}, err
	}
	return s.run(ctx, s.fullWindow())
}
