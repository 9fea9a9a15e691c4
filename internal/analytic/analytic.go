// Package analytic implements the lowest-cost fidelity tier: a closed-form
// M/D/1 queueing model of the FB-DIMM channel, calibrated once per
// (configuration, workload) pair by a short cycle-accurate probe run.
// After calibration a query is pure arithmetic — no events, no state — and
// returns in well under ten milliseconds, which makes the tier suitable for
// interactive triage over large design spaces: sweep analytically, then
// re-run the interesting corner cycle-accurately (or sampled).
//
// The model follows the two-queue decomposition of DROPLET's
// DramPerfModelPrefetch (see SNIPPETS.md): demand reads and prefetch
// fetches wait in separate queues in front of the same channel, each with a
// deterministic service time equal to one cacheline transfer at the
// channel's data rate. A read's latency is the unloaded (idle) path latency
// plus the M/D/1 queueing delay of its queue; AMB-cache hits skip the DRAM
// core and pay the shorter idle latency of the paper's Figure 4. The
// workload-dependent terms — instruction throughput, demand/prefetch/write
// intensities and the AMB hit rate — come from the probe; the
// configuration-dependent terms — idle latencies and channel bandwidth —
// come from the config, so one calibration answers queries at any
// instruction budget.
package analytic

import (
	"context"
	"fmt"
	"math"
	"sync"

	"fbdsim/internal/ambcache"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/snapshot"
	"fbdsim/internal/system"
)

// Options tunes the calibration probe. The zero value selects defaults.
type Options struct {
	// ProbeWarmup and ProbeMeasure are the warmup and measured instruction
	// counts of the cycle-accurate probe run (defaults 40k / 160k — on the
	// order of a hundred milliseconds of wall clock on the seed workloads,
	// and the shortest span at which the seed traces' throughput reaches
	// steady state).
	ProbeWarmup  int64
	ProbeMeasure int64
}

func (o Options) withDefaults() Options {
	if o.ProbeWarmup <= 0 {
		o.ProbeWarmup = 40_000
	}
	if o.ProbeMeasure <= 0 {
		o.ProbeMeasure = 160_000
	}
	return o
}

// Calibration holds the per-(config, workload) terms of the model. It is
// immutable after Calibrate returns; Estimate queries are pure functions of
// it and may run concurrently.
type Calibration struct {
	// Key identifies the (budget-masked config, workload) pair this
	// calibration answers for — the memoization key.
	Key string

	Benchmarks []string
	Cores      int

	// Probe-measured workload terms, all per committed instruction (or
	// dimensionless rates).
	ProbeIPC        float64   // total IPC of the probe window
	CoreShare       []float64 // per-core share of committed instructions
	ReadsPerInst    float64   // demand reads reaching the controller
	WritesPerInst   float64   // writebacks reaching the controller
	PrefetchPerInst float64   // AMB group-prefetch fetches
	AMBHitRate      float64   // fraction of reads served from the AMB cache
	ProbeLatencyNS  float64   // probe's average loaded read latency

	// Config-derived channel terms.
	ServiceNS   float64 // one cacheline transfer at the channel data rate
	IdleMissNS  float64 // unloaded latency of a read served by the DRAM core
	IdleHitNS   float64 // unloaded latency of an AMB-cache hit
	BandwidthGB float64 // aggregate peak read bandwidth, GB/s
	Channels    int

	// LatencyResidualNS anchors the model to the probe: the difference
	// between the probe's measured loaded latency and the model's own
	// prediction at the calibration operating point. The closed-form terms
	// capture idle path and first-order queueing; contention the model does
	// not represent (bank conflicts, refresh, write-drain interference,
	// scheduler effects) lands in this calibrated offset.
	LatencyResidualNS float64
}

// calCache memoizes calibrations across queries: the probe is the expensive
// part, and sweeps ask the same (config, workload) point at many budgets.
var calCache sync.Map // key string -> *Calibration

// CalibrationKey returns the memoization identity of a (config, workload)
// pair: the snapshot fingerprint of the configuration with its instruction
// budgets masked out, so runs that differ only in budget share one probe.
func CalibrationKey(cfg config.Config, benchmarks []string) string {
	cfg.MaxInsts = 0
	cfg.WarmupInsts = 0
	return "analytic:" + snapshot.Fingerprint(cfg, benchmarks)
}

// Calibrate returns the calibration for (cfg, benchmarks), running the
// cycle-accurate probe on a cache miss. Concurrent callers for the same key
// may race the probe; the first store wins and the work is idempotent.
func Calibrate(ctx context.Context, cfg config.Config, benchmarks []string, opt Options) (*Calibration, error) {
	key := CalibrationKey(cfg, benchmarks)
	if c, ok := calCache.Load(key); ok {
		return c.(*Calibration), nil
	}
	opt = opt.withDefaults()

	probe := cfg
	probe.WarmupInsts = opt.ProbeWarmup
	probe.MaxInsts = opt.ProbeMeasure
	probe.Trace = config.Trace{}
	r, err := system.RunWorkload(ctx, probe, benchmarks, system.Options{})
	if err != nil {
		return nil, fmt.Errorf("analytic: calibration probe: %w", err)
	}

	var committed int64
	for _, c := range r.Committed {
		committed += c
	}
	if committed <= 0 || r.Cycles <= 0 {
		return nil, fmt.Errorf("analytic: calibration probe measured nothing (committed %d, cycles %d)", committed, r.Cycles)
	}
	cal := &Calibration{
		Key:           key,
		Benchmarks:    append([]string(nil), benchmarks...),
		Cores:         r.Cores,
		ProbeIPC:      r.TotalIPC(),
		CoreShare:     make([]float64, r.Cores),
		ReadsPerInst:  float64(r.Reads) / float64(committed),
		WritesPerInst: float64(r.Writes) / float64(committed),
		PrefetchPerInst: float64(r.AMB.Prefetched) /
			float64(committed),
		ProbeLatencyNS: r.AvgReadLatencyNS,
	}
	for i, c := range r.Committed {
		cal.CoreShare[i] = float64(c) / float64(committed)
	}
	if r.Reads > 0 {
		cal.AMBHitRate = float64(r.AMBHits) / float64(r.Reads)
	}
	cal.deriveChannelTerms(cfg)
	if cal.ProbeLatencyNS > 0 {
		cal.LatencyResidualNS = cal.ProbeLatencyNS - cal.modelLatencyNS()
	}
	calCache.Store(key, cal)
	return cal, nil
}

// deriveChannelTerms fills the config-dependent model constants.
func (c *Calibration) deriveChannelTerms(cfg config.Config) {
	m := &cfg.Mem
	c.Channels = m.LogicalChannels
	c.BandwidthGB = m.PeakChannelBandwidth() / 1e9

	// Deterministic service time: one cacheline on one logical channel
	// (GangWidth physical channels in lockstep).
	perChannel := m.DataRate.BytesPerSecond() * float64(m.GangWidth)
	c.ServiceNS = float64(m.LineBytes) / perChannel * 1e9

	// Unloaded latencies, per the paper's Figure 4 decomposition: the
	// controller overhead, one DRAM clock to serialize the command frame,
	// the southbound hop chain, the DRAM core (ACT-to-data for a miss,
	// nothing for an AMB hit), the data burst, and the northbound return
	// hops. Hop counts assume the average DIMM is mid-chain. For the
	// default configuration this reproduces the paper's ~63 ns idle read
	// and ~33 ns AMB hit.
	hops := float64(m.DIMMsPerChannel) / 2
	if hops < 1 {
		hops = 1
	}
	hopNS := m.AMBHopDelay.Nanoseconds()
	ctrl := m.CtrlOverhead.Nanoseconds()
	cmd := m.DataRate.TCK().Nanoseconds()
	dramCore := (m.Timing.TRCD + m.Timing.TCL).Nanoseconds()
	c.IdleMissNS = ctrl + cmd + hops*hopNS + dramCore + c.ServiceNS + hops*hopNS
	c.IdleHitNS = ctrl + cmd + hops*hopNS + c.ServiceNS + hops*hopNS
	if m.FullLatencyHits || !m.AMBPrefetch {
		c.IdleHitNS = c.IdleMissNS
	}
}

// mD1Wait returns the mean M/D/1 queueing delay for utilization rho and
// deterministic service time s: W = rho*s / (2*(1-rho)). Utilization is
// clamped below saturation so overloaded configurations report a large
// finite delay instead of a singularity.
func mD1Wait(rho, s float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho > 0.97 {
		rho = 0.97
	}
	return rho * s / (2 * (1 - rho))
}

// mD1Quantile approximates the q-quantile of the M/D/1 waiting time using
// the heavy-traffic exponential tail P(W > t) = rho * exp(-2(1-rho)t/s):
// zero below the (1-rho) atom, the inverted tail above it.
func mD1Quantile(rho, s, q float64) float64 {
	if rho <= 0 {
		return 0
	}
	if rho > 0.97 {
		rho = 0.97
	}
	if q <= 1-rho {
		return 0
	}
	return s / (2 * (1 - rho)) * math.Log(rho/(1-q))
}

// queueState evaluates the two-queue load at the calibration's operating
// point: utilizations and mean waits of the demand and prefetch queues.
func (c *Calibration) queueState() (rhoDemand, rhoPrefetch, waitDemand, waitPrefetch float64) {
	// Arrival rates against the channel pool. Demand reads and writebacks
	// share the demand queue; AMB group prefetches have their own queue
	// (DROPLET's split): prefetch bursts then delay later prefetches, not
	// the demand reads the AMB cache is busy servicing.
	instPerNS := c.ProbeIPC * clock.CPUFrequencyGHz
	demandPerNS := (c.ReadsPerInst*(1-c.AMBHitRate) + c.WritesPerInst) * instPerNS / float64(c.Channels)
	prefetchPerNS := c.PrefetchPerInst * instPerNS / float64(c.Channels)

	rhoDemand = demandPerNS * c.ServiceNS
	rhoPrefetch = prefetchPerNS * c.ServiceNS
	waitDemand = mD1Wait(rhoDemand, c.ServiceNS)
	// The prefetch queue drains behind demand traffic on the same physical
	// link, so its wait sees the combined utilization.
	waitPrefetch = mD1Wait(rhoDemand+rhoPrefetch, c.ServiceNS)
	return
}

// modelLatencyNS is the model's average read latency before residual
// anchoring: idle path plus first-order queueing delay.
func (c *Calibration) modelLatencyNS() float64 {
	rhoD, rhoP, waitD, waitP := c.queueState()
	_ = rhoD
	hit := c.AMBHitRate
	// A demand hit whose group fetch is still queued pays a share of the
	// prefetch-queue wait (probability ~ that queue's own occupancy).
	hitNS := c.IdleHitNS + waitD + rhoP*waitP
	missNS := c.IdleMissNS + waitD
	return hit*hitNS + (1-hit)*missNS
}

// Estimate answers one query: what would a cycle-accurate run of cfg over
// this calibration's workload report? It is pure arithmetic over the
// calibration — microsecond-scale, no simulation state — and returns a
// Results shaped like a real run's, with Estimate.Tier = "analytic".
func (c *Calibration) Estimate(cfg config.Config) system.Results {
	// Instruction accounting mirrors the run loop: the budget is the
	// fastest core's measured instructions; slower cores scale by their
	// probe share.
	budget := cfg.MaxInsts
	maxShare := 0.0
	for _, s := range c.CoreShare {
		if s > maxShare {
			maxShare = s
		}
	}
	committed := make([]int64, c.Cores)
	var total int64
	for i, s := range c.CoreShare {
		committed[i] = int64(float64(budget) * s / maxShare)
		total += committed[i]
	}

	ipc := c.ProbeIPC
	instPerNS := ipc * clock.CPUFrequencyGHz
	rhoDemand, rhoPrefetch, _, _ := c.queueState()

	hit := c.AMBHitRate
	// Anchor the average on the probe's measured loaded latency: model idle
	// path + queueing + the calibrated residual for contention the closed
	// form does not represent.
	avgLatency := c.modelLatencyNS() + c.LatencyResidualNS
	if avgLatency < c.IdleHitNS {
		avgLatency = c.IdleHitNS
	}
	// Percentiles shift with the same calibrated offset (never below the
	// unloaded path).
	resid := c.LatencyResidualNS
	if resid < 0 {
		resid = 0
	}

	// IPC correction: the probe measured ProbeIPC at ProbeLatency; the
	// model's loaded latency differs only through queueing, and the probe
	// already ran loaded. Keep the probe IPC as the throughput estimate —
	// the latency fields are where the queue model adds information.
	cycles := int64(float64(total) / ipc)
	if cycles < 1 {
		cycles = 1
	}

	reads := int64(c.ReadsPerInst * float64(total))
	writes := int64(c.WritesPerInst * float64(total))
	prefetched := int64(c.PrefetchPerInst * float64(total))
	ambHits := int64(float64(reads) * hit)

	out := system.Results{
		Benchmarks:       append([]string(nil), c.Benchmarks...),
		Cores:            c.Cores,
		IPC:              make([]float64, c.Cores),
		Committed:        committed,
		Cycles:           cycles,
		Reads:            reads,
		Writes:           writes,
		AMBHits:          ambHits,
		AvgReadLatencyNS: avgLatency,
		P50LatencyNS: resid + hit*c.IdleHitNS + (1-hit)*c.IdleMissNS +
			mD1Quantile(rhoDemand, c.ServiceNS, 0.50),
		P90LatencyNS: resid + c.IdleMissNS + mD1Quantile(rhoDemand, c.ServiceNS, 0.90),
		P99LatencyNS: resid + c.IdleMissNS + mD1Quantile(rhoDemand, c.ServiceNS, 0.99),
		AMB: ambcache.Stats{
			Reads:      reads,
			Hits:       ambHits,
			Prefetched: prefetched,
		},
	}
	for i := range out.IPC {
		out.IPC[i] = float64(committed[i]) / float64(cycles)
	}
	// Utilized bandwidth: all transferred lines over the wall time.
	wallNS := float64(cycles) / clock.CPUFrequencyGHz
	lineBytes := float64(cfg.Mem.LineBytes)
	misses := float64(reads) * (1 - hit)
	out.UtilizedBandwidthGBs = (misses + float64(writes) + float64(prefetched)) * lineBytes / wallNS
	out.ReadLinkUtilization = rhoDemand + rhoPrefetch
	if out.ReadLinkUtilization > 1 {
		out.ReadLinkUtilization = 1
	}
	out.WriteLinkUtilization = c.WritesPerInst * instPerNS / float64(c.Channels) * c.ServiceNS

	out.Estimate = &system.EstimateInfo{
		Tier:        "analytic",
		TotalIPC:    out.TotalIPC(),
		Calibration: c.Key,
	}
	return out
}

// Run is the one-call face of the tier: calibrate (memoized) then estimate.
func Run(ctx context.Context, cfg config.Config, benchmarks []string, opt Options) (system.Results, error) {
	cal, err := Calibrate(ctx, cfg, benchmarks, opt)
	if err != nil {
		return system.Results{}, err
	}
	return cal.Estimate(cfg), nil
}

// ResetCache drops all memoized calibrations (tests use it to force fresh
// probes).
func ResetCache() {
	calCache.Range(func(k, _ any) bool {
		calCache.Delete(k)
		return true
	})
}
