// Package memctrl implements the memory controller of Section 4.1: a
// transaction buffer per logical channel, hit-first scheduling (requests
// that will be served fast — AMB-cache hits or open-row hits — go before
// full DRAM accesses), and read priority over writes until the write queue
// exceeds a drain threshold. The controller adds a fixed 12 ns pipeline
// overhead to every transaction and drives either the FB-DIMM or the DDR2
// channel model.
package memctrl

import (
	"fbdsim/internal/addrmap"
	"fbdsim/internal/ambcache"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/ddrbus"
	"fbdsim/internal/dram"
	"fbdsim/internal/fault"
	"fbdsim/internal/fbdchan"
	"fbdsim/internal/memreq"
	"fbdsim/internal/memtrace"
	"fbdsim/internal/stats"
)

// channelModel is the contract both interconnect models satisfy.
type channelModel interface {
	// IsFastRead reports whether a read would be served without a full
	// DRAM access, given its line address already decoded (see
	// memreq.Request.Loc).
	IsFastRead(line int64, loc addrmap.Location, localID int64) bool
	ScheduleRead(addr int64, ready clock.Time) (dataAt clock.Time, ambHit bool)
	// ScheduleWrite handles a batch of writebacks that share one DRAM row.
	ScheduleWrite(addrs []int64, ready clock.Time) clock.Time
	Housekeep(horizon clock.Time)
	// LastTiming reports the command-arrival and service-start instants of
	// the most recent Schedule* call; the controller copies them into the
	// request when the memtrace recorder is enabled.
	LastTiming() (cmdAt, serviceAt clock.Time)
	// DIMMBusBusy reports cumulative DIMM-side data-bus occupancy.
	DIMMBusBusy() clock.Time
}

var (
	_ channelModel = (*fbdchan.Channel)(nil)
	_ channelModel = (*ddrbus.Channel)(nil)
)

// Stats aggregates the controller-level measurements the experiments use.
type Stats struct {
	Reads        int64
	Writes       int64
	AMBHits      int64
	ReadLatency  clock.Time // sum over completed reads, arrival → data
	ReadsDone    int64
	QueueRejects int64 // enqueue attempts refused because the buffer was full
}

// AvgReadLatency returns the mean read latency in nanoseconds.
func (s Stats) AvgReadLatency() float64 {
	if s.ReadsDone == 0 {
		return 0
	}
	return s.ReadLatency.Nanoseconds() / float64(s.ReadsDone)
}

// Controller is the memory controller plus its attached channels. It is the
// complete memory system seen by the cache hierarchy.
type Controller struct {
	cfg    config.Mem
	mapper *addrmap.Mapper

	chans []channelModel
	fbd   []*fbdchan.Channel // non-nil entries when Kind == FBDIMM
	ddr   []*ddrbus.Channel  // non-nil entries when Kind == DDR2

	readQ  [][]*memreq.Request
	writeQ [][]*memreq.Request
	// draining marks channels in write-drain mode: entered when the write
	// queue tops WriteDrainThreshold, left when nearly empty. Hysteresis
	// lets sequential writebacks accumulate so same-row batches form.
	draining []bool

	completions completionHeap
	// scratchBatch and scratchAddrs are reused across pickWriteBatch /
	// startWrites calls so the write path allocates nothing in steady
	// state. Both are dead between issue() calls.
	scratchBatch []*memreq.Request
	scratchAddrs []int64
	// inflight counts issued-but-uncompleted transactions per channel;
	// leftover writes below the drain threshold flush only when their
	// channel is fully quiescent, so batching opportunities survive
	// active phases.
	inflight []int
	// housekept is the highest time-derived tick index whose housekeeping
	// pass has run (see Tick); tck caches the memory clock period.
	housekept int64
	tck       clock.Time

	// Stats accumulates controller-level counters.
	Stats Stats
	// LatHist records the distribution of completed read latencies
	// (arrival to data return); the tail of this distribution is what
	// stalls ROB heads.
	LatHist *stats.Histogram

	// rec is the optional memtrace recorder. When nil (the default)
	// tracing costs a single pointer comparison per completion; every
	// recorder method is additionally nil-safe.
	rec *memtrace.Recorder

	// inj is the optional fault injector, shared with the channel models.
	// When nil (the default) fault injection costs one pointer comparison
	// per issued transaction.
	inj *fault.Injector
}

// New builds the controller for a validated memory configuration.
func New(cfg *config.Mem) *Controller {
	m := addrmap.New(cfg)
	c := &Controller{
		cfg:       *cfg,
		mapper:    m,
		chans:     make([]channelModel, cfg.LogicalChannels),
		readQ:     make([][]*memreq.Request, cfg.LogicalChannels),
		writeQ:    make([][]*memreq.Request, cfg.LogicalChannels),
		draining:  make([]bool, cfg.LogicalChannels),
		inflight:  make([]int, cfg.LogicalChannels),
		housekept: -1,
		tck:       cfg.DataRate.TCK(),
		LatHist:   &stats.Histogram{},
	}
	switch cfg.Kind {
	case config.FBDIMM:
		c.fbd = make([]*fbdchan.Channel, cfg.LogicalChannels)
		for i := range c.chans {
			c.fbd[i] = fbdchan.New(&c.cfg, m)
			c.chans[i] = c.fbd[i]
		}
	case config.DDR2:
		c.ddr = make([]*ddrbus.Channel, cfg.LogicalChannels)
		for i := range c.chans {
			c.ddr[i] = ddrbus.New(&c.cfg, m)
			c.chans[i] = c.ddr[i]
		}
	default:
		panic("memctrl: unknown memory kind")
	}
	return c
}

// Mapper exposes the address mapper (the cache hierarchy aligns addresses
// with it).
func (c *Controller) Mapper() *addrmap.Mapper { return c.mapper }

// SetRecorder attaches (or, with nil, detaches) a memtrace recorder. Call
// before simulation starts; the recorder is not safe for concurrent use.
func (c *Controller) SetRecorder(r *memtrace.Recorder) { c.rec = r }

// Recorder returns the attached memtrace recorder, if any.
func (c *Controller) Recorder() *memtrace.Recorder { return c.rec }

// SetInjector attaches (or, with nil, detaches) a fault injector and
// applies its static degraded-DIMM configuration: the degraded DIMM's bus
// is slowed and, when a bank is mapped out, the address map's bank spare is
// armed. Link and AMB fault classes reach only the FB-DIMM channels (DDR2
// has no CRC/replay protocol); the bank spare applies to both interconnects
// because it lives in the controller's mapper. Call before simulation
// starts.
func (c *Controller) SetInjector(inj *fault.Injector) {
	c.inj = inj
	if inj == nil {
		return
	}
	for _, f := range c.fbd {
		f.SetInjector(inj)
	}
	ch, dimm, factor, dead := inj.Degraded()
	if dimm < 0 {
		return
	}
	if ch < len(c.fbd) {
		c.fbd[ch].DegradeDIMMBus(dimm, factor)
	}
	if dead >= 0 {
		c.mapper.SetBankSpare(ch, dimm, dead)
	}
}

// FaultCounters returns the injector's cumulative counters (zero without
// an injector).
func (c *Controller) FaultCounters() fault.Counters {
	if c.inj == nil {
		return fault.Counters{}
	}
	return c.inj.Counters
}

// TCK returns the memory clock period driving Tick.
func (c *Controller) TCK() clock.Time { return c.tck }

// CanAccept reports whether the channel serving addr has buffer space for
// another transaction of the given kind.
func (c *Controller) CanAccept(addr int64, kind memreq.Kind) bool {
	ch := c.mapper.Channel(addr)
	if kind == memreq.Read {
		return len(c.readQ[ch]) < c.cfg.QueueEntries
	}
	return len(c.writeQ[ch]) < c.cfg.QueueEntries
}

// Enqueue presents a transaction to the controller at time now. It returns
// false (and counts a reject) when the transaction buffer is full; the
// caller retries later, modelling MSHR-held requests.
func (c *Controller) Enqueue(req *memreq.Request, now clock.Time) bool {
	if !c.CanAccept(req.Addr, req.Kind) {
		c.Stats.QueueRejects++
		return false
	}
	req.Arrived = now
	c.decode(req)
	ch := req.Loc.Channel
	if req.Kind == memreq.Read {
		c.readQ[ch] = append(c.readQ[ch], req)
	} else {
		c.writeQ[ch] = append(c.writeQ[ch], req)
	}
	return true
}

// decode stores the DRAM location and DIMM-local line ID of req.Addr on
// req.
func (c *Controller) decode(req *memreq.Request) {
	req.Loc = c.mapper.Map(req.Addr)
	req.LocalID = c.mapper.LocalLineID(req.Addr)
}

// QueuedReads returns the number of reads buffered across all channels
// (used by tests and backpressure diagnostics).
func (c *Controller) QueuedReads() int {
	n := 0
	for _, q := range c.readQ {
		n += len(q)
	}
	return n
}

// QueuedWrites returns the number of buffered writes across all channels.
func (c *Controller) QueuedWrites() int {
	n := 0
	for _, q := range c.writeQ {
		n += len(q)
	}
	return n
}

// Pending returns the number of issued-but-uncompleted transactions.
func (c *Controller) Pending() int { return len(c.completions) }

// Tick advances the controller one memory clock: it issues at most one new
// transaction per channel and fires completion callbacks whose time has
// come. Callers invoke it once per tCK with a monotonically increasing now.
func (c *Controller) Tick(now clock.Time) {
	// Housekeeping runs after every 4096th memory tick, with the tick
	// index derived from time rather than from a count of executed Tick
	// calls: the event-driven loop executes only interesting ticks, and a
	// pruned timeline is observable to later reservations whose ready
	// time precedes the prune horizon, so both loops must prune at the
	// same simulated instants. Boundaries inside a skipped stretch are
	// caught up here, before this tick issues anything — exactly the
	// state the reference loop would present, since no reservation can
	// occur between an end-of-tick housekeep and the next tick.
	const housekeepTicks = 4096
	if jm := (int64(now/c.tck)/housekeepTicks)*housekeepTicks - 1; jm > c.housekept {
		horizon := clock.Time(jm) * c.tck
		for _, ch := range c.chans {
			ch.Housekeep(horizon)
		}
		c.housekept = jm
	}
	for ch := range c.chans {
		c.issue(ch, now)
	}
	for len(c.completions) > 0 && c.completions[0].at <= now {
		done := c.popCompletion()
		c.inflight[done.ch]--
		req := done.req
		req.Done = done.at
		if req.Kind == memreq.Read {
			c.Stats.ReadLatency += done.at - req.Arrived
			c.Stats.ReadsDone++
			c.LatHist.Observe(done.at - req.Arrived)
		}
		if c.rec != nil {
			c.recordEvent(req, done.ch)
		}
		if req.OnDone != nil {
			req.OnDone(req)
		}
	}
	if c.rec != nil && c.rec.NeedSample(now) {
		c.rec.Sample(now, c.traceGauges())
	}
}

// recordEvent converts a completed request into a memtrace event. Only
// called while tracing is enabled.
func (c *Controller) recordEvent(req *memreq.Request, ch int) {
	created := req.Created
	if created == 0 || created > req.Arrived {
		created = req.Arrived
	}
	c.rec.Complete(memtrace.Event{
		ID:         req.ID,
		Addr:       req.Addr,
		Core:       req.Core,
		Write:      req.Kind == memreq.Write,
		SWPrefetch: req.SWPrefetch,
		AMBHit:     req.AMBHit,
		Channel:    ch,
		DIMM:       req.Loc.DIMM,
		Bank:       req.Loc.Bank,
		Created:    created,
		Arrived:    req.Arrived,
		Issued:     req.T.Issued,
		CmdAt:      req.T.CmdAt,
		ServiceAt:  req.T.Service,
		Done:       req.Done,
	})
}

// traceGauges snapshots the cumulative counters the epoch sampler
// differences into per-epoch utilizations.
func (c *Controller) traceGauges() memtrace.Gauges {
	north, south := c.LinkBusy()
	dc := c.DRAMCounters()
	g := memtrace.Gauges{
		QueueDepth:   c.QueuedReads() + c.QueuedWrites(),
		NorthBusy:    north,
		SouthBusy:    south,
		DIMMBusBusy:  c.dimmBusBusy(),
		ACT:          dc.ACT,
		PRE:          dc.PRE,
		ColRead:      dc.ColRead,
		ColWrit:      dc.ColWrit,
		Prefetched:   0,
		PrefetchHits: 0,
	}
	amb := c.AMBStats()
	g.Prefetched = amb.Prefetched
	g.PrefetchHits = amb.Hits
	return g
}

// dimmBusBusy sums DIMM-side data-bus occupancy across all channels.
func (c *Controller) dimmBusBusy() clock.Time {
	var total clock.Time
	for _, ch := range c.chans {
		total += ch.DIMMBusBusy()
	}
	return total
}

// ResetTraceMeasurement restarts the recorder's measurement window (no-op
// without a recorder). The system calls it at the warmup boundary so the
// trace covers exactly the measured interval.
func (c *Controller) ResetTraceMeasurement(now clock.Time) {
	if c.rec == nil {
		return
	}
	c.rec.ResetMeasurement(now, c.traceGauges())
}

// TraceSummary flushes the trailing epoch and renders the recorder's
// summary, or nil when tracing is disabled.
func (c *Controller) TraceSummary(now clock.Time) *memtrace.Summary {
	if c.rec == nil {
		return nil
	}
	return c.rec.Summarize(now, c.traceGauges())
}

// issue picks and schedules at most one transaction on channel ch.
//
// Policy (Section 4.1): reads before writes unless the write buffer is
// above its threshold; among reads, hit-first — the oldest read that the
// channel can serve without a full DRAM access wins, then the oldest read.
func (c *Controller) issue(ch int, now clock.Time) {
	model := c.chans[ch]
	switch {
	case len(c.writeQ[ch]) > c.cfg.WriteDrainThreshold:
		c.draining[ch] = true
	case len(c.writeQ[ch]) == 0:
		c.draining[ch] = false
	}

	if !c.draining[ch] {
		if req, idx := c.pickRead(ch, now, model); req != nil {
			c.removeRead(ch, idx)
			c.startRead(req, model, now)
			return
		}
		// Work conservation: once the channel is fully quiescent (no
		// queued or in-flight reads that a drain burst could batch
		// behind), leftover writes below the threshold still go out
		// rather than sitting forever.
		if len(c.readQ[ch]) == 0 && c.inflight[ch] == 0 {
			if batch := c.pickWriteBatch(ch, now); len(batch) > 0 {
				c.startWrites(batch, model, now)
			}
		}
		return
	}
	if batch := c.pickWriteBatch(ch, now); len(batch) > 0 {
		c.startWrites(batch, model, now)
		return
	}
	// Drain mode but no eligible write: fall back to a ready read so the
	// channel never idles with work available.
	if req, idx := c.pickRead(ch, now, model); req != nil {
		c.removeRead(ch, idx)
		c.startRead(req, model, now)
	}
}

// pickRead returns the scheduled-next read and its queue index, or nil.
// Only requests whose controller pipeline delay has elapsed are eligible.
func (c *Controller) pickRead(ch int, now clock.Time, model channelModel) (*memreq.Request, int) {
	oldest := -1
	for i, req := range c.readQ[ch] {
		if req.Arrived+c.cfg.CtrlOverhead > now+c.TCK() {
			continue // still in the controller pipeline
		}
		if model.IsFastRead(req.Addr, req.Loc, req.LocalID) {
			return req, i // oldest fast read wins immediately
		}
		if oldest < 0 {
			oldest = i
		}
	}
	if oldest < 0 {
		return nil, -1
	}
	return c.readQ[ch][oldest], oldest
}

// pickWriteBatch removes and returns the oldest eligible write plus every
// other queued write sharing its DRAM region (same bank and row): the
// controller's hit-first policy applied to the write stream, which lets one
// activation serve a run of sequential writebacks under multi-cacheline
// interleaving.
func (c *Controller) pickWriteBatch(ch int, now clock.Time) []*memreq.Request {
	q := c.writeQ[ch]
	if len(q) == 0 {
		return nil
	}
	head := q[0]
	if head.Arrived+c.cfg.CtrlOverhead > now+c.TCK() {
		return nil
	}
	region := c.mapper.RegionID(head.Addr)
	batch := append(c.scratchBatch[:0], head)
	n := 0
	for _, req := range q[1:] {
		if req != head && c.mapper.RegionID(req.Addr) == region {
			batch = append(batch, req)
			continue
		}
		q[n] = req
		n++
	}
	c.writeQ[ch] = q[:n]
	c.scratchBatch = batch[:0]
	return batch
}

func (c *Controller) removeRead(ch, idx int) {
	q := c.readQ[ch]
	c.readQ[ch] = append(q[:idx], q[idx+1:]...)
}

func (c *Controller) startRead(req *memreq.Request, model channelModel, now clock.Time) {
	if c.inj != nil && c.mapper.Remapped(req.Addr) {
		c.inj.NoteRemap()
	}
	ready := req.Arrived + c.cfg.CtrlOverhead
	dataAt, hit := model.ScheduleRead(req.Addr, ready)
	req.AMBHit = hit
	if c.rec != nil {
		req.T.Issued = now
		req.T.CmdAt, req.T.Service = model.LastTiming()
	}
	c.Stats.Reads++
	if hit {
		c.Stats.AMBHits++
	}
	ch := req.Loc.Channel
	c.inflight[ch]++
	c.pushCompletion(completion{at: dataAt, req: req, ch: ch})
}

func (c *Controller) startWrites(batch []*memreq.Request, model channelModel, now clock.Time) {
	ready := batch[0].Arrived + c.cfg.CtrlOverhead
	addrs := c.scratchAddrs
	if cap(addrs) < len(batch) {
		addrs = make([]int64, len(batch))
	} else {
		addrs = addrs[:len(batch)]
	}
	for i, req := range batch {
		addrs[i] = req.Addr
		if c.inj != nil && c.mapper.Remapped(req.Addr) {
			c.inj.NoteRemap()
		}
	}
	doneAt := model.ScheduleWrite(addrs, ready)
	c.scratchAddrs = addrs[:0]
	c.Stats.Writes += int64(len(batch))
	ch := batch[0].Loc.Channel
	var cmdAt, serviceAt clock.Time
	if c.rec != nil {
		cmdAt, serviceAt = model.LastTiming()
	}
	for _, req := range batch {
		if c.rec != nil {
			req.T.Issued = now
			req.T.CmdAt, req.T.Service = cmdAt, serviceAt
		}
		c.inflight[ch]++
		c.pushCompletion(completion{at: doneAt, req: req, ch: ch})
	}
}

// DRAMCounters sums the DRAM operation counters across all channels.
func (c *Controller) DRAMCounters() dram.Counters {
	var sum dram.Counters
	for _, f := range c.fbd {
		sum.Add(f.Counters)
	}
	for _, d := range c.ddr {
		sum.Add(d.Counters)
	}
	return sum
}

// LinkBytes sums channel traffic (read bytes, write bytes) across channels.
func (c *Controller) LinkBytes() (north, south int64) {
	for _, f := range c.fbd {
		north += f.Links.BytesNorth
		south += f.Links.BytesSouth
	}
	for _, d := range c.ddr {
		north += d.Links.BytesNorth
		south += d.Links.BytesSouth
	}
	return north, south
}

// BankConflicts sums delayed activations across all channels.
func (c *Controller) BankConflicts() int64 {
	var n int64
	for _, f := range c.fbd {
		n += f.BankConflicts
	}
	for _, d := range c.ddr {
		n += d.BankConflicts
	}
	return n
}

// LinkBusy sums the cumulative link occupancy across channels: the read
// path (northbound / DDR2 data bus) and the write/command path.
func (c *Controller) LinkBusy() (north, south clock.Time) {
	for _, f := range c.fbd {
		n, s := f.LinkBusy()
		north += n
		south += s
	}
	for _, d := range c.ddr {
		n, s := d.LinkBusy()
		north += n
		south += s
	}
	return north, south
}

// AMBStats aggregates prefetch statistics across every AMB cache in the
// system (zero when prefetching is off or the system is DDR2).
func (c *Controller) AMBStats() ambcache.Stats {
	var s ambcache.Stats
	for _, f := range c.fbd {
		s.Add(f.AMBStats())
	}
	return s
}

// completion orders issued transactions by finish time.
type completion struct {
	at  clock.Time
	req *memreq.Request
	ch  int
}

// completionHeap is a hand-rolled binary min-heap on at. It replaces
// container/heap, whose interface{} Push/Pop boxes a completion per call —
// two heap allocations per transaction on the hottest controller path. The
// sift routines replicate container/heap's algorithm exactly (strict < on
// at, identical swap order), so equal-time completions pop in the same
// order the reference implementation produced and simulation results stay
// bit-identical.
type completionHeap []completion

func (c *Controller) pushCompletion(x completion) {
	h := append(c.completions, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(h[j].at < h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	c.completions = h
}

func (c *Controller) popCompletion() completion {
	h := c.completions
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].at < h[j].at {
			j = j2
		}
		if !(h[j].at < h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	x := h[n]
	h[n] = completion{} // drop the request pointer so the free slot can't pin it
	c.completions = h[:n]
	return x
}

// NextEventAt reports the earliest simulated time at which a Tick could do
// something: the next completion, the moment a queued read (or a write the
// current policy would issue) clears the controller pipeline, or the next
// memtrace epoch boundary. A channel still in drain mode with an empty
// write queue reports an immediate event, because only the next tick
// clears its drain flag. It returns clock.Infinity when the controller is
// empty. The estimate is conservative — it may be earlier than the true
// next state change (the extra tick is a no-op) but never later, which is
// the contract the event-driven system loop depends on. Queue contents and
// the drain flag can only change inside executed cycles, so a value
// computed between cycles stays valid for the whole skipped stretch.
func (c *Controller) NextEventAt() clock.Time {
	next := clock.Infinity
	if len(c.completions) > 0 {
		next = c.completions[0].at
	}
	tck := c.TCK()
	for ch := range c.chans {
		// Queues are arrival-ordered, so the head holds the earliest
		// pipeline-exit time: eligible once Arrived+CtrlOverhead <= now+tCK.
		if q := c.readQ[ch]; len(q) > 0 {
			if t := q[0].Arrived + c.cfg.CtrlOverhead - tck; t < next {
				next = t
			}
		}
		q := c.writeQ[ch]
		if len(q) == 0 {
			// Only a tick clears a drained channel's drain flag, so the
			// next tick is an event: skipping it would carry the stale
			// flag into the tick that sees the next write.
			if c.draining[ch] {
				return 0
			}
			continue
		}
		// A queued write is only an event if the next tick would drain it:
		// either the channel is (or will flip to) drain mode, or work
		// conservation applies because nothing else is queued or in flight.
		// Otherwise writes wait on a completion or a read, both already
		// counted above.
		drain := c.draining[ch] || len(q) > c.cfg.WriteDrainThreshold
		if drain || (len(c.readQ[ch]) == 0 && c.inflight[ch] == 0) {
			if t := q[0].Arrived + c.cfg.CtrlOverhead - tck; t < next {
				next = t
			}
		}
	}
	if c.rec != nil {
		if t := c.rec.NextSampleAt(); t < next {
			next = t
		}
	}
	return next
}
