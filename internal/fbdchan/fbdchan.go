// Package fbdchan models one logical FB-DIMM channel: the southbound link
// (three command slots, or one command plus 16 bytes of write data, per
// frame), the northbound link (32 bytes of read data per frame), the AMB
// daisy chain with its per-hop forwarding delay, the per-DIMM DDR2 buses
// between each AMB and its DRAM chips, and — when enabled — the AMB
// prefetching machinery of Section 3.2.
//
// A frame is two DRAM clocks (6 ns at 667 MT/s), which makes the northbound
// payload rate exactly one DDR2 channel's bandwidth and the southbound
// write-data rate half of it, as Section 3.1 requires. Channel ganging
// multiplies frame payloads and DIMM bus width.
//
// With the default configuration the model reproduces the paper's idle
// latency decomposition exactly: a read miss costs 12 ns controller
// overhead + 3 ns southbound command delay + 15 ns tRCD + 15 ns tCL + 6 ns
// data transfer + 4×3 ns AMB hops = 63 ns; an AMB-cache hit skips the two
// DRAM operations and costs 33 ns.
package fbdchan

import (
	"fbdsim/internal/addrmap"
	"fbdsim/internal/ambcache"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/dram"
	"fbdsim/internal/fault"
	"fbdsim/internal/resource"
)

// LinkStats tracks data actually moved over the channel links, the basis of
// the paper's "utilized bandwidth" metric.
type LinkStats struct {
	BytesNorth int64 // read data returned to the controller
	BytesSouth int64 // write data sent to the DIMMs
}

// Channel is one logical FB-DIMM channel (possibly a gang of physical
// channels operated in lockstep).
type Channel struct {
	cfg    *config.Mem
	mapper *addrmap.Mapper

	frame     clock.Time // FB-DIMM frame: 2 tCK
	cmdSlot   clock.Time // one of three command slots per frame
	northTime clock.Time // northbound occupancy (and transfer time) of one cacheline
	cmdDelay  clock.Time // fixed southbound command propagation

	south   *resource.Timeline
	north   *resource.Timeline
	dimmBus []*resource.Timeline
	ranks   *dram.Ranks

	// AMB prefetching state (nil when disabled). Each cache's entries
	// record when their prefetched line lands; a demand read racing a
	// prefetch waits for that instant rather than re-accessing DRAM.
	ambs []*ambcache.Cache
	// group holds the prefetch group of the miss being scheduled; it is
	// dead between calls and only keeps its capacity.
	group []int64

	// Links accumulates channel traffic.
	Links LinkStats

	// lastCmdAt / lastServiceAt record the command-arrival and
	// service-start instants of the most recent Schedule* call; the
	// controller copies them into the request when tracing is enabled
	// (see LastTiming).
	lastCmdAt     clock.Time
	lastServiceAt clock.Time

	// inj is the optional fault injector. When nil (the default) fault
	// injection costs a single pointer comparison per link reservation;
	// every injector method is additionally nil-safe.
	inj *fault.Injector
}

// New builds the channel model. cfg must be validated; mapper must be built
// from the same cfg.
func New(cfg *config.Mem, mapper *addrmap.Mapper) *Channel {
	tck := cfg.DataRate.TCK()
	frame := 2 * tck
	gang := clock.Time(cfg.GangWidth)
	line := clock.Time(cfg.LineBytes)

	c := &Channel{
		cfg:      cfg,
		mapper:   mapper,
		frame:    frame,
		cmdSlot:  frame / 3,
		cmdDelay: 3 * clock.Nanosecond,
		south:    resource.NewQuantized(frame / 3),
		north:    resource.NewQuantized(0),
		dimmBus:  make([]*resource.Timeline, cfg.DIMMsPerChannel),
		ranks:    dram.NewRanks(cfg),
	}
	// Northbound: 32 B per frame per physical channel.
	framesPerLine := (line + 32*gang - 1) / (32 * gang)
	c.northTime = framesPerLine * frame
	for i := range c.dimmBus {
		c.dimmBus[i] = resource.NewQuantized(0)
	}
	if cfg.AMBPrefetch {
		c.ambs = make([]*ambcache.Cache, cfg.DIMMsPerChannel)
		for i := range c.ambs {
			c.ambs[i] = ambcache.New(cfg.AMBCacheLines, cfg.AMBCacheAssoc,
				cfg.AMBReplacement)
		}
	}
	return c
}

// SetInjector attaches (or, with nil, detaches) a fault injector. Call
// before simulation starts.
func (c *Channel) SetInjector(inj *fault.Injector) { c.inj = inj }

// DegradeDIMMBus puts one DIMM's DDR2 bus into degraded mode: every burst
// occupies factor× its nominal bus time.
func (c *Channel) DegradeDIMMBus(dimm, factor int) {
	c.ranks.DIMMs[dimm].SetDegradedBus(factor)
}

// DRAM returns the channel's DIMMs and the counts of the operations issued
// to them.
func (c *Channel) DRAM() *dram.Ranks { return c.ranks }

// northStart returns when the northbound transfer of a read served by dimm
// may begin, given its DRAM burst starts at burstStart. A healthy DIMM bus
// is rate-matched with the northbound link, so the AMB cuts the data
// through; a degraded (slower) bus cannot sustain the link rate, so the AMB
// buffers the full line before forwarding it.
func (c *Channel) northStart(dimm int, burstStart clock.Time) clock.Time {
	if c.ranks.DIMMs[dimm].BusScale() > 1 {
		return burstStart + c.ranks.Burst(dimm)
	}
	return burstStart
}

// reserveWithRetry books dur on a link timeline, then — when fault
// injection is on — replays CRC-corrupted transfers: each error waits out
// the detect/turnaround delay and re-arbitrates for a fresh slot, consuming
// real link bandwidth exactly like the FB-DIMM retry protocol. Replays are
// capped at the injector's MaxRetries.
func (c *Channel) reserveWithRetry(tl *resource.Timeline, ready, dur clock.Time, class fault.Class) clock.Time {
	slot := tl.Reserve(ready, dur)
	if c.inj == nil {
		return slot
	}
	for n := 0; n < c.inj.MaxRetries(); n++ {
		if !c.inj.FrameError(class) {
			break
		}
		replay := tl.Reserve(slot+dur+c.inj.RetryDelay(), dur)
		c.inj.NoteRetry(replay - slot)
		slot = replay
	}
	return slot
}

// hop returns the total AMB forwarding delay a request to dimm pays.
// Without VRL every request pays the full chain (the fixed farthest-DIMM
// latency); with VRL only the hops up to its own DIMM.
func (c *Channel) hop(dimm int) clock.Time {
	n := c.cfg.DIMMsPerChannel
	if c.cfg.VRL {
		n = dimm + 1
	}
	return clock.Time(n) * c.cfg.AMBHopDelay
}

// IsFastRead reports whether a read of the line-aligned address line, at
// loc with DIMM-local line ID localID, would be served without a full DRAM
// access — an AMB-cache hit (a line still in transit is resident too), or
// an open-row hit under open-page mode. The controller's hit-first
// scheduler prioritizes these.
func (c *Channel) IsFastRead(line int64, loc addrmap.Location, localID int64) bool {
	if c.cfg.AMBPrefetch && c.ambs[loc.DIMM].Contains(line, localID) {
		return true
	}
	return c.ranks.RowHit(loc)
}

// AMBStats returns the aggregated prefetch statistics of every AMB cache on
// the channel (zero value when prefetching is disabled).
func (c *Channel) AMBStats() ambcache.Stats {
	var s ambcache.Stats
	for _, a := range c.ambs {
		s.Add(a.Stats)
	}
	return s
}

// ScheduleRead books every resource a demand read needs, starting no
// earlier than ready (the time the controller finished its own pipeline),
// and returns the time the full cacheline is back at the controller plus
// whether the AMB cache served it.
func (c *Channel) ScheduleRead(addr int64, ready clock.Time) (dataAt clock.Time, ambHit bool) {
	loc := c.mapper.Map(addr)
	line := c.mapper.LineAddr(addr)
	c.Links.BytesNorth += int64(c.cfg.LineBytes)

	if c.cfg.AMBPrefetch {
		if avail, hit := c.lookupAMB(loc.DIMM, line, c.mapper.LocalLineID(line)); hit {
			return c.scheduleAMBHit(loc, ready, avail), true
		}
		return c.scheduleGroupFetch(loc, addr, ready), false
	}
	// Plain FB-DIMM: single-line DRAM access. The AMB cuts the read data
	// through to the northbound link as the DDR2 burst streams in (the
	// two buses are rate-matched), so the northbound transfer begins when
	// the DRAM burst begins.
	sSlot := c.reserveWithRetry(c.south, ready, c.cmdSlot, fault.SouthFrame)
	cmdArrive := sSlot + c.cmdDelay
	burstStart, _ := c.ranks.Access(loc, false, 1, cmdArrive, c.dimmBus[loc.DIMM])
	c.lastCmdAt, c.lastServiceAt = cmdArrive, burstStart
	nSlot := c.reserveWithRetry(c.north, c.northStart(loc.DIMM, burstStart), c.northTime, fault.NorthFrame)
	return nSlot + c.northTime + c.hop(loc.DIMM), false
}

// lookupAMB consults the controller-side tag table. It returns the time the
// line is (or will be) available at the AMB and whether that counts as a
// prefetch hit.
func (c *Channel) lookupAMB(dimm int, line, local int64) (clock.Time, bool) {
	amb := c.ambs[dimm]
	// Soft-error injection: a resident line may be found poisoned on
	// access. The controller scrubs its tag (keeping MC tags and AMB
	// contents coherent) and the access falls through to a demand miss.
	// The residency check precedes LookupRead so hit statistics never
	// count a line the scrub just destroyed.
	if c.inj != nil && amb.Contains(line, local) && c.inj.AMBSoftError() {
		amb.Scrub(line, local)
	}
	return amb.LookupRead(line, local)
}

// scheduleAMBHit returns data from the AMB cache: southbound fetch command,
// then a northbound transfer — no DRAM operations. Under FullLatencyHits
// (the FBD-APFL decomposition arm of Figure 9) the hit additionally waits
// out the tRCD+tCL it would have spent in the DRAM, isolating the
// bank-conflict benefit from the latency benefit.
func (c *Channel) scheduleAMBHit(loc addrmap.Location, ready, avail clock.Time) clock.Time {
	sSlot := c.reserveWithRetry(c.south, ready, c.cmdSlot, fault.SouthFrame)
	ambReady := maxTime(sSlot+c.cmdDelay, avail)
	if c.cfg.FullLatencyHits {
		ambReady += c.cfg.Timing.TRCD + c.cfg.Timing.TCL
	}
	c.lastCmdAt, c.lastServiceAt = sSlot+c.cmdDelay, ambReady
	nSlot := c.reserveWithRetry(c.north, ambReady, c.northTime, fault.NorthFrame)
	return nSlot + c.northTime + c.hop(loc.DIMM)
}

// scheduleGroupFetch performs the AMB-prefetch miss path: one southbound
// command makes the AMB issue K pipelined column reads; the demanded line
// (fetched first) crosses the northbound link while the other K-1 lines are
// stored in the AMB cache without touching the channel.
func (c *Channel) scheduleGroupFetch(loc addrmap.Location, addr int64, ready clock.Time) clock.Time {
	c.group = c.mapper.AppendGroup(c.group[:0], addr)
	k := len(c.group)

	sSlot := c.reserveWithRetry(c.south, ready, c.cmdSlot, fault.SouthFrame)
	cmdArrive := sSlot + c.cmdDelay
	burstStart, _ := c.ranks.Access(loc, false, k, cmdArrive, c.dimmBus[loc.DIMM])
	c.lastCmdAt, c.lastServiceAt = cmdArrive, burstStart

	nSlot := c.reserveWithRetry(c.north, c.northStart(loc.DIMM, burstStart), c.northTime, fault.NorthFrame)
	dataAt := nSlot + c.northTime + c.hop(loc.DIMM)

	// The prefetched lines land in the AMB cache one DDR2 burst after
	// another (line i is fully received (i+1) bursts after the train
	// starts; the demanded line goes first).
	amb := c.ambs[loc.DIMM]
	burst := c.ranks.Burst(loc.DIMM)
	for i, la := range c.group[1:] {
		amb.InsertPrefetchAt(la, c.mapper.LocalLineID(la), burstStart+clock.Time(i+2)*burst)
	}
	return dataAt
}

// ScheduleWrite books a group of cacheline writebacks that share one DRAM
// row (the controller batches same-region writes, its hit-first policy
// applied to the write stream): command + data cross the southbound link,
// then one activation serves n pipelined column writes. It returns the time
// the last write's data is in the DRAM array.
func (c *Channel) ScheduleWrite(addrs []int64, ready clock.Time) clock.Time {
	loc := c.mapper.Map(addrs[0])
	n := len(addrs)
	c.Links.BytesSouth += int64(n * c.cfg.LineBytes)

	if c.cfg.AMBPrefetch && !c.cfg.AMBWriteUpdate {
		// The design invalidates cached copies so the AMB never serves
		// stale data. (Write-update is the ablation alternative: the AMB
		// snoops the write data as it passes through.)
		for _, a := range addrs {
			line := c.mapper.LineAddr(a)
			c.ambs[loc.DIMM].Invalidate(line, c.mapper.LocalLineID(line))
		}
	}

	// Southbound: one command slot per line plus the write data. Each
	// frame moves 16 B × gang while still carrying one command, so data
	// consumes two of the three slots per frame it occupies.
	chunks := (c.cfg.LineBytes + 16*c.cfg.GangWidth - 1) / (16 * c.cfg.GangWidth)
	dur := c.cmdSlot * clock.Time(n+2*n*chunks)
	// A CRC error anywhere in the command+data frame sequence replays the
	// whole transfer (one injector draw per transfer attempt).
	sSlot := c.reserveWithRetry(c.south, ready, dur, fault.SouthFrame)
	cmdArrive := sSlot + dur + c.cmdDelay
	busAt, done := c.ranks.Access(loc, true, n, cmdArrive, c.dimmBus[loc.DIMM])
	c.lastCmdAt, c.lastServiceAt = cmdArrive, busAt
	return done
}

// Housekeep prunes reservation history older than the horizon and ends
// the pending fills of prefetched lines that have landed by then. The
// controller calls it periodically; horizon must not exceed the earliest
// future "ready" time it will ever pass to Schedule*.
func (c *Channel) Housekeep(horizon clock.Time) {
	c.south.Prune(horizon)
	c.north.Prune(horizon)
	for _, b := range c.dimmBus {
		b.Prune(horizon)
	}
	for _, a := range c.ambs {
		a.Housekeep(horizon)
	}
}

// LinkBytes reports the read and write data the channel has moved.
func (c *Channel) LinkBytes() (north, south int64) {
	return c.Links.BytesNorth, c.Links.BytesSouth
}

// LinkBusy reports the cumulative reserved time of the northbound and
// southbound links (utilization numerators).
func (c *Channel) LinkBusy() (north, south clock.Time) {
	return c.north.TotalReserved(), c.south.TotalReserved()
}

// LastTiming returns the command-arrival and service-start times of the
// most recent ScheduleRead/ScheduleWrite call. The memtrace recorder uses
// it to stamp per-stage timestamps; it is meaningless between calls.
func (c *Channel) LastTiming() (cmdAt, serviceAt clock.Time) {
	return c.lastCmdAt, c.lastServiceAt
}

// DIMMBusBusy reports the cumulative reserved time across the channel's
// per-DIMM DDR2 data buses (the numerator of DIMM-bus utilization).
func (c *Channel) DIMMBusBusy() clock.Time {
	var total clock.Time
	for _, b := range c.dimmBus {
		total += b.TotalReserved()
	}
	return total
}

func maxTime(a, b clock.Time) clock.Time {
	if a > b {
		return a
	}
	return b
}
