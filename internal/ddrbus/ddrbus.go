// Package ddrbus models a conventional DDR2 memory channel — the baseline
// the paper compares FB-DIMM against. Unlike FB-DIMM's two independent
// unidirectional links, a DDR2 channel has one shared command/address bus
// and one shared bidirectional data bus; reads and writes contend for the
// same data wires, which is why FB-DIMM's aggregate bandwidth is higher at
// equal data rates.
//
// With the default (ganged-pair) configuration the idle read latency is
// 12 ns controller overhead + 3 ns propagation + 9 ns stub-bus command
// overhead (registered-DIMM latch plus 2T command timing, needed for signal
// integrity on the multi-drop bus) + 15 ns tRCD + 15 ns tCL + 6 ns data
// burst = 60 ns, just below FB-DIMM's 63 ns — matching the measured idle
// latencies the paper reports in Figure 5 (60 ns DDR2 vs 62 ns FB-DIMM for
// single-core workloads) and its observation that FB-DIMM trades a little
// idle latency for bandwidth.
package ddrbus

import (
	"fbdsim/internal/addrmap"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/dram"
	"fbdsim/internal/fbdchan"
	"fbdsim/internal/resource"
)

// Channel is one logical DDR2 channel (a gang of physical channels in
// lockstep), with its DIMMs attached as ranks on the shared buses.
type Channel struct {
	cfg    *config.Mem
	mapper *addrmap.Mapper

	tck      clock.Time
	cmdDelay clock.Time

	cmdBus  *resource.Timeline
	dataBus *resource.Timeline
	ranks   *dram.Ranks

	// Links accumulates channel traffic for utilized-bandwidth stats.
	Links fbdchan.LinkStats

	// lastCmdAt / lastServiceAt mirror fbdchan.Channel's fields: the
	// command-arrival and data-bus start of the most recent Schedule* call,
	// surfaced through LastTiming for the memtrace recorder.
	lastCmdAt     clock.Time
	lastServiceAt clock.Time
}

// New builds the channel model from a validated configuration.
func New(cfg *config.Mem, mapper *addrmap.Mapper) *Channel {
	tck := cfg.DataRate.TCK()
	return &Channel{
		cfg:    cfg,
		mapper: mapper,
		tck:    tck,
		// Propagation plus the stub-bus overhead of a registered, multi-
		// drop DDR2 channel: one clock in the DIMM register and 2T command
		// timing (three clocks total at the configured data rate).
		cmdDelay: 3*clock.Nanosecond + 3*tck,
		cmdBus:   resource.NewQuantized(tck),
		dataBus:  resource.NewQuantized(0),
		ranks:    dram.NewRanks(cfg),
	}
}

// IsFastRead reports an open-row hit opportunity for a read decoded to loc
// (only meaningful under open-page mode; the DDR2 baseline defaults to
// close-page cacheline interleaving where it is always false). The line
// address and DIMM-local line ID match fbdchan's signature; DDR2 has no
// AMB cache to look them up in.
func (c *Channel) IsFastRead(_ int64, loc addrmap.Location, _ int64) bool {
	return c.ranks.RowHit(loc)
}

// DRAM returns the channel's DIMMs and the counts of the operations issued
// to them.
func (c *Channel) DRAM() *dram.Ranks { return c.ranks }

// ScheduleRead books command bus, bank, and data bus for a demand read
// starting no earlier than ready and returns when the cacheline is back at
// the controller. The second return mirrors the FB-DIMM interface and is
// always false (no AMB cache on DDR2).
func (c *Channel) ScheduleRead(addr int64, ready clock.Time) (dataAt clock.Time, ambHit bool) {
	loc := c.mapper.Map(addr)
	c.Links.BytesNorth += int64(c.cfg.LineBytes)

	// One reservation covers the ACT+RD command pair.
	slot := c.cmdBus.Reserve(ready, 2*c.tck)
	cmdArrive := slot + c.cmdDelay
	busStart, dataAt := c.ranks.Access(loc, false, 1, cmdArrive, c.dataBus)
	c.lastCmdAt, c.lastServiceAt = cmdArrive, busStart
	return dataAt, false
}

// ScheduleWrite books a group of writebacks sharing one DRAM row (one
// activation, n pipelined column writes) and returns when the last line's
// data is in the DRAM array. Write data shares the one data bus with reads.
// Under the baseline's cacheline interleaving, regions are single lines and
// every group has length one.
func (c *Channel) ScheduleWrite(addrs []int64, ready clock.Time) clock.Time {
	loc := c.mapper.Map(addrs[0])
	n := len(addrs)
	c.Links.BytesSouth += int64(n * c.cfg.LineBytes)

	slot := c.cmdBus.Reserve(ready, clock.Time(1+n)*c.tck)
	cmdArrive := slot + c.cmdDelay
	busAt, done := c.ranks.Access(loc, true, n, cmdArrive, c.dataBus)
	c.lastCmdAt, c.lastServiceAt = cmdArrive, busAt
	return done
}

// LinkBytes reports the read and write data the channel has moved.
func (c *Channel) LinkBytes() (north, south int64) {
	return c.Links.BytesNorth, c.Links.BytesSouth
}

// LinkBusy reports the cumulative reserved time of the shared data bus
// (returned as "north"; the command bus as "south") for utilization stats.
func (c *Channel) LinkBusy() (north, south clock.Time) {
	return c.dataBus.TotalReserved(), c.cmdBus.TotalReserved()
}

// LastTiming returns the command-arrival and service-start times of the
// most recent ScheduleRead/ScheduleWrite call (see fbdchan.Channel.LastTiming).
func (c *Channel) LastTiming() (cmdAt, serviceAt clock.Time) {
	return c.lastCmdAt, c.lastServiceAt
}

// DIMMBusBusy reports the cumulative reserved time of the shared data bus.
// On DDR2 the "DIMM bus" and the channel data bus are the same wires.
func (c *Channel) DIMMBusBusy() clock.Time {
	return c.dataBus.TotalReserved()
}

// Housekeep prunes reservation history older than horizon.
func (c *Channel) Housekeep(horizon clock.Time) {
	c.cmdBus.Prune(horizon)
	c.dataBus.Prune(horizon)
}
