// Package config defines the complete configuration of a simulated system:
// the processor pipeline parameters of Table 1, the DRAM timing parameters
// of Table 2, the memory-subsystem organization of Section 5, and every
// AMB-prefetching knob that the paper's sensitivity studies vary.
//
// The zero value is not usable; start from Default and adjust.
package config

import (
	"errors"
	"fmt"

	"fbdsim/internal/clock"
)

// MemKind selects the memory interconnect technology.
type MemKind int

const (
	// DDR2 is the conventional stub-bus DDR2 channel baseline.
	DDR2 MemKind = iota
	// FBDIMM is the fully-buffered DIMM two-level interconnect.
	FBDIMM
)

func (k MemKind) String() string {
	switch k {
	case DDR2:
		return "DDR2"
	case FBDIMM:
		return "FB-DIMM"
	default:
		return fmt.Sprintf("MemKind(%d)", int(k))
	}
}

// Interleave selects how physical addresses are laid out across channels,
// DIMMs and banks (Section 3.2).
type Interleave int

const (
	// CachelineInterleave maps consecutive cachelines to different
	// channels/DIMMs/banks round-robin (the baseline for close-page mode).
	CachelineInterleave Interleave = iota
	// PageInterleave maps a full DRAM page of consecutive addresses to one
	// bank (used with open-page mode).
	PageInterleave
	// MultiCachelineInterleave maps regions of K consecutive cachelines to
	// one bank and row, then round-robins regions across channels and banks.
	// This is the scheme AMB prefetching requires.
	MultiCachelineInterleave
)

func (iv Interleave) String() string {
	switch iv {
	case CachelineInterleave:
		return "cacheline"
	case PageInterleave:
		return "page"
	case MultiCachelineInterleave:
		return "multi-cacheline"
	default:
		return fmt.Sprintf("Interleave(%d)", int(iv))
	}
}

// PageMode selects the row-buffer management policy.
type PageMode int

const (
	// ClosePage precharges a bank immediately after each access burst
	// (auto-precharge). The paper uses it for cacheline and multi-cacheline
	// interleaving.
	ClosePage PageMode = iota
	// OpenPage leaves the row open until a conflicting access forces a
	// precharge. The paper pairs it with page interleaving.
	OpenPage
)

func (m PageMode) String() string {
	if m == ClosePage {
		return "close-page"
	}
	return "open-page"
}

// Replacement selects the AMB-cache replacement policy.
type Replacement int

const (
	// FIFO is the paper's choice: a hit block is likely resident in the
	// processor cache and will not be re-referenced soon, so LRU's
	// recency signal is misleading at this level.
	FIFO Replacement = iota
	// LRU is provided for the ablation study.
	LRU
)

func (r Replacement) String() string {
	if r == FIFO {
		return "FIFO"
	}
	return "LRU"
}

// FullAssoc denotes a fully-associative AMB cache when used as the
// associativity value.
const FullAssoc = 0

// Timing holds the DRAM operation delays of Table 2.
type Timing struct {
	TRP  clock.Time // PRE to ACT, same bank
	TRCD clock.Time // ACT to RD/WR, same bank
	TCL  clock.Time // RD command to read data
	TRC  clock.Time // ACT to ACT, same bank
	TRRD clock.Time // ACT to ACT (or PRE to PRE), different banks
	TRPD clock.Time // RD command to PRE
	TWTR clock.Time // end of write data to RD command
	TRAS clock.Time // ACT to PRE (reads)
	TWL  clock.Time // WR command to write data
	TWPD clock.Time // WR command to PRE
}

// Table2 returns the DRAM timing parameters of Table 2 (DDR2-667 class).
func Table2() Timing {
	ns := clock.Nanosecond
	return Timing{
		TRP:  15 * ns,
		TRCD: 15 * ns,
		TCL:  15 * ns,
		TRC:  54 * ns,
		TRRD: 9 * ns,
		TRPD: 9 * ns,
		TWTR: 9 * ns,
		TRAS: 39 * ns,
		TWL:  12 * ns,
		TWPD: 36 * ns,
	}
}

// Table2DDR3 returns DDR3-1333-class timings for the forward-looking
// configuration the paper's footnote 1 anticipates. Core cell timings
// barely move between generations — the win is interface bandwidth.
func Table2DDR3() Timing {
	ps := clock.Picosecond
	return Timing{
		TRP:  13500 * ps,
		TRCD: 13500 * ps,
		TCL:  13500 * ps,
		TRC:  49500 * ps,
		TRRD: 6000 * ps,
		TRPD: 7500 * ps,
		TWTR: 7500 * ps,
		TRAS: 36000 * ps,
		TWL:  9000 * ps,
		TWPD: 30000 * ps,
	}
}

// Mem configures the memory subsystem (controller, channels, DIMMs, DRAM).
type Mem struct {
	Kind     MemKind
	DataRate clock.DataRate

	// LogicalChannels is the number of independently scheduled channels.
	// The paper's default is 2 (four physical channels ganged in pairs).
	LogicalChannels int
	// GangWidth is the number of physical channels ganged per logical
	// channel (2 in the default setting). Ganging multiplies the per-frame
	// payload and the DIMM-internal bus width.
	GangWidth int
	// DIMMsPerChannel is the DIMM count on each logical channel.
	DIMMsPerChannel int
	// BanksPerDIMM is the number of logical DRAM banks per DIMM.
	BanksPerDIMM int
	// RowBytes is the DRAM page (row) size of a logical bank in bytes.
	RowBytes int
	// LineBytes is the cacheline / memory block size.
	LineBytes int

	Interleave Interleave
	// RegionLines is K, the multi-cacheline interleaving granularity and
	// the number of lines fetched per demand miss when AMB prefetching is
	// on. Meaningful only with MultiCachelineInterleave.
	RegionLines int
	PageMode    PageMode
	// PermuteBanks applies the permutation-based interleaving of the
	// paper's reference [26] (Zhang, Zhu, Zhang, MICRO 2000): the bank
	// index is XOR-ed with low row bits, spreading row-conflicting
	// addresses across banks. An orthogonal extension that composes with
	// every interleaving scheme, including AMB prefetching's.
	PermuteBanks bool

	// QueueEntries is the memory controller transaction buffer size.
	QueueEntries int
	// CtrlOverhead is the fixed memory-controller pipeline overhead.
	CtrlOverhead clock.Time
	// WriteDrainThreshold is the number of buffered writes above which the
	// scheduler stops prioritizing reads.
	WriteDrainThreshold int

	Timing Timing

	// AMBHopDelay is the forwarding delay added by each AMB on the
	// daisy chain (FB-DIMM only).
	AMBHopDelay clock.Time
	// VRL enables variable read latency: a request pays hop delays only up
	// to its own DIMM instead of the full chain.
	VRL bool

	// AMBPrefetch enables the paper's proposal (FBD-AP).
	AMBPrefetch bool
	// AMBCacheLines is the per-AMB prefetch buffer capacity in cachelines.
	AMBCacheLines int
	// AMBCacheAssoc is the AMB cache associativity; FullAssoc (0) means
	// fully associative.
	AMBCacheAssoc int
	// AMBReplacement selects FIFO (paper) or LRU (ablation).
	AMBReplacement Replacement
	// FullLatencyHits makes AMB-cache hits pay the full DRAM-access idle
	// latency while still skipping bank activity. This is the FBD-APFL
	// configuration used in Figure 9 to decompose the performance gain.
	FullLatencyHits bool
	// AMBWriteUpdate updates a cached line on a write instead of
	// invalidating it (ablation; the paper's design invalidates).
	AMBWriteUpdate bool

	// RefreshEnabled adds periodic all-bank DRAM refresh (extension; the
	// paper's evaluation ignores refresh, whose cost is common to every
	// configuration). TREFI/TRFC default to 7.8 µs / 127.5 ns when zero.
	RefreshEnabled bool
	TREFI          clock.Time
	TRFC           clock.Time
}

// CPU configures the cores and cache hierarchy (Table 1).
type CPU struct {
	Cores      int
	IssueWidth int
	ROBEntries int
	LQEntries  int
	SQEntries  int

	// PipelineDepth approximates the 21-stage front end: minimum cycles
	// between fetch and earliest commit of an instruction.
	PipelineDepth int

	L1DataKB    int
	L1Assoc     int
	L1HitCycles int

	L2KB        int
	L2Assoc     int
	L2HitCycles int

	LineBytes int

	L1MSHRs int // data MSHRs per core
	L2MSHRs int // shared

	// SoftwarePrefetch executes the prefetch hints embedded in traces
	// (Section 5.4 toggles this).
	SoftwarePrefetch bool

	// HardwarePrefetch enables a stream-based hardware L2 prefetcher —
	// the extension experiment for Section 5.4's conjecture that AMB
	// prefetching composes with hardware prefetching like it does with
	// software prefetching. Off by default (the paper's configuration).
	HardwarePrefetch bool
	// HWPrefetchStreams, HWPrefetchDegree size the prefetcher (defaults
	// applied when zero: 16 streams, degree 4).
	HWPrefetchStreams int
	HWPrefetchDegree  int
}

// Trace configures the optional memtrace recorder (per-request lifecycle
// events, per-stage latency histograms, epoch time-series). Disabled by
// default; when disabled the simulator pays only a nil-pointer check.
type Trace struct {
	// Enabled turns the recorder on.
	Enabled bool
	// Epoch is the time-series sampling interval; 0 means the recorder
	// default (1 µs of simulated time).
	Epoch clock.Time
	// MaxEvents bounds the number of retained per-request events (the
	// Chrome trace size); 0 means the recorder default (65536). Events
	// beyond the bound are dropped from the trace but still counted in
	// the histograms and epochs.
	MaxEvents int
}

// Fault configures the deterministic fault injector (internal/fault).
// Disabled by default; when disabled the pipeline pays only a nil-pointer
// check per injection point. Link-error and AMB-soft-error classes apply to
// FB-DIMM systems only (DDR2 has no CRC/replay protocol); the dead-bank
// remap applies to both interconnects.
type Fault struct {
	// Enabled turns the injector on.
	Enabled bool
	// Seed drives every stochastic fault decision; the same seed, rates
	// and configuration reproduce the exact same faults and results.
	Seed int64

	// SouthErrorRate / NorthErrorRate are per-transfer CRC frame-error
	// probabilities on the southbound and northbound links, in [0, 1].
	SouthErrorRate float64
	NorthErrorRate float64
	// AMBSoftErrorRate is the probability that a demand access to a
	// resident AMB-cache line finds it poisoned (scrub + demand miss).
	AMBSoftErrorRate float64

	// RetryDelay is the CRC-detect + replay turnaround before a corrupted
	// transfer re-arbitrates for a link slot; 0 means the default (60 ns,
	// roughly the round trip the FB-DIMM retry protocol pays).
	RetryDelay clock.Time
	// MaxRetries bounds consecutive replays of one transfer; 0 means the
	// default (8).
	MaxRetries int

	// DegradedChannel / DegradedDIMM select one DIMM running in degraded
	// mode. DegradedDIMM < 0 (the Default) means no DIMM is degraded.
	DegradedChannel int
	DegradedDIMM    int
	// DegradedBusFactor divides the degraded DIMM's DDR2 bus rate: each
	// burst occupies factor× the nominal bus time. 0 means the default (2).
	DegradedBusFactor int
	// DeadBank maps out one bank of the degraded DIMM: the address map
	// respreads its accesses onto a neighbouring bank. -1 (the Default)
	// means no bank is dead. Requires DegradedDIMM >= 0.
	DeadBank int
}

// RetrySettings returns the effective retry delay and cap, applying the
// defaults (60 ns, 8) for unset values.
func (f *Fault) RetrySettings() (delay clock.Time, retries int) {
	delay, retries = f.RetryDelay, f.MaxRetries
	if delay == 0 {
		delay = 60 * clock.Nanosecond
	}
	if retries == 0 {
		retries = 8
	}
	return delay, retries
}

// EffectiveBusFactor returns the degraded-bus slowdown, applying the
// default (2) when unset.
func (f *Fault) EffectiveBusFactor() int {
	if f.DegradedBusFactor == 0 {
		return 2
	}
	return f.DegradedBusFactor
}

func (f *Fault) validate(m *Mem) error {
	if !f.Enabled {
		return nil
	}
	for _, r := range []float64{f.SouthErrorRate, f.NorthErrorRate, f.AMBSoftErrorRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("config: fault rate %v outside [0, 1]", r)
		}
	}
	if f.RetryDelay < 0 {
		return errors.New("config: fault retry delay must be non-negative")
	}
	if f.MaxRetries < 0 {
		return errors.New("config: fault max retries must be non-negative")
	}
	if f.DegradedBusFactor < 0 {
		return errors.New("config: degraded bus factor must be non-negative")
	}
	if f.DegradedDIMM >= 0 {
		if f.DegradedChannel < 0 || f.DegradedChannel >= m.LogicalChannels {
			return fmt.Errorf("config: degraded channel %d outside [0, %d)",
				f.DegradedChannel, m.LogicalChannels)
		}
		if f.DegradedDIMM >= m.DIMMsPerChannel {
			return fmt.Errorf("config: degraded DIMM %d outside [0, %d)",
				f.DegradedDIMM, m.DIMMsPerChannel)
		}
	}
	if f.DeadBank >= 0 {
		if f.DegradedDIMM < 0 {
			return errors.New("config: dead bank requires a degraded DIMM")
		}
		if f.DeadBank >= m.BanksPerDIMM {
			return fmt.Errorf("config: dead bank %d outside [0, %d)", f.DeadBank, m.BanksPerDIMM)
		}
		if m.BanksPerDIMM < 2 {
			return errors.New("config: mapping out a bank requires at least two banks per DIMM")
		}
	}
	return nil
}

// Config is the complete simulated-system configuration.
type Config struct {
	CPU CPU
	Mem Mem

	// Trace configures the optional memtrace recorder.
	Trace Trace

	// Fault configures the optional deterministic fault injector.
	Fault Fault

	// MaxInsts is the per-core commit budget; the simulation stops when
	// any core commits this many instructions past warmup (the paper
	// stops at one simulation point of 100M; we default far lower for
	// tractability).
	MaxInsts int64
	// WarmupInsts is the per-core instruction count committed before
	// measurement begins (caches and queues reach steady state).
	WarmupInsts int64
	// Seed drives every stochastic choice in trace generation.
	Seed int64
}

// Default returns the paper's default setting: FB-DIMM, 667 MT/s, two
// logical channels of two ganged physical channels, four DIMMs per channel,
// four banks per DIMM, close-page cacheline interleaving, software
// prefetching on, AMB prefetching off.
func Default() Config {
	return Config{
		CPU: CPU{
			Cores:            1,
			IssueWidth:       8,
			ROBEntries:       196,
			LQEntries:        32,
			SQEntries:        32,
			PipelineDepth:    21,
			L1DataKB:         64,
			L1Assoc:          2,
			L1HitCycles:      3,
			L2KB:             4096,
			L2Assoc:          4,
			L2HitCycles:      15,
			LineBytes:        64,
			L1MSHRs:          32,
			L2MSHRs:          64,
			SoftwarePrefetch: true,
		},
		Mem: Mem{
			Kind:                FBDIMM,
			DataRate:            clock.DDR2_667,
			LogicalChannels:     2,
			GangWidth:           2,
			DIMMsPerChannel:     4,
			BanksPerDIMM:        4,
			RowBytes:            8192,
			LineBytes:           64,
			Interleave:          CachelineInterleave,
			RegionLines:         4,
			PageMode:            ClosePage,
			QueueEntries:        64,
			CtrlOverhead:        12 * clock.Nanosecond,
			WriteDrainThreshold: 16,
			Timing:              Table2(),
			AMBHopDelay:         3 * clock.Nanosecond,
			VRL:                 false,
			AMBPrefetch:         false,
			AMBCacheLines:       64,
			AMBCacheAssoc:       FullAssoc,
			AMBReplacement:      FIFO,
		},
		// -1 sentinels: 0 would mean "DIMM 0 / bank 0", not "none".
		Fault:       Fault{DegradedDIMM: -1, DeadBank: -1},
		MaxInsts:    1_000_000,
		WarmupInsts: 100_000,
		Seed:        1,
	}
}

// DDR2Baseline returns the conventional DDR2 comparison system with the
// same bandwidth organization as Default.
func DDR2Baseline() Config {
	c := Default()
	c.Mem.Kind = DDR2
	return c
}

// FBDIMMBaseline returns the FB-DIMM system without AMB prefetching (FBD).
func FBDIMMBaseline() Config { return Default() }

// WithAMBPrefetch returns c with AMB prefetching enabled using the paper's
// default prefetcher: four-cacheline interleaving, a 64-entry fully
// associative AMB cache with FIFO replacement (FBD-AP).
func WithAMBPrefetch(c Config) Config {
	c.Mem.AMBPrefetch = true
	c.Mem.Interleave = MultiCachelineInterleave
	c.Mem.RegionLines = 4
	c.Mem.PageMode = ClosePage
	return c
}

// WithDDR3 upgrades c to DDR3-1333 DIMMs behind the FB-DIMM channel — the
// future configuration of the paper's footnote 1. Everything else
// (channels, AMB, prefetcher) is unchanged.
func WithDDR3(c Config) Config {
	c.Mem.DataRate = clock.DDR3_1333
	c.Mem.Timing = Table2DDR3()
	return c
}

// WithFullLatencyHits returns c configured as FBD-APFL (Figure 9): AMB
// prefetching on, but hits pay full idle latency.
func WithFullLatencyHits(c Config) Config {
	c = WithAMBPrefetch(c)
	c.Mem.FullLatencyHits = true
	return c
}

// Preset returns the named memory-system configuration: ddr2
// (DDR2Baseline), fbd (Default), fbd-ap (WithAMBPrefetch) or fbd-apfl
// (WithFullLatencyHits). It is the one name table behind fbdsim -mem.
func Preset(name string) (Config, error) {
	switch name {
	case "ddr2":
		return DDR2Baseline(), nil
	case "fbd":
		return Default(), nil
	case "fbd-ap":
		return WithAMBPrefetch(Default()), nil
	case "fbd-apfl":
		return WithFullLatencyHits(Default()), nil
	}
	return Config{}, fmt.Errorf("unknown preset %q (want ddr2, fbd, fbd-ap, fbd-apfl)", name)
}

// Validate reports the first configuration error found, or nil.
func (c *Config) Validate() error {
	switch {
	case c.CPU.Cores < 1:
		return errors.New("config: need at least one core")
	case c.CPU.IssueWidth < 1:
		return errors.New("config: issue width must be positive")
	case c.CPU.ROBEntries < 1:
		return errors.New("config: ROB must be positive")
	case c.CPU.LineBytes != c.Mem.LineBytes:
		return fmt.Errorf("config: cacheline size mismatch CPU %dB vs Mem %dB",
			c.CPU.LineBytes, c.Mem.LineBytes)
	case c.MaxInsts < 1:
		return errors.New("config: MaxInsts must be positive")
	case c.WarmupInsts < 0:
		return errors.New("config: WarmupInsts must be non-negative")
	}
	if !powerOfTwo(c.CPU.LineBytes) {
		return fmt.Errorf("config: line size %d not a power of two", c.CPU.LineBytes)
	}
	if c.CPU.LineBytes < 4 {
		return fmt.Errorf("config: LineBytes %d below 4: a cache frame keeps its valid and dirty flags in the two low bits of the line address",
			c.CPU.LineBytes)
	}
	if err := cacheGeometry("L1DataKB", "L1Assoc", c.CPU.L1DataKB, c.CPU.L1Assoc, c.CPU.LineBytes); err != nil {
		return err
	}
	if err := cacheGeometry("L2KB", "L2Assoc", c.CPU.L2KB, c.CPU.L2Assoc, c.CPU.LineBytes); err != nil {
		return err
	}
	if c.Trace.Epoch < 0 {
		return errors.New("config: trace epoch must be non-negative")
	}
	if c.Trace.MaxEvents < 0 {
		return errors.New("config: trace MaxEvents must be non-negative")
	}
	if err := c.Fault.validate(&c.Mem); err != nil {
		return err
	}
	return c.Mem.validate()
}

// cacheGeometry checks one cache level against what cache.New can build:
// a positive size and associativity whose lines divide into a power-of-two
// number of sets.
func cacheGeometry(sizeField, assocField string, kb, assoc, lineBytes int) error {
	switch {
	case kb < 1:
		return fmt.Errorf("config: %s %d must be positive", sizeField, kb)
	case assoc < 1:
		return fmt.Errorf("config: %s %d must be positive", assocField, assoc)
	}
	if b, set := kb*1024, assoc*lineBytes; b%set != 0 || !powerOfTwo(b/set) {
		return fmt.Errorf("config: %s %d with %s %d does not divide into a power-of-two number of sets of %dB lines",
			sizeField, kb, assocField, assoc, lineBytes)
	}
	return nil
}

func (m *Mem) validate() error {
	if !m.DataRate.Valid() {
		return fmt.Errorf("config: unsupported data rate %d MT/s", int(m.DataRate))
	}
	switch {
	case m.LogicalChannels < 1:
		return errors.New("config: need at least one logical channel")
	case m.GangWidth < 1:
		return errors.New("config: gang width must be positive")
	case m.DIMMsPerChannel < 1:
		return errors.New("config: need at least one DIMM per channel")
	case m.BanksPerDIMM < 1:
		return errors.New("config: need at least one bank per DIMM")
	case m.QueueEntries < 1:
		return errors.New("config: controller queue must be positive")
	}
	for _, v := range []int{m.LogicalChannels, m.DIMMsPerChannel, m.BanksPerDIMM, m.RowBytes, m.LineBytes} {
		if !powerOfTwo(v) {
			return fmt.Errorf("config: memory geometry value %d not a power of two", v)
		}
	}
	if m.RowBytes < m.LineBytes {
		return fmt.Errorf("config: row size %dB smaller than line size %dB", m.RowBytes, m.LineBytes)
	}
	if m.Interleave == MultiCachelineInterleave {
		if m.RegionLines < 2 || !powerOfTwo(m.RegionLines) {
			return fmt.Errorf("config: region size K=%d must be a power of two >= 2", m.RegionLines)
		}
		if m.RegionLines*m.LineBytes > m.RowBytes {
			return fmt.Errorf("config: region (%d lines) exceeds a DRAM row", m.RegionLines)
		}
	}
	if m.AMBPrefetch {
		if m.Kind != FBDIMM {
			return errors.New("config: AMB prefetching requires FB-DIMM")
		}
		if m.Interleave == CachelineInterleave {
			return errors.New("config: AMB prefetching requires multi-cacheline or page interleaving")
		}
		if m.AMBCacheLines < 1 {
			return errors.New("config: AMB cache must hold at least one line")
		}
		if m.AMBCacheAssoc < 0 || (m.AMBCacheAssoc != FullAssoc && !powerOfTwo(m.AMBCacheAssoc)) {
			return fmt.Errorf("config: AMB cache associativity %d invalid", m.AMBCacheAssoc)
		}
		if m.AMBCacheAssoc != FullAssoc && m.AMBCacheLines%m.AMBCacheAssoc != 0 {
			return fmt.Errorf("config: AMB cache lines %d not divisible by associativity %d",
				m.AMBCacheLines, m.AMBCacheAssoc)
		}
	}
	if m.PageMode == OpenPage && m.Interleave == CachelineInterleave {
		return errors.New("config: open-page mode requires page or multi-cacheline interleaving")
	}
	if m.RefreshEnabled {
		if m.TREFI < 0 || m.TRFC < 0 {
			return errors.New("config: refresh timings must be non-negative")
		}
		trefi, trfc := m.RefreshTimings()
		if trefi <= trfc {
			return fmt.Errorf("config: tREFI %v must exceed tRFC %v", trefi, trfc)
		}
	}
	return nil
}

// RefreshTimings returns the effective tREFI and tRFC, applying the DDR2
// defaults (7.8 µs, 127.5 ns) for unset values.
func (m *Mem) RefreshTimings() (trefi, trfc clock.Time) {
	trefi, trfc = m.TREFI, m.TRFC
	if trefi == 0 {
		trefi = 7800 * clock.Nanosecond
	}
	if trfc == 0 {
		trfc = 127500 * clock.Picosecond
	}
	return trefi, trfc
}

// TotalBanks returns the number of logical DRAM banks in the system.
func (m *Mem) TotalBanks() int {
	return m.LogicalChannels * m.DIMMsPerChannel * m.BanksPerDIMM
}

// PeakChannelBandwidth returns the aggregate peak read bandwidth of all
// logical channels in bytes per second.
func (m *Mem) PeakChannelBandwidth() float64 {
	per := m.DataRate.BytesPerSecond() * float64(m.GangWidth)
	return per * float64(m.LogicalChannels)
}

func powerOfTwo(v int) bool { return v > 0 && v&(v-1) == 0 }
