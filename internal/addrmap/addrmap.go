// Package addrmap implements the DRAM interleaving schemes of Section 3.2:
// conventional cacheline interleaving, page interleaving, and the
// multi-cacheline (K-line region) interleaving that AMB prefetching
// requires. A Mapper decomposes a physical address into the channel, DIMM,
// bank, row and column that serve it, and can enumerate the prefetch group
// of a demanded block.
package addrmap

import (
	"fmt"
	"math/bits"

	"fbdsim/internal/config"
)

// Location identifies the DRAM resources serving one memory block.
type Location struct {
	Channel int // logical channel
	DIMM    int // DIMM on the channel
	Bank    int // logical bank on the DIMM
	Row     int64
	Col     int // cacheline index within the row
}

// BankID returns a dense global index for the (channel, DIMM, bank) triple,
// suitable for array indexing across the whole memory system.
func (l Location) BankID(cfg *config.Mem) int {
	return (l.Channel*cfg.DIMMsPerChannel+l.DIMM)*cfg.BanksPerDIMM + l.Bank
}

func (l Location) String() string {
	return fmt.Sprintf("ch%d/dimm%d/bank%d/row%d/col%d", l.Channel, l.DIMM, l.Bank, l.Row, l.Col)
}

// Mapper translates physical addresses to DRAM locations under one
// interleaving scheme.
//
// Every geometry value is a power of two (config.Validate), so decoding is
// shifts and masks. Under each scheme a line index splits, low bits first,
// into its offset within an interleave unit (one line, a K-line region, or
// a row's worth of lines under page interleaving), then the unit's channel,
// DIMM and bank — channel varying fastest (maximizing channel-level
// concurrency), then DIMM, then bank: the wraparound order of Figure 2 —
// and last the unit's sequence number within its bank, which packs units
// into rows.
type Mapper struct {
	cfg config.Mem

	lineShift   uint
	unitBits    uint // log2(lines per interleave unit)
	chanBits    uint
	dimmBits    uint
	bankBits    uint
	rowUnitBits uint // log2(interleave units per DRAM row)
	linesPerRow int64
	regionLines int64

	// Bank sparing (degraded-DIMM fault mode): accesses to one dead
	// (channel, DIMM, bank) triple are steered onto the next bank of the
	// same DIMM. Off by default.
	spareOn   bool
	spareCh   int
	spareDIMM int
	spareBank int
}

// log2 returns the base-2 logarithm of the power of two n.
func log2(n int) uint { return uint(bits.TrailingZeros(uint(n))) }

// mask returns a mask of the low n bits.
func mask(n uint) int64 { return 1<<n - 1 }

// New builds a Mapper for the memory configuration. The configuration must
// already be validated.
func New(cfg *config.Mem) *Mapper {
	linesPerRow := cfg.RowBytes / cfg.LineBytes
	m := &Mapper{
		cfg:         *cfg,
		lineShift:   log2(cfg.LineBytes),
		chanBits:    log2(cfg.LogicalChannels),
		dimmBits:    log2(cfg.DIMMsPerChannel),
		bankBits:    log2(cfg.BanksPerDIMM),
		linesPerRow: int64(linesPerRow),
		regionLines: 1,
	}
	switch cfg.Interleave {
	case config.CachelineInterleave:
	case config.MultiCachelineInterleave:
		m.regionLines = int64(cfg.RegionLines)
		m.unitBits = log2(cfg.RegionLines)
	case config.PageInterleave:
		m.unitBits = log2(linesPerRow)
	default:
		panic(fmt.Sprintf("addrmap: unknown interleave %v", cfg.Interleave))
	}
	m.rowUnitBits = log2(linesPerRow) - m.unitBits
	return m
}

// LineAddr returns the cacheline-aligned address containing addr.
func (m *Mapper) LineAddr(addr int64) int64 {
	return addr &^ (int64(m.cfg.LineBytes) - 1)
}

// lineIndex returns the global cacheline index of addr.
func (m *Mapper) lineIndex(addr int64) int64 { return addr >> m.lineShift }

// Map decomposes a physical address into its DRAM location, applying the
// bank-sparing remap when one is configured.
func (m *Mapper) Map(addr int64) Location {
	loc := m.mapRaw(addr)
	if m.spareOn && loc.Channel == m.spareCh && loc.DIMM == m.spareDIMM && loc.Bank == m.spareBank {
		loc.Bank = (loc.Bank + 1) % m.cfg.BanksPerDIMM
	}
	return loc
}

// Channel returns Map(addr).Channel without the rest of the decode (bank
// sparing never moves an access to another channel).
func (m *Mapper) Channel(addr int64) int {
	return int(addr >> (m.lineShift + m.unitBits) & mask(m.chanBits))
}

// mapRaw is the interleaving decomposition before bank sparing.
func (m *Mapper) mapRaw(addr int64) Location {
	line := m.lineIndex(addr)
	unit := line >> m.unitBits
	idx := unit >> (m.chanBits + m.dimmBits + m.bankBits) // unit sequence number within its bank
	loc := Location{
		Channel: int(unit & mask(m.chanBits)),
		DIMM:    int(unit >> m.chanBits & mask(m.dimmBits)),
		Bank:    int(unit >> (m.chanBits + m.dimmBits) & mask(m.bankBits)),
		Row:     idx >> m.rowUnitBits,
		Col:     int((idx&mask(m.rowUnitBits))<<m.unitBits | line&mask(m.unitBits)),
	}
	if m.cfg.PermuteBanks {
		// Permutation-based interleaving [26]: XOR the bank index with
		// the row's low bits. For any fixed (channel, DIMM, row) this is
		// a bijection on banks, so the mapping stays injective while
		// same-bank row conflicts scatter across banks.
		loc.Bank ^= int(loc.Row) & (m.cfg.BanksPerDIMM - 1)
	}
	return loc
}

// SetBankSpare maps out one bank: every access the interleaving would send
// to (channel, dimm, bank) is steered onto the next bank of the same DIMM
// instead. This is the degraded-DIMM graceful-degradation mode — the
// simulator carries timing, not data, so the resulting double load on the
// spare bank is the modelled effect and row/column aliasing between the two
// banks' address ranges is immaterial. Requires at least two banks per DIMM.
func (m *Mapper) SetBankSpare(channel, dimm, bank int) {
	if m.cfg.BanksPerDIMM < 2 {
		panic("addrmap: bank sparing requires at least two banks per DIMM")
	}
	if channel < 0 || channel >= m.cfg.LogicalChannels ||
		dimm < 0 || dimm >= m.cfg.DIMMsPerChannel ||
		bank < 0 || bank >= m.cfg.BanksPerDIMM {
		panic(fmt.Sprintf("addrmap: spare target ch%d/dimm%d/bank%d out of range", channel, dimm, bank))
	}
	m.spareOn = true
	m.spareCh, m.spareDIMM, m.spareBank = channel, dimm, bank
}

// Remapped reports whether addr's access is being steered away from a dead
// bank by the configured spare (always false without one).
func (m *Mapper) Remapped(addr int64) bool {
	if !m.spareOn {
		return false
	}
	loc := m.mapRaw(addr)
	return loc.Channel == m.spareCh && loc.DIMM == m.spareDIMM && loc.Bank == m.spareBank
}

// RegionLines is the prefetch group size K under the current scheme
// (1 when the scheme does not define regions).
func (m *Mapper) RegionLines() int { return int(m.regionLines) }

// RegionID returns a unique identifier of the prefetch group containing
// addr. Addresses in the same group share DRAM row and bank.
func (m *Mapper) RegionID(addr int64) int64 {
	return m.lineIndex(addr) >> m.unitBits
}

// Group enumerates the line addresses the AMB fetches for a demand access to
// addr, demanded line first.
//
// Under multi-cacheline interleaving this is the full K-line region
// (Figure 2: demand on block 6 fetches blocks 6, 4, 5, 7). Under page
// interleaving it is the K-line window [N-1, N+2] clipped to the page, as
// Section 3.2 describes. Under cacheline interleaving it is the demanded
// line alone.
func (m *Mapper) Group(addr int64) []int64 {
	return m.AppendGroup(make([]int64, 0, m.groupLines()), addr)
}

// AppendGroup appends Group(addr) to dst and returns the extended slice;
// with a dst of capacity K it allocates nothing.
func (m *Mapper) AppendGroup(dst []int64, addr int64) []int64 {
	demanded := m.LineAddr(addr)
	lb := int64(m.cfg.LineBytes)
	dst = append(dst, demanded)
	switch m.cfg.Interleave {
	case config.MultiCachelineInterleave:
		base := demanded &^ (m.regionLines*lb - 1)
		for i := int64(0); i < m.regionLines; i++ {
			if a := base + i*lb; a != demanded {
				dst = append(dst, a)
			}
		}
	case config.PageInterleave:
		k := m.groupLines()
		pageBytes := m.linesPerRow * lb
		pageBase := demanded &^ (pageBytes - 1)
		start := demanded - lb // block N-1 first, then N+1, N+2, ...
		if start < pageBase {
			start = demanded
		}
		for a, n := start, 1; n < k; a += lb {
			if a == demanded {
				continue
			}
			if a < pageBase || a >= pageBase+pageBytes {
				break
			}
			dst = append(dst, a)
			n++
		}
	}
	return dst
}

// groupLines is the most lines a prefetch group holds.
func (m *Mapper) groupLines() int {
	if m.cfg.Interleave == config.PageInterleave {
		return max(m.cfg.RegionLines, 1)
	}
	return int(m.regionLines)
}

// LocalLineID returns a dense identifier of addr's cacheline *within its
// DIMM*: consecutive lines stored on one DIMM get consecutive IDs. The AMB
// cache must index its sets with this, not the raw line address — after
// interleaving strips lines across channels and DIMMs, the channel/DIMM
// bits of the raw address are constant for any one AMB and would alias
// every entry into a fraction of the sets.
func (m *Mapper) LocalLineID(addr int64) int64 {
	line := m.lineIndex(addr)
	return line>>(m.unitBits+m.chanBits+m.dimmBits)<<m.unitBits | line&mask(m.unitBits)
}

// SameRow reports whether two addresses map to the same row of the same
// bank (a row-buffer hit opportunity under open-page mode).
func (m *Mapper) SameRow(a, b int64) bool {
	la, lb := m.Map(a), m.Map(b)
	return la.Channel == lb.Channel && la.DIMM == lb.DIMM && la.Bank == lb.Bank && la.Row == lb.Row
}
