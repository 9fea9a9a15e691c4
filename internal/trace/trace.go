// Package trace produces the instruction/memory-reference streams that
// drive the core model. The paper runs SimPoint-selected slices of twelve
// memory-intensive SPEC2000 programs on Alpha binaries with compiler
// software prefetching; we cannot ship those, so each program is replaced
// by a deterministic synthetic generator whose memory behaviour — miss
// intensity, number of concurrent streams, spatial locality, store share,
// and software-prefetch coverage — is parameterized to match the program's
// published character (see Profile and DESIGN.md §2).
package trace

import "fmt"

// Op is the kind of a memory reference in the trace.
type Op int

const (
	// Load blocks commit until its data returns.
	Load Op = iota
	// Store commits immediately; the hierarchy handles it write-allocate.
	Store
	// Prefetch is a software prefetch instruction: when executed it warms
	// the L2 without ever blocking; when software prefetching is disabled
	// the simulator treats it as a NOP (Section 5.4).
	Prefetch
)

func (o Op) String() string {
	switch o {
	case Load:
		return "load"
	case Store:
		return "store"
	case Prefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Item is one memory reference plus the count of non-memory instructions
// that precede it in program order.
type Item struct {
	Gap  int // non-memory instructions before this op
	Op   Op
	Addr int64
	// Dep marks a load whose address depends on the previous load's data
	// (pointer chasing, indirection); it cannot issue until that load
	// completes. Dependence is what makes real cores sensitive to memory
	// latency despite deep reordering.
	Dep bool
}

// Generator produces an unbounded instruction stream.
type Generator interface {
	// Next overwrites *Item with the next reference.
	Next(*Item)
}

// Profile characterizes one benchmark's memory behaviour.
type Profile struct {
	Name string

	// MemRatio is the fraction of (non-prefetch) instructions that are
	// loads or stores.
	MemRatio float64
	// StoreRatio is the fraction of memory references that are stores.
	StoreRatio float64

	// HotFrac, StreamFrac: fraction of references to a small cache-resident
	// hot set and to sequential streams; the remainder are uniform random
	// over the footprint (pointer chasing). Hot references mostly hit in
	// L1/L2; stream references miss once per new cacheline; random
	// references almost always miss.
	HotFrac    float64
	StreamFrac float64

	// Streams is the number of concurrent sequential access streams.
	Streams int
	// StrideBytes is the distance between consecutive references of one
	// stream (8 B for unit-stride FP loops).
	StrideBytes int64

	// FootprintMB is the per-core working set; far above the L2 so that
	// streams and random references miss.
	FootprintMB int

	// SegKB is the length of one sequential stream segment before the
	// stream jumps to a new random position (0 = the 512 KB default).
	// Small segments over a small footprint produce the loop-and-revisit
	// behaviour of cache-resident codes like art.
	SegKB int
	// HotKB sizes the heavily-reused hot region (0 = the 48 KB default,
	// which lives in the L1). A multi-MB value models a working set that
	// fits one L2 size but not another — art's defining property.
	HotKB int

	// DepFrac is the probability that a hot or stream load depends on the
	// previous load (address arithmetic chains); pointer-chasing random
	// loads are almost always dependent regardless.
	DepFrac float64

	// SWPrefetchCoverage is the probability that a stream reference
	// entering a new cacheline is preceded by a compiler-inserted
	// prefetch; integer benchmarks have little or none.
	SWPrefetchCoverage float64
	// PrefetchDistanceLines is how many cachelines ahead those prefetches
	// reach.
	PrefetchDistanceLines int64
}

// Profiles returns the twelve benchmark profiles of Table 3. The absolute
// values are calibrated so that relative intensity and locality across the
// programs track their published SPEC2000 behaviour: the FP streaming codes
// (swim, applu, lucas, equake, mgrid) are the most memory-intensive with
// strong spatial locality and high compiler-prefetch coverage; the integer
// codes (vpr, parser, gap, vortex) have lower intensity, poorer spatial
// locality, and little software prefetching.
func Profiles() map[string]Profile {
	list := []Profile{
		{Name: "wupwise", MemRatio: 0.24, StoreRatio: 0.28, HotFrac: 0.70, StreamFrac: 0.27, Streams: 4, StrideBytes: 8, FootprintMB: 176, DepFrac: 0.15, SWPrefetchCoverage: 0.55, PrefetchDistanceLines: 8},
		{Name: "swim", MemRatio: 0.30, StoreRatio: 0.30, HotFrac: 0.29, StreamFrac: 0.70, Streams: 6, StrideBytes: 8, FootprintMB: 192, DepFrac: 0.10, SWPrefetchCoverage: 0.75, PrefetchDistanceLines: 8},
		{Name: "mgrid", MemRatio: 0.28, StoreRatio: 0.22, HotFrac: 0.54, StreamFrac: 0.44, Streams: 8, StrideBytes: 8, FootprintMB: 56, DepFrac: 0.15, SWPrefetchCoverage: 0.65, PrefetchDistanceLines: 8},
		{Name: "applu", MemRatio: 0.28, StoreRatio: 0.28, HotFrac: 0.44, StreamFrac: 0.54, Streams: 6, StrideBytes: 8, FootprintMB: 180, DepFrac: 0.12, SWPrefetchCoverage: 0.65, PrefetchDistanceLines: 8},
		{Name: "vpr", MemRatio: 0.28, StoreRatio: 0.30, HotFrac: 0.86, StreamFrac: 0.10, Streams: 2, StrideBytes: 8, FootprintMB: 16, DepFrac: 0.45, SWPrefetchCoverage: 0.05, PrefetchDistanceLines: 4},
		{Name: "equake", MemRatio: 0.30, StoreRatio: 0.20, HotFrac: 0.42, StreamFrac: 0.46, Streams: 3, StrideBytes: 8, FootprintMB: 96, DepFrac: 0.20, SWPrefetchCoverage: 0.50, PrefetchDistanceLines: 8},
		{Name: "facerec", MemRatio: 0.26, StoreRatio: 0.22, HotFrac: 0.60, StreamFrac: 0.37, Streams: 4, StrideBytes: 8, FootprintMB: 64, DepFrac: 0.18, SWPrefetchCoverage: 0.55, PrefetchDistanceLines: 8},
		{Name: "lucas", MemRatio: 0.24, StoreRatio: 0.24, HotFrac: 0.36, StreamFrac: 0.62, Streams: 4, StrideBytes: 16, FootprintMB: 160, DepFrac: 0.10, SWPrefetchCoverage: 0.60, PrefetchDistanceLines: 8},
		{Name: "fma3d", MemRatio: 0.28, StoreRatio: 0.32, HotFrac: 0.64, StreamFrac: 0.30, Streams: 6, StrideBytes: 8, FootprintMB: 128, DepFrac: 0.22, SWPrefetchCoverage: 0.45, PrefetchDistanceLines: 6},
		{Name: "parser", MemRatio: 0.30, StoreRatio: 0.28, HotFrac: 0.88, StreamFrac: 0.08, Streams: 2, StrideBytes: 8, FootprintMB: 12, DepFrac: 0.50, SWPrefetchCoverage: 0.05, PrefetchDistanceLines: 4},
		{Name: "gap", MemRatio: 0.28, StoreRatio: 0.26, HotFrac: 0.80, StreamFrac: 0.16, Streams: 3, StrideBytes: 8, FootprintMB: 24, DepFrac: 0.35, SWPrefetchCoverage: 0.10, PrefetchDistanceLines: 4},
		{Name: "vortex", MemRatio: 0.30, StoreRatio: 0.32, HotFrac: 0.86, StreamFrac: 0.10, Streams: 3, StrideBytes: 8, FootprintMB: 16, DepFrac: 0.40, SWPrefetchCoverage: 0.08, PrefetchDistanceLines: 4},
	}
	// The two memory-intensive programs Section 4.2 deliberately excludes
	// from workload construction are still available for single runs:
	//
	//   - art: "very low miss rate with 4MB cache and very high miss rate
	//     with 2MB cache" — its ~3 MB working set sits right at the cliff,
	//     so it loops over a bounded footprint instead of streaming.
	//   - mcf: "very low IPC" — almost pure dependent pointer chasing over
	//     a large footprint.
	list = append(list,
		Profile{Name: "art", MemRatio: 0.30, StoreRatio: 0.16, HotFrac: 0.62, StreamFrac: 0.34, Streams: 4, StrideBytes: 8, FootprintMB: 3, SegKB: 64, HotKB: 2560, DepFrac: 0.15, SWPrefetchCoverage: 0.30, PrefetchDistanceLines: 6},
		Profile{Name: "mcf", MemRatio: 0.32, StoreRatio: 0.18, HotFrac: 0.40, StreamFrac: 0.05, Streams: 2, StrideBytes: 8, FootprintMB: 160, DepFrac: 0.75, SWPrefetchCoverage: 0.02, PrefetchDistanceLines: 4},
	)
	m := make(map[string]Profile, len(list))
	for _, p := range list {
		m[p.Name] = p
	}
	return m
}

// BenchmarkNames returns the twelve program names the paper's workloads
// draw from, in the paper's order. See AllProgramNames for the full set
// including the two excluded programs.
func BenchmarkNames() []string {
	return []string{
		"wupwise", "swim", "mgrid", "applu", "vpr", "equake",
		"facerec", "lucas", "fma3d", "parser", "gap", "vortex",
	}
}

// AllProgramNames returns every available profile: the twelve workload
// programs plus art and mcf, which Section 4.2 excludes from Table 3 but
// which remain runnable individually.
func AllProgramNames() []string {
	return append(BenchmarkNames(), "art", "mcf")
}

// ProfileFor returns the named profile or an error listing valid names.
func ProfileFor(name string) (Profile, error) {
	p, ok := Profiles()[name]
	if !ok {
		return Profile{}, fmt.Errorf("trace: unknown benchmark %q (valid: %v)", name, BenchmarkNames())
	}
	return p, nil
}

// rng is a SplitMix64 generator: tiny, fast and deterministic.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// stream is one sequential access stream walking a segment of the
// footprint.
type stream struct {
	pos    int64
	segEnd int64
	lastPF int64 // last line already covered by an emitted prefetch
}

// Synthetic generates references for one Profile. It is not goroutine-safe;
// each core owns its own instance.
type Synthetic struct {
	p        Profile
	r        rng
	base     int64 // address-space offset isolating this core
	foot     int64
	hotBytes int64
	streams  []stream
	segBytes int64

	// gapCDF[n] is the probability that a gap is at most n instructions,
	// summed term by term in index order: each entry's rounding decides the
	// gap of a draw that falls next to it, so the order is part of every
	// trace. gapGuide[k] is the first n whose gapCDF[n] reaches
	// k/gapGuideSize: a draw of u in [k, k+1)/gapGuideSize cannot land
	// before it. noGap marks a profile whose every instruction is a memory
	// reference; its gaps take no random draw.
	gapCDF   [maxGap + 1]float64
	gapGuide [gapGuideSize]uint8
	noGap    bool

	// queued prefetch to emit before the upcoming access.
	pending    Item
	hasPending bool
}

const (
	// maxGap caps a drawn gap, so pathological draws cannot stall
	// progress measurement.
	maxGap = 64
	// gapGuideSize is the number of equal slices of [0, 1) the guide table
	// gives a starting point for.
	gapGuideSize = 256
)

// AddressSpaceStride separates per-core address spaces so multiprogrammed
// workloads never share data, matching the paper's distinct-application
// cores.
const AddressSpaceStride int64 = 1 << 40

// NewSynthetic builds the generator for profile p, core index core, and a
// seed that perturbs every random choice.
func NewSynthetic(p Profile, core int, seed int64) *Synthetic {
	g := &Synthetic{
		p:        p,
		r:        rng{state: uint64(seed)*0x9E3779B97F4A7C15 + uint64(core+1)*0xD1B54A32D192ED03},
		base:     int64(core) * AddressSpaceStride,
		foot:     int64(p.FootprintMB) << 20,
		hotBytes: 48 << 10, // mostly L1-resident hot set
		segBytes: 512 << 10,
	}
	if p.SegKB > 0 {
		g.segBytes = int64(p.SegKB) << 10
	}
	if p.HotKB > 0 {
		g.hotBytes = int64(p.HotKB) << 10
	}
	g.streams = make([]stream, p.Streams)
	for i := range g.streams {
		g.resetStream(&g.streams[i])
	}
	g.buildGapTable()
	return g
}

// buildGapTable tabulates the geometric gap distribution, mean
// 1/MemRatio - 1, and its guide table.
func (g *Synthetic) buildGapTable() {
	mean := 1/g.p.MemRatio - 1
	if mean <= 0 {
		g.noGap = true
		return
	}
	p := 1 / (mean + 1)
	acc := p
	g.gapCDF[0] = acc
	for n := 1; n <= maxGap; n++ {
		acc += p * pow1mp(p, n)
		g.gapCDF[n] = acc
	}
	n := 0
	for k := range g.gapGuide {
		for n < maxGap && g.gapCDF[n] < float64(k)/gapGuideSize {
			n++
		}
		g.gapGuide[k] = uint8(n)
	}
}

func (g *Synthetic) resetStream(s *stream) {
	start := g.r.intn(g.foot-g.segBytes) &^ 63
	s.pos = start
	s.segEnd = start + g.segBytes
	s.lastPF = -1
}

// Next implements Generator.
func (g *Synthetic) Next(it *Item) {
	if g.hasPending {
		*it = g.pending
		g.hasPending = false
		return
	}
	it.Gap = g.gap()
	it.Op = Load
	if g.r.float() < g.p.StoreRatio {
		it.Op = Store
	}

	x := g.r.float()
	switch {
	case x < g.p.HotFrac:
		it.Addr = g.base + g.r.intn(g.hotBytes)&^7
		it.Dep = it.Op == Load && g.r.float() < g.p.DepFrac
	case x < g.p.HotFrac+g.p.StreamFrac:
		it.Dep = it.Op == Load && g.r.float() < g.p.DepFrac
		it.Addr = g.streamRef(it)
	default:
		// Pointer-chasing: a random word anywhere in the footprint,
		// whose address came from the previous load.
		it.Addr = g.base + g.r.intn(g.foot)&^7
		it.Dep = it.Op == Load && g.r.float() < 0.85
	}
}

// streamRef advances one stream and possibly schedules a software prefetch
// to be emitted immediately before the access. Stores walk a dedicated
// subset of the streams (FP loops read from some arrays and write to
// others), so only those streams' lines come back dirty.
func (g *Synthetic) streamRef(it *Item) int64 {
	var s *stream
	if nStore := (len(g.streams) + 2) / 3; it.Op == Store {
		s = &g.streams[g.r.intn(int64(nStore))]
	} else {
		s = &g.streams[int64(nStore)+g.r.intn(int64(len(g.streams)-nStore))]
	}
	addr := s.pos
	s.pos += g.p.StrideBytes
	if s.pos >= s.segEnd {
		g.resetStream(s)
	}
	line := addr >> 6
	if line != s.lastPF && g.p.SWPrefetchCoverage > 0 && g.r.float() < g.p.SWPrefetchCoverage {
		// New line: emit "prefetch addr + D lines" ahead of the access.
		s.lastPF = line
		g.pending = *it
		g.pending.Addr = g.base + addr
		g.hasPending = true
		it.Gap = 0
		it.Op = Prefetch
		it.Dep = false
		return g.base + addr + g.p.PrefetchDistanceLines*64
	}
	return g.base + addr
}

// gap draws the non-memory instruction count before the next reference,
// geometric with mean 1/MemRatio - 1.
func (g *Synthetic) gap() int {
	if g.noGap {
		return 0
	}
	return g.gapFor(g.r.float())
}

// gapFor is the inverse-CDF draw for u in [0, 1): the first n whose
// gapCDF[n] reaches u, or maxGap when none does.
func (g *Synthetic) gapFor(u float64) int {
	n := int(g.gapGuide[int(u*gapGuideSize)])
	for n < maxGap && g.gapCDF[n] < u {
		n++
	}
	return n
}

func pow1mp(p float64, n int) float64 {
	q := 1 - p
	out := 1.0
	for i := 0; i < n; i++ {
		out *= q
	}
	return out
}
