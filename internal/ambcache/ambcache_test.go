package ambcache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
)

// id derives the set-index key the way fbdchan does for a standalone cache
// (identity on the line number is fine for unit tests).
func id(lineAddr int64) int64 { return lineAddr / 64 }

func fill(c *Cache, lines ...int64) {
	for _, l := range lines {
		c.InsertPrefetch(l*64, id(l*64))
	}
}

// hits reports whether a demand read of lineAddr hits.
func hits(c *Cache, lineAddr int64) bool {
	_, hit := c.LookupRead(lineAddr, id(lineAddr))
	return hit
}

func TestBasicHitMiss(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	if hits(c, 64) {
		t.Fatal("empty cache must miss")
	}
	fill(c, 1)
	if !hits(c, 64) {
		t.Fatal("inserted line must hit")
	}
	if c.Stats.Reads != 2 || c.Stats.Hits != 1 || c.Stats.Prefetched != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if c.Stats.Coverage() != 0.5 || c.Stats.Efficiency() != 1.0 {
		t.Errorf("coverage %f efficiency %f", c.Stats.Coverage(), c.Stats.Efficiency())
	}
}

func TestFIFOEvictsInsertionOrderDespiteHits(t *testing.T) {
	c := New(2, config.FullAssoc, config.FIFO)
	fill(c, 1, 2)
	// Hit line 1 repeatedly; FIFO must still evict it first (the paper's
	// argument: a hit block now lives in the processor cache).
	for i := 0; i < 5; i++ {
		if !hits(c, 64) {
			t.Fatal("expected hit")
		}
	}
	evicted, was := c.InsertPrefetch(3*64, id(3*64))
	if !was || evicted != 64 {
		t.Errorf("FIFO evicted %d (was=%v), want line 1", evicted/64, was)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := New(2, config.FullAssoc, config.LRU)
	fill(c, 1, 2)
	c.LookupRead(64, id(64)) // touch line 1
	evicted, was := c.InsertPrefetch(3*64, id(3*64))
	if !was || evicted != 2*64 {
		t.Errorf("LRU evicted %d (was=%v), want line 2", evicted/64, was)
	}
}

func TestSetAssociativity(t *testing.T) {
	// 8 lines, 2-way: 4 sets. Lines with equal id mod 4 share a set.
	c := New(8, 2, config.FIFO)
	if c.Ways() != 2 || c.Lines() != 8 {
		t.Fatalf("geometry %d ways %d lines", c.Ways(), c.Lines())
	}
	fill(c, 0, 4, 8) // all set 0: third insert evicts line 0
	if c.Contains(0, id(0)) {
		t.Error("line 0 should be evicted from its set")
	}
	if !c.Contains(4*64, id(4*64)) || !c.Contains(8*64, id(8*64)) {
		t.Error("lines 4 and 8 should be resident")
	}
	// A different set is unaffected.
	fill(c, 1)
	if !c.Contains(64, id(64)) {
		t.Error("set 1 insert failed")
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
}

func TestFullAssocCapacity(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	fill(c, 10, 20, 30, 40)
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	evicted, was := c.InsertPrefetch(50*64, id(50*64))
	if !was || evicted != 10*64 {
		t.Errorf("evicted %d, want oldest (10)", evicted/64)
	}
	if c.Occupancy() != 4 {
		t.Errorf("occupancy after eviction = %d", c.Occupancy())
	}
}

func TestReinsertIsRefreshNotEviction(t *testing.T) {
	c := New(2, config.FullAssoc, config.FIFO)
	fill(c, 1, 2)
	if _, was := c.InsertPrefetch(64, id(64)); was {
		t.Error("reinserting a resident line must not evict")
	}
	if c.Occupancy() != 2 {
		t.Errorf("occupancy = %d", c.Occupancy())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	fill(c, 1, 2)
	if !c.Invalidate(64, id(64)) {
		t.Fatal("invalidate of resident line")
	}
	if c.Invalidate(64, id(64)) {
		t.Fatal("second invalidate must report absent")
	}
	if c.Contains(64, id(64)) {
		t.Fatal("line still resident after invalidate")
	}
	if c.Stats.Invalidations != 1 {
		t.Errorf("invalidations = %d", c.Stats.Invalidations)
	}
	// The freed frame is reused before any eviction.
	fill(c, 3)
	if c.Stats.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", c.Stats.Evictions)
	}
}

// TestScrub: a soft-error scrub removes the line like Invalidate but books
// the loss separately, so fault sweeps can tell scrubs from demand-hit
// consumption.
func TestScrub(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	fill(c, 1, 2)
	if !c.Scrub(64, id(64)) {
		t.Fatal("scrubbing a present line must report true")
	}
	if c.Scrub(64, id(64)) {
		t.Fatal("scrubbing an absent line must report false")
	}
	if c.Contains(64, id(64)) {
		t.Error("scrubbed line still present")
	}
	if !c.Contains(2*64, id(2*64)) {
		t.Error("scrub must not disturb other lines")
	}
	if c.Stats.Scrubs != 1 {
		t.Errorf("Scrubs = %d, want 1", c.Stats.Scrubs)
	}
	if c.Stats.Invalidations != 0 {
		t.Errorf("scrub must not count as an invalidation, got %d", c.Stats.Invalidations)
	}
	if hits(c, 64) {
		t.Error("scrubbed line must miss on the next demand")
	}
}

func TestReset(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	fill(c, 1, 2, 3)
	c.LookupRead(64, id(64))
	c.Reset()
	if c.Occupancy() != 0 || c.Stats != (Stats{}) {
		t.Errorf("Reset left occupancy %d stats %+v", c.Occupancy(), c.Stats)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Hits: 2, Prefetched: 3, Evictions: 4, Invalidations: 5}
	b := Stats{Reads: 10, Hits: 20, Prefetched: 30, Evictions: 40, Invalidations: 50}
	a.Add(b)
	if a != (Stats{Reads: 11, Hits: 22, Prefetched: 33, Evictions: 44, Invalidations: 55}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestZeroDenominators(t *testing.T) {
	var s Stats
	if s.Coverage() != 0 || s.Efficiency() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, config.FullAssoc, config.FIFO) },
		func() { New(10, 4, config.FIFO) }, // 10 not divisible by 4
		func() { New(24, 2, config.FIFO) }, // 12 sets, not a power of two
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestOccupancyNeverExceedsCapacity is a property test across random
// operation sequences for several geometries and both policies.
func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geoms := []struct{ lines, assoc int }{
			{64, config.FullAssoc}, {64, 1}, {64, 2}, {64, 4}, {32, 2}, {128, 8},
		}
		g := geoms[rng.Intn(len(geoms))]
		repl := config.FIFO
		if rng.Intn(2) == 1 {
			repl = config.LRU
		}
		c := New(g.lines, g.assoc, repl)
		for i := 0; i < 500; i++ {
			line := int64(rng.Intn(4096)) * 64
			switch rng.Intn(3) {
			case 0:
				c.InsertPrefetch(line, id(line))
			case 1:
				c.LookupRead(line, id(line))
			case 2:
				c.Invalidate(line, id(line))
			}
			if c.Occupancy() > c.Lines() {
				return false
			}
		}
		// Conservation: hits can never exceed reads or prefetched count.
		return c.Stats.Hits <= c.Stats.Reads && c.Stats.Evictions <= c.Stats.Prefetched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestNoDuplicateEntries: inserting and looking up may never create two
// valid entries for one line.
func TestNoDuplicateEntries(t *testing.T) {
	c := New(8, 2, config.FIFO)
	for i := 0; i < 10; i++ {
		c.InsertPrefetch(4*64, id(4*64))
	}
	count := 0
	for p, e := range c.entries {
		if valid(c, p) && e.addr == 4*64 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("line present %d times", count)
	}
}

// valid reports whether entry p of c holds a resident line.
func valid(c *Cache, p int) bool {
	set, way := p/c.ways, p%c.ways
	return c.free[set*c.words+way/64]&(1<<(way%64)) == 0
}

// refCache is the tag table as a linear scan over every way of a set: the
// specification the indexed Cache must match operation for operation. Its
// fills map is the pending-fill record the channel model once kept beside
// the table (a line gains one when inserted in transit and loses it when
// it lands, is evicted, invalidated or scrubbed).
type refCache struct {
	sets  int
	ways  int
	repl  config.Replacement
	data  [][]refEntry
	tick  int64
	fills map[int64]clock.Time
	Stats Stats
}

type refEntry struct {
	addr  int64
	valid bool
	seq   int64
	use   int64
}

func newRef(lines, assoc int, repl config.Replacement) *refCache {
	ways := assoc
	if assoc == config.FullAssoc || assoc >= lines {
		ways = lines
	}
	r := &refCache{sets: lines / ways, ways: ways, repl: repl, fills: map[int64]clock.Time{}}
	r.data = make([][]refEntry, r.sets)
	for i := range r.data {
		r.data[i] = make([]refEntry, ways)
	}
	return r
}

func (r *refCache) set(localID int64) []refEntry { return r.data[localID&int64(r.sets-1)] }

func (r *refCache) lookupRead(lineAddr, localID int64) (clock.Time, bool) {
	r.Stats.Reads++
	set := r.set(localID)
	for i := range set {
		if set[i].valid && set[i].addr == lineAddr {
			r.tick++
			set[i].use = r.tick
			r.Stats.Hits++
			return r.fills[lineAddr], true
		}
	}
	return 0, false
}

func (r *refCache) contains(lineAddr, localID int64) bool {
	for _, e := range r.set(localID) {
		if e.valid && e.addr == lineAddr {
			return true
		}
	}
	return false
}

func (r *refCache) insert(lineAddr, localID int64, fillAt clock.Time) (evicted int64, wasEvicted bool) {
	r.Stats.Prefetched++
	set := r.set(localID)
	r.tick++
	defer func() {
		if fillAt != 0 {
			r.fills[lineAddr] = fillAt
		} else {
			delete(r.fills, lineAddr)
		}
	}()
	for i := range set {
		if set[i].valid && set[i].addr == lineAddr {
			set[i].use = r.tick
			return 0, false
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			a, b := set[i].seq, set[victim].seq
			if r.repl == config.LRU {
				a, b = set[i].use, set[victim].use
			}
			if a < b {
				victim = i
			}
		}
		evicted, wasEvicted = set[victim].addr, true
		delete(r.fills, evicted)
		r.Stats.Evictions++
	}
	set[victim] = refEntry{addr: lineAddr, valid: true, seq: r.tick, use: r.tick}
	return evicted, wasEvicted
}

func (r *refCache) drop(lineAddr, localID int64, count *int64) bool {
	set := r.set(localID)
	for i := range set {
		if set[i].valid && set[i].addr == lineAddr {
			set[i].valid = false
			delete(r.fills, lineAddr)
			*count++
			return true
		}
	}
	return false
}

func (r *refCache) housekeep(horizon clock.Time) {
	for line, at := range r.fills {
		if at <= horizon {
			delete(r.fills, line)
		}
	}
}

func (r *refCache) occupancy() int {
	n := 0
	for _, set := range r.data {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}

// order returns set's valid lines, next victim first: by insertion
// (FIFO) or by last touch (LRU). Ticks are unique, so the order is total.
func (r *refCache) order(set int) []int64 {
	var live []refEntry
	for _, e := range r.data[set] {
		if e.valid {
			live = append(live, e)
		}
	}
	rank := func(e refEntry) int64 {
		if r.repl == config.LRU {
			return e.use
		}
		return e.seq
	}
	slices.SortFunc(live, func(a, b refEntry) int { return cmp.Compare(rank(a), rank(b)) })
	lines := make([]int64, len(live))
	for i, e := range live {
		lines[i] = e.addr
	}
	return lines
}

// listOrder returns set's replacement-order list, head to tail, failing if
// a back link or the tail disagrees with the forward walk.
func listOrder(t *testing.T, c *Cache, set int) []int64 {
	t.Helper()
	var lines []int64
	prev := int32(none)
	for p := c.orders[set].head; p != none; p = c.entries[p].next {
		if c.entries[p].prev != prev {
			t.Fatalf("set %d: entry %d links back to %d, want %d", set, p, c.entries[p].prev, prev)
		}
		lines = append(lines, c.entries[p].addr)
		prev = p
	}
	if c.orders[set].tail != prev {
		t.Fatalf("set %d: tail %d, list ends at %d", set, c.orders[set].tail, prev)
	}
	return lines
}

// sortedFills returns the cache's pending fills in line order.
func sortedFills(c *Cache) []Fill {
	fills := c.AppendFills(nil)
	slices.SortFunc(fills, func(a, b Fill) int { return cmp.Compare(a.Line, b.Line) })
	return fills
}

// TestMatchesLinearScanReference drives the indexed tag table and the
// linear-scan reference through the same random operations — demand
// lookups, prefetch installs with and without fill times, invalidations,
// scrubs and housekeeping — over every geometry the experiments use and
// both policies, and requires identical answers and identical state after
// every step: the residency of every line, the pending fills, and each
// set's replacement order, which must rank the lines as the reference's
// insertion (FIFO) or last-touch (LRU) ticks do. No workload runs LRU and
// the benchmark runs no set-associative geometry, so this is their oracle.
func TestMatchesLinearScanReference(t *testing.T) {
	geoms := []struct{ lines, assoc int }{
		{64, config.FullAssoc}, {64, 1}, {64, 2}, {64, 4}, {32, 2}, {128, config.FullAssoc}, {128, 8},
	}
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	for gi, g := range geoms {
		for _, repl := range []config.Replacement{config.FIFO, config.LRU} {
			t.Run(fmt.Sprintf("%d-lines-assoc-%d-%v", g.lines, g.assoc, repl), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(gi*2 + int(repl) + 1)))
				c, r := New(g.lines, g.assoc, repl), newRef(g.lines, g.assoc, repl)
				var now clock.Time
				for step := 0; step < steps; step++ {
					// Four times as many lines as entries: hits, misses and
					// evictions all stay common.
					line := int64(rng.Intn(4*g.lines)) * 64
					local := id(line)
					now += clock.Time(rng.Intn(8))
					switch op := rng.Intn(18); {
					case op < 6:
						gotAt, got := c.LookupRead(line, local)
						wantAt, want := r.lookupRead(line, local)
						if got != want || gotAt != wantAt {
							t.Fatalf("step %d: LookupRead(%#x) = %v, %v; reference %v, %v", step, line, gotAt, got, wantAt, want)
						}
					case op < 12:
						var at clock.Time
						if op >= 9 {
							at = now + clock.Time(1+rng.Intn(40))
						}
						gotEv, got := c.InsertPrefetchAt(line, local, at)
						wantEv, want := r.insert(line, local, at)
						if got != want || gotEv != wantEv {
							t.Fatalf("step %d: InsertPrefetchAt(%#x, %v) evicted %#x, %v; reference %#x, %v", step, line, at, gotEv, got, wantEv, want)
						}
					case op < 14:
						if got, want := c.Invalidate(line, local), r.drop(line, local, &r.Stats.Invalidations); got != want {
							t.Fatalf("step %d: Invalidate(%#x) = %v, reference %v", step, line, got, want)
						}
					case op < 15:
						if got, want := c.Scrub(line, local), r.drop(line, local, &r.Stats.Scrubs); got != want {
							t.Fatalf("step %d: Scrub(%#x) = %v, reference %v", step, line, got, want)
						}
					default:
						c.Housekeep(now)
						r.housekeep(now)
					}
					if c.Stats != r.Stats {
						t.Fatalf("step %d: stats %+v, reference %+v", step, c.Stats, r.Stats)
					}
					for l := int64(0); l < int64(4*g.lines); l++ {
						if got, want := c.Contains(l*64, id(l*64)), r.contains(l*64, id(l*64)); got != want {
							t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, l*64, got, want)
						}
					}
					if got, want := c.Occupancy(), r.occupancy(); got != want {
						t.Fatalf("step %d: occupancy %d, reference %d", step, got, want)
					}
					for set := range r.data {
						if got, want := listOrder(t, c, set), r.order(set); !slices.Equal(got, want) {
							t.Fatalf("step %d: set %d replacement order %#x, reference %#x", step, set, got, want)
						}
					}
					fills := sortedFills(c)
					if len(fills) != len(r.fills) {
						t.Fatalf("step %d: %d pending fills, reference %d", step, len(fills), len(r.fills))
					}
					for _, f := range fills {
						if at, ok := r.fills[f.Line]; !ok || at != f.At {
							t.Fatalf("step %d: line %#x lands at %v, reference %v (pending %v)", step, f.Line, f.At, at, ok)
						}
					}
				}
				if c.Stats.Evictions == 0 || c.Stats.Hits == 0 {
					t.Fatalf("sequence too tame: stats %+v", c.Stats)
				}
			})
		}
	}
}

// missStream returns n line addresses drawn from a range 64 times the
// default cache's capacity, so nearly every access misses.
func missStream(n int) []int64 {
	rng := rand.New(rand.NewSource(1))
	lines := make([]int64, n)
	for i := range lines {
		lines[i] = int64(rng.Intn(64*64)) * 64
	}
	return lines
}

// fullDefault returns the paper's default table (64 entries, fully
// associative, FIFO), filled.
func fullDefault() *Cache {
	c := New(64, config.FullAssoc, config.FIFO)
	for l := int64(0); l < 64; l++ {
		c.InsertPrefetch(l*64, id(l*64))
	}
	return c
}

func BenchmarkLookupRead(b *testing.B) {
	c, lines := fullDefault(), missStream(1<<12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lines[i&(len(lines)-1)]
		c.LookupRead(l, id(l))
	}
}

func BenchmarkInsertPrefetch(b *testing.B) {
	c, lines := fullDefault(), missStream(1<<12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lines[i&(len(lines)-1)]
		c.InsertPrefetch(l, id(l))
	}
}
