package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fbdsim/internal/config"
	"fbdsim/internal/trace"
)

func TestBasicHitMiss(t *testing.T) {
	c := New(4, 2, 64) // 4KB, 2-way, 32 sets
	if c.Access(0, false) {
		t.Fatal("cold cache must miss")
	}
	c.Fill(0, false)
	if !c.Access(0, false) {
		t.Fatal("filled line must hit")
	}
	if !c.Access(63, false) {
		t.Fatal("same line, different offset must hit")
	}
	if c.Access(64, false) {
		t.Fatal("next line must miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %g", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(4, 2, 64)
	sets := int64(c.Sets())
	// Two lines in set 0.
	a, b, d := int64(0), sets*64, 2*sets*64
	c.Fill(a, false)
	c.Fill(b, false)
	c.Access(a, false) // a is now MRU
	v := c.Fill(d, false)
	if !v.Valid || v.Addr != b {
		t.Errorf("evicted %+v, want LRU line %d", v, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("post-eviction residency wrong")
	}
}

func TestDirtyTracking(t *testing.T) {
	c := New(4, 1, 64)
	c.Fill(0, false)
	c.Access(0, true) // store dirties the line
	sets := int64(c.Sets())
	v := c.Fill(sets*64, false) // conflict: evicts line 0
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Errorf("victim = %+v, want dirty line 0", v)
	}
	if c.Stats.DirtyEvicts != 1 {
		t.Errorf("dirty evicts = %d", c.Stats.DirtyEvicts)
	}
}

func TestFillDirtyDirectly(t *testing.T) {
	c := New(4, 1, 64)
	c.Fill(0, true) // RFO fill
	sets := int64(c.Sets())
	v := c.Fill(sets*64, false)
	if !v.Dirty {
		t.Error("RFO-filled victim must be dirty")
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := New(4, 2, 64)
	c.Fill(0, false)
	v := c.Fill(0, true)
	if v.Valid {
		t.Error("refreshing a resident line must not evict")
	}
	// The refresh set the dirty bit.
	sets := int64(c.Sets())
	c.Fill(sets*64, false)
	victim := c.Fill(2*sets*64, false)
	if !victim.Dirty || victim.Addr != 0 {
		t.Errorf("victim = %+v, want dirty line 0", victim)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, 2, 64)
	c.Fill(0, false)
	c.Access(0, true)
	dirty, present := c.Invalidate(0)
	if !present || !dirty {
		t.Errorf("invalidate = dirty %v present %v", dirty, present)
	}
	if c.Contains(0) {
		t.Error("line still present")
	}
	if _, present := c.Invalidate(0); present {
		t.Error("second invalidate must miss")
	}
}

func TestPrefetchFillCounted(t *testing.T) {
	c := New(4, 2, 64)
	c.FillPrefetch(0)
	if c.Stats.PrefetchFills != 1 {
		t.Errorf("prefetch fills = %d", c.Stats.PrefetchFills)
	}
	if !c.Contains(0) {
		t.Error("prefetch fill must install the line")
	}
}

func TestGeometry(t *testing.T) {
	c := New(4096, 4, 64) // the shared L2 of Table 1
	if c.Sets() != 16384 || c.Ways() != 4 {
		t.Errorf("L2 geometry = %d sets x %d ways", c.Sets(), c.Ways())
	}
	c2 := New(64, 2, 64) // the L1D of Table 1
	if c2.Sets() != 512 || c2.Ways() != 2 {
		t.Errorf("L1 geometry = %d sets x %d ways", c2.Sets(), c2.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for i, f := range []func(){
		func() { New(3, 2, 64) },  // does not divide
		func() { New(96, 1, 64) }, // 1536 sets: not a power of two
	} {
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

// TestOccupancyAndConservation is a property test over random workloads.
func TestOccupancyAndConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(8, 2, 64)
		capacity := c.Sets() * c.Ways()
		fills := 0
		for i := 0; i < 400; i++ {
			addr := int64(rng.Intn(1024)) * 64
			switch rng.Intn(3) {
			case 0:
				c.Access(addr, rng.Intn(2) == 0)
			case 1:
				c.Fill(addr, false)
				fills++
			case 2:
				c.Invalidate(addr)
			}
			if c.Occupancy() > capacity {
				return false
			}
		}
		// A cache can never evict more lines than were filled.
		return c.Stats.Evictions <= int64(fills) &&
			c.Stats.DirtyEvicts <= c.Stats.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSetIsolation: filling one set never disturbs another.
func TestSetIsolation(t *testing.T) {
	c := New(8, 2, 64)
	c.Fill(64, false) // set 1
	sets := int64(c.Sets())
	for i := int64(0); i < 10; i++ {
		c.Fill(i*sets*64, false) // hammer set 0
	}
	if !c.Contains(64) {
		t.Error("set 0 pressure evicted a set-1 line")
	}
}

// BenchmarkAccess replays each program's own reference stream through a
// cache of the default L2's geometry, filling on every miss: the per-access
// cost of the cache layer under that program's locality. The stream is
// generated before the timer starts.
func BenchmarkAccess(b *testing.B) {
	l2 := config.Default().CPU
	for _, name := range trace.AllProgramNames() {
		b.Run(name, func(b *testing.B) {
			p, err := trace.ProfileFor(name)
			if err != nil {
				b.Fatal(err)
			}
			type ref struct {
				addr  int64
				write bool
			}
			g := trace.NewSynthetic(p, 0, 1)
			refs := make([]ref, 1<<18)
			var it trace.Item
			for i := range refs {
				g.Next(&it)
				refs[i] = ref{it.Addr, it.Op == trace.Store}
			}
			c := New(l2.L2KB, l2.L2Assoc, l2.LineBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := refs[i&(len(refs)-1)]
				if !c.Access(r.addr, r.write) {
					c.Fill(r.addr, r.write)
				}
			}
		})
	}
}

// refCache is the cache as it was before its frames folded the valid and
// dirty flags into the tag word: separate flag fields, and the same LRU
// victim scan. TestMatchesReference holds Cache to it step by step.
type refCache struct {
	sets, ways int
	lineBytes  int64
	data       []refLine
	tick       int64
	Stats      Stats
}

type refLine struct {
	tag          int64
	valid, dirty bool
	use          int64
}

func newRefCache(sizeKB, ways, lineBytes int) *refCache {
	sets := sizeKB * 1024 / (ways * lineBytes)
	return &refCache{sets: sets, ways: ways, lineBytes: int64(lineBytes), data: make([]refLine, sets*ways)}
}

func (c *refCache) set(addr int64) ([]refLine, int64) {
	la := addr &^ (c.lineBytes - 1)
	i := int((la/c.lineBytes)&int64(c.sets-1)) * c.ways
	return c.data[i : i+c.ways], la
}

func (c *refCache) Access(addr int64, write bool) bool {
	c.Stats.Accesses++
	set, la := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			c.tick++
			set[i].use = c.tick
			if write {
				set[i].dirty = true
			}
			return true
		}
	}
	c.Stats.Misses++
	return false
}

func (c *refCache) Contains(addr int64) bool {
	set, la := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr int64, dirty bool) Victim {
	set, la := c.set(addr)
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].use = c.tick
			if dirty {
				set[i].dirty = true
			}
			return Victim{}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].use < set[victim].use {
			victim = i
		}
	}
	out := Victim{}
	if set[victim].valid {
		out = Victim{Addr: set[victim].tag, Dirty: set[victim].dirty, Valid: true}
		c.Stats.Evictions++
		if out.Dirty {
			c.Stats.DirtyEvicts++
		}
	}
	set[victim] = refLine{tag: la, valid: true, dirty: dirty, use: c.tick}
	return out
}

func (c *refCache) FillPrefetch(addr int64) Victim {
	c.Stats.PrefetchFills++
	return c.Fill(addr, false)
}

func (c *refCache) Invalidate(addr int64) (wasDirty, wasPresent bool) {
	set, la := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].valid = false
			return set[i].dirty, true
		}
	}
	return false, false
}

func (c *refCache) Occupancy() int {
	n := 0
	for _, l := range c.data {
		if l.valid {
			n++
		}
	}
	return n
}

// TestMatchesReference drives Cache and refCache with the same random
// Access, Fill, FillPrefetch, Invalidate and Contains calls and requires
// the same answer, victim, Stats and Occupancy after every step. The
// addresses cover three times the capacity, including line 0 (whose
// folded tag word differs from an empty frame's only by the valid bit)
// and the PrewarmL2 placeholder region at 2^60, at every offset within a
// line; 4-byte lines leave no offset bit unused by the flags.
func TestMatchesReference(t *testing.T) {
	const prewarmBase = int64(1) << 60
	for _, lineBytes := range []int{4, 64} {
		for _, ways := range []int{1, 2, 4, 8, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				c, ref := New(1, ways, lineBytes), newRefCache(1, ways, lineBytes)
				lines := int64(c.Sets() * c.Ways())
				rng := rand.New(rand.NewSource(seed))
				addr := func() int64 {
					a := rng.Int63n(3*lines)*int64(lineBytes) + rng.Int63n(int64(lineBytes))
					switch rng.Intn(4) {
					case 0:
						return a % int64(lineBytes) // line 0
					case 1:
						return prewarmBase + a
					}
					return a
				}
				for step := 0; step < 4000; step++ {
					a := addr()
					var op string
					var got, want any
					switch rng.Intn(5) {
					case 0:
						w := rng.Intn(2) == 0
						op, got, want = fmt.Sprintf("Access(%#x, %v)", a, w), c.Access(a, w), ref.Access(a, w)
					case 1:
						d := rng.Intn(2) == 0
						op, got, want = fmt.Sprintf("Fill(%#x, %v)", a, d), c.Fill(a, d), ref.Fill(a, d)
					case 2:
						op, got, want = fmt.Sprintf("FillPrefetch(%#x)", a), c.FillPrefetch(a), ref.FillPrefetch(a)
					case 3:
						d1, p1 := c.Invalidate(a)
						d2, p2 := ref.Invalidate(a)
						op, got, want = fmt.Sprintf("Invalidate(%#x)", a), [2]bool{d1, p1}, [2]bool{d2, p2}
					case 4:
						op, got, want = fmt.Sprintf("Contains(%#x)", a), c.Contains(a), ref.Contains(a)
					}
					if got != want || c.Stats != ref.Stats || c.Occupancy() != ref.Occupancy() {
						t.Fatalf("%dB lines, %d-way, seed %d, step %d: %s = %+v, stats %+v, occupancy %d; reference %+v, stats %+v, occupancy %d",
							lineBytes, ways, seed, step, op, got, c.Stats, c.Occupancy(), want, ref.Stats, ref.Occupancy())
					}
				}
			}
		}
	}
}
