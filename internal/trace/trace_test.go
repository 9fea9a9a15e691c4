package trace

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	names := BenchmarkNames()
	if len(names) != 12 {
		t.Fatalf("benchmark count = %d, want the paper's 12", len(names))
	}
	for _, n := range names {
		p, ok := ps[n]
		if !ok {
			t.Errorf("missing profile %q", n)
			continue
		}
		if p.Name != n {
			t.Errorf("profile %q has Name %q", n, p.Name)
		}
		if p.MemRatio <= 0 || p.MemRatio >= 1 {
			t.Errorf("%s: MemRatio %f out of range", n, p.MemRatio)
		}
		if p.StoreRatio < 0 || p.StoreRatio > 1 {
			t.Errorf("%s: StoreRatio %f", n, p.StoreRatio)
		}
		if p.HotFrac+p.StreamFrac > 1 {
			t.Errorf("%s: fractions exceed 1", n)
		}
		if p.Streams < 1 || p.StrideBytes < 8 || p.FootprintMB < 1 {
			t.Errorf("%s: degenerate geometry %+v", n, p)
		}
		if p.SWPrefetchCoverage < 0 || p.SWPrefetchCoverage > 1 {
			t.Errorf("%s: prefetch coverage %f", n, p.SWPrefetchCoverage)
		}
	}
}

func TestFPCodesMoreStreamingThanINT(t *testing.T) {
	ps := Profiles()
	for _, fp := range []string{"swim", "applu", "lucas"} {
		for _, in := range []string{"vpr", "parser", "vortex"} {
			if ps[fp].StreamFrac <= ps[in].StreamFrac {
				t.Errorf("%s should stream more than %s", fp, in)
			}
			if ps[fp].SWPrefetchCoverage <= ps[in].SWPrefetchCoverage {
				t.Errorf("%s should have more compiler prefetching than %s", fp, in)
			}
		}
	}
}

func TestProfileForUnknown(t *testing.T) {
	if _, err := ProfileFor("quake3"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := ProfileFor("swim"); err != nil {
		t.Fatalf("swim: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ProfileFor("equake")
	a := NewSynthetic(p, 2, 99)
	b := NewSynthetic(p, 2, 99)
	var ia, ib Item
	for i := 0; i < 20000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("diverged at item %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestSeedAndCoreChangeStream(t *testing.T) {
	p, _ := ProfileFor("equake")
	base := NewSynthetic(p, 0, 1)
	seed := NewSynthetic(p, 0, 2)
	core := NewSynthetic(p, 1, 1)
	same := 0
	var a, b, c Item
	for i := 0; i < 1000; i++ {
		base.Next(&a)
		seed.Next(&b)
		core.Next(&c)
		if a == b && a == c {
			same++
		}
	}
	if same > 900 {
		t.Errorf("streams barely differ across seed/core (%d/1000 identical)", same)
	}
}

func TestAddressesStayInCoreSpace(t *testing.T) {
	p, _ := ProfileFor("swim")
	for _, core := range []int{0, 3} {
		g := NewSynthetic(p, core, 7)
		base := int64(core) * AddressSpaceStride
		limit := base + AddressSpaceStride
		var it Item
		for i := 0; i < 50000; i++ {
			g.Next(&it)
			// Prefetch targets may run a few lines past a stream segment
			// but never out of the core's space.
			if it.Addr < base || it.Addr >= limit {
				t.Fatalf("item %d address %#x outside core %d space", i, it.Addr, core)
			}
		}
	}
}

func TestMemRatioApproximatelyHonored(t *testing.T) {
	p, _ := ProfileFor("swim")
	g := NewSynthetic(p, 0, 5)
	var it Item
	insts, memOps := 0, 0
	for i := 0; i < 200000; i++ {
		g.Next(&it)
		insts += it.Gap
		if it.Op != Prefetch {
			insts++
			memOps++
		} else {
			insts++ // prefetch is an instruction too
		}
	}
	got := float64(memOps) / float64(insts)
	// Prefetch instructions dilute the ratio somewhat; allow a band.
	if got < p.MemRatio*0.6 || got > p.MemRatio*1.3 {
		t.Errorf("memory ratio = %.3f, profile %.3f", got, p.MemRatio)
	}
}

func TestStoreRatioApproximatelyHonored(t *testing.T) {
	p, _ := ProfileFor("vortex")
	g := NewSynthetic(p, 0, 5)
	var it Item
	loads, stores := 0, 0
	for i := 0; i < 100000; i++ {
		g.Next(&it)
		switch it.Op {
		case Load:
			loads++
		case Store:
			stores++
		}
	}
	got := float64(stores) / float64(loads+stores)
	if got < p.StoreRatio-0.05 || got > p.StoreRatio+0.05 {
		t.Errorf("store ratio = %.3f, profile %.3f", got, p.StoreRatio)
	}
}

func TestPrefetchPrecedesItsLoad(t *testing.T) {
	p, _ := ProfileFor("swim")
	g := NewSynthetic(p, 0, 11)
	var it Item
	var lastPF Item
	havePF := false
	checked := 0
	for i := 0; i < 100000 && checked < 200; i++ {
		g.Next(&it)
		if it.Op == Prefetch {
			lastPF = it
			havePF = true
			continue
		}
		if havePF {
			// The prefetch reaches PrefetchDistanceLines ahead of the
			// access that follows it.
			d := lastPF.Addr - it.Addr
			if d != p.PrefetchDistanceLines*64 {
				t.Fatalf("prefetch distance = %d bytes, want %d", d, p.PrefetchDistanceLines*64)
			}
			checked++
			havePF = false
		}
	}
	if checked == 0 {
		t.Fatal("no prefetch pairs observed")
	}
}

func TestPrefetchNeverDependent(t *testing.T) {
	p, _ := ProfileFor("swim")
	g := NewSynthetic(p, 0, 13)
	var it Item
	for i := 0; i < 100000; i++ {
		g.Next(&it)
		if it.Op == Prefetch && it.Dep {
			t.Fatal("prefetch marked dependent")
		}
		if it.Op == Store && it.Dep {
			t.Fatal("store marked dependent")
		}
	}
}

func TestIntegerCodesMoreDependent(t *testing.T) {
	count := func(name string) float64 {
		p, _ := ProfileFor(name)
		g := NewSynthetic(p, 0, 3)
		var it Item
		deps, loads := 0, 0
		for i := 0; i < 100000; i++ {
			g.Next(&it)
			if it.Op == Load {
				loads++
				if it.Dep {
					deps++
				}
			}
		}
		return float64(deps) / float64(loads)
	}
	if count("parser") <= count("swim") {
		t.Error("parser (pointer code) should have more dependent loads than swim")
	}
}

func TestWordAlignment(t *testing.T) {
	p, _ := ProfileFor("gap")
	g := NewSynthetic(p, 0, 17)
	f := func(n uint16) bool {
		var it Item
		for i := 0; i <= int(n%64); i++ {
			g.Next(&it)
		}
		return it.Addr%8 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Prefetch.String() != "prefetch" {
		t.Error("op strings")
	}
	if Op(9).String() == "" {
		t.Error("unknown op must print")
	}
}

func TestExcludedProgramsAvailableButNotInWorkloads(t *testing.T) {
	for _, name := range []string{"art", "mcf"} {
		if _, err := ProfileFor(name); err != nil {
			t.Errorf("%s must be runnable: %v", name, err)
		}
		for _, wl := range BenchmarkNames() {
			if wl == name {
				t.Errorf("%s must not be in the Table 3 pool", name)
			}
		}
	}
	if got := len(AllProgramNames()); got != 14 {
		t.Errorf("AllProgramNames = %d entries, want 14", got)
	}
}

func TestMCFIsDependencyBound(t *testing.T) {
	ps := Profiles()
	for _, other := range BenchmarkNames() {
		if ps["mcf"].DepFrac <= ps[other].DepFrac && other != "parser" {
			t.Errorf("mcf should be the most dependent (vs %s)", other)
		}
	}
	if ps["mcf"].DepFrac <= ps["parser"].DepFrac {
		t.Error("mcf should exceed even parser")
	}
}

func TestArtFootprintNearL2Cliff(t *testing.T) {
	p, _ := ProfileFor("art")
	// The footprint must sit between the paper's 2MB and 4MB cliff edges.
	if p.FootprintMB < 2 || p.FootprintMB > 4 {
		t.Errorf("art footprint %dMB misses the 2-4MB cliff", p.FootprintMB)
	}
}

// refGap is the gap draw as the generator made it before the gap table:
// the inverse-CDF loop that rebuilds the geometric CDF term by term on
// every draw. It is the reference the table-driven draw must reproduce.
func refGap(prof Profile, u float64) int {
	mean := 1/prof.MemRatio - 1
	if mean <= 0 {
		return 0
	}
	n := 0
	p := 1 / (mean + 1)
	acc := p
	for acc < u && n < 64 {
		n++
		acc += p * pow1mp(p, n)
	}
	return n
}

// pow1mp is (1-p)^n as the generator once formed it for each n: n
// multiplications by 1-p, starting from 1.
func pow1mp(p float64, n int) float64 {
	q := 1 - p
	out := 1.0
	for i := 0; i < n; i++ {
		out *= q
	}
	return out
}

// TestGapCDFMatchesPowers: each gap table entry is bit for bit the sum the
// table was first built with, which formed (1-p)^n afresh for every n.
func TestGapCDFMatchesPowers(t *testing.T) {
	for _, name := range AllProgramNames() {
		prof, err := ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		g := NewSynthetic(prof, 0, 1)
		p := 1 / (1/prof.MemRatio - 1 + 1)
		acc := p
		for n := 0; n <= maxGap; n++ {
			if n > 0 {
				acc += p * pow1mp(p, n)
			}
			if g.gapCDF[n] != acc {
				t.Fatalf("%s: gapCDF[%d] = %v, powers give %v", name, n, g.gapCDF[n], acc)
			}
		}
	}
}

// TestGapTableMatchesLoop: the table-driven gap draw returns what the
// loop it replaced returns, for every profile, over a million draws from
// each of three seeds and at every CDF entry and guide-table edge together
// with their float64 neighbours, where a < and a ≤ would part. Two extra
// memory ratios put CDF entries exactly on guide-table edges.
func TestGapTableMatchesLoop(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	var profiles []Profile
	for _, name := range AllProgramNames() {
		p, err := ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	for _, r := range []float64{0.25, 0.5} {
		p := profiles[0]
		p.Name = fmt.Sprintf("%s@MemRatio=%v", p.Name, r)
		p.MemRatio = r
		profiles = append(profiles, p)
	}
	for _, p := range profiles {
		check := func(g *Synthetic, u float64) {
			if got, want := g.gapFor(u), refGap(p, u); got != want {
				t.Fatalf("%s: gapFor(%v) = %d, loop draws %d", p.Name, u, got, want)
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			g := NewSynthetic(p, 0, seed)
			for i := 0; i < draws; i++ {
				check(g, g.r.float())
			}
		}
		g := NewSynthetic(p, 0, 1)
		edges := append([]float64(nil), g.gapCDF[:]...)
		for k := range g.gapGuide {
			edges = append(edges, float64(k)/gapGuideSize)
		}
		for _, e := range edges {
			for _, u := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 1)} {
				if u >= 0 && u < 1 {
					check(g, u)
				}
			}
		}
	}
}

// BenchmarkNext measures one reference of each program's generator: the
// per-call cost of trace generation, the core-side layer every simulated
// instruction passes through.
func BenchmarkNext(b *testing.B) {
	for _, name := range AllProgramNames() {
		b.Run(name, func(b *testing.B) {
			p, err := ProfileFor(name)
			if err != nil {
				b.Fatal(err)
			}
			g := NewSynthetic(p, 0, 1)
			var it Item
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next(&it)
			}
			addrSink = it.Addr
		})
	}
}

var addrSink int64
