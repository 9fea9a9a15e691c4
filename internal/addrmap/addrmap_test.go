package addrmap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fbdsim/internal/config"
)

func defaultMem(iv config.Interleave) *config.Mem {
	c := config.Default()
	m := c.Mem
	m.Interleave = iv
	if iv != config.CachelineInterleave {
		m.PageMode = config.OpenPage
	}
	if iv == config.MultiCachelineInterleave {
		m.PageMode = config.ClosePage
	}
	return &m
}

func TestLineAddr(t *testing.T) {
	m := New(defaultMem(config.CachelineInterleave))
	if got := m.LineAddr(0x12345); got != 0x12340 {
		t.Errorf("LineAddr = %#x, want 0x12340", got)
	}
	if got := m.LineAddr(64); got != 64 {
		t.Errorf("LineAddr(64) = %d", got)
	}
}

// TestCachelineInterleaveSpread checks the Figure 2 wraparound order:
// consecutive cachelines walk channels fastest, then DIMMs, then banks.
func TestCachelineInterleaveSpread(t *testing.T) {
	cfg := defaultMem(config.CachelineInterleave)
	m := New(cfg)
	total := cfg.TotalBanks()
	seen := map[int]bool{}
	for i := 0; i < total; i++ {
		loc := m.Map(int64(i) * 64)
		if loc.Channel != i%cfg.LogicalChannels {
			t.Fatalf("line %d channel = %d, want %d", i, loc.Channel, i%cfg.LogicalChannels)
		}
		id := loc.BankID(cfg)
		if seen[id] {
			t.Fatalf("line %d reuses bank %d before wraparound", i, id)
		}
		seen[id] = true
	}
	// After one wraparound the mapping repeats banks with the next column.
	first := m.Map(0)
	again := m.Map(int64(total) * 64)
	if first.BankID(cfg) != again.BankID(cfg) {
		t.Error("wraparound must return to the first bank")
	}
	if first.Row == again.Row && first.Col == again.Col {
		t.Error("wraparound must advance within the bank")
	}
}

// TestMultiCachelineRegions checks that all K lines of a region share a
// bank and row, and consecutive regions move to a different channel.
func TestMultiCachelineRegions(t *testing.T) {
	cfg := defaultMem(config.MultiCachelineInterleave)
	m := New(cfg)
	k := int64(cfg.RegionLines)
	if m.RegionLines() != int(k) {
		t.Fatalf("RegionLines = %d, want %d", m.RegionLines(), k)
	}
	base := m.Map(0)
	for i := int64(1); i < k; i++ {
		loc := m.Map(i * 64)
		if loc.Channel != base.Channel || loc.DIMM != base.DIMM ||
			loc.Bank != base.Bank || loc.Row != base.Row {
			t.Fatalf("line %d leaves its region: %v vs %v", i, loc, base)
		}
		if loc.Col != base.Col+int(i) {
			t.Fatalf("line %d column = %d, want %d", i, loc.Col, base.Col+int(i))
		}
	}
	next := m.Map(k * 64)
	if next.Channel == base.Channel {
		t.Error("next region should be on the next channel")
	}
}

// TestFigure2Example reproduces the worked example of Figure 2: with
// four-way cacheline interleaving, a demand on block 6 groups with blocks
// 4, 5 and 7.
func TestFigure2Example(t *testing.T) {
	cfg := defaultMem(config.MultiCachelineInterleave)
	m := New(cfg)
	group := m.Group(6 * 64)
	if len(group) != 4 {
		t.Fatalf("group size = %d, want 4", len(group))
	}
	if group[0] != 6*64 {
		t.Fatalf("demanded block first: got %d", group[0]/64)
	}
	want := map[int64]bool{4 * 64: true, 5 * 64: true, 7 * 64: true}
	for _, a := range group[1:] {
		if !want[a] {
			t.Errorf("unexpected group member %d", a/64)
		}
		delete(want, a)
	}
	if len(want) != 0 {
		t.Errorf("missing group members: %v", want)
	}
}

// TestGroupSharesRegionID checks that every group member maps to the same
// region and DRAM row (the property the single-ACT fetch relies on).
func TestGroupSharesRegionID(t *testing.T) {
	for _, iv := range []config.Interleave{config.MultiCachelineInterleave, config.PageInterleave} {
		cfg := defaultMem(iv)
		m := New(cfg)
		for _, addr := range []int64{0, 64, 640, 8192, 1 << 20, 5<<20 + 192} {
			group := m.Group(addr)
			id := m.RegionID(addr)
			base := m.Map(addr)
			for _, a := range group {
				if m.RegionID(a) != id {
					t.Errorf("%v: member %#x leaves region %d", iv, a, id)
				}
				loc := m.Map(a)
				if loc.Bank != base.Bank || loc.Row != base.Row || loc.DIMM != base.DIMM {
					t.Errorf("%v: member %#x changes bank/row", iv, a)
				}
			}
		}
	}
}

// TestPageInterleaveGroupWindow checks the Section 3.2 page-mode window:
// demand on block N prefetches N-1, N+1, N+2 clipped to the page.
func TestPageInterleaveGroupWindow(t *testing.T) {
	cfg := defaultMem(config.PageInterleave)
	m := New(cfg)

	// Mid-page: N-1 then N+1, N+2.
	n := int64(10)
	group := m.Group(n * 64)
	want := []int64{n * 64, (n - 1) * 64, (n + 1) * 64, (n + 2) * 64}
	if len(group) != 4 {
		t.Fatalf("group len = %d", len(group))
	}
	for i, a := range want {
		if group[i] != a {
			t.Errorf("group[%d] = block %d, want %d", i, group[i]/64, a/64)
		}
	}

	// First block of a page: no N-1 available.
	group = m.Group(0)
	for _, a := range group {
		if a < 0 || a >= int64(cfg.RowBytes) {
			t.Errorf("group member %d outside page", a)
		}
	}
	if group[0] != 0 {
		t.Error("demanded block must be first")
	}
}

func TestGroupCachelineInterleaveIsSingleton(t *testing.T) {
	m := New(defaultMem(config.CachelineInterleave))
	group := m.Group(12345)
	if len(group) != 1 || group[0] != m.LineAddr(12345) {
		t.Errorf("cacheline interleave group = %v", group)
	}
}

// TestMapFieldsInRange is a property test: every address maps to in-range
// resources under all three schemes.
func TestMapFieldsInRange(t *testing.T) {
	for _, iv := range []config.Interleave{
		config.CachelineInterleave, config.MultiCachelineInterleave, config.PageInterleave,
	} {
		cfg := defaultMem(iv)
		m := New(cfg)
		f := func(raw uint32) bool {
			addr := int64(raw) * 8 // arbitrary word-aligned addresses
			loc := m.Map(addr)
			return loc.Channel >= 0 && loc.Channel < cfg.LogicalChannels &&
				loc.DIMM >= 0 && loc.DIMM < cfg.DIMMsPerChannel &&
				loc.Bank >= 0 && loc.Bank < cfg.BanksPerDIMM &&
				loc.Row >= 0 &&
				loc.Col >= 0 && loc.Col < cfg.RowBytes/cfg.LineBytes
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", iv, err)
		}
	}
}

// TestMapInjective is a property test: distinct cachelines never collide on
// (channel, DIMM, bank, row, col).
func TestMapInjective(t *testing.T) {
	for _, iv := range []config.Interleave{
		config.CachelineInterleave, config.MultiCachelineInterleave, config.PageInterleave,
	} {
		cfg := defaultMem(iv)
		m := New(cfg)
		seen := map[Location]int64{}
		for line := int64(0); line < 4096; line++ {
			addr := line * 64
			loc := m.Map(addr)
			if prev, ok := seen[loc]; ok {
				t.Fatalf("%v: lines %d and %d both map to %v", iv, prev, line, loc)
			}
			seen[loc] = line
		}
	}
}

// TestLocalLineID checks the AMB set-index key: unique per DIMM and dense
// across what one DIMM stores.
func TestLocalLineID(t *testing.T) {
	for _, iv := range []config.Interleave{
		config.CachelineInterleave, config.MultiCachelineInterleave, config.PageInterleave,
	} {
		cfg := defaultMem(iv)
		m := New(cfg)
		type key struct {
			ch, dimm int
			id       int64
		}
		seen := map[key]int64{}
		low := map[int64]bool{}
		for line := int64(0); line < 1<<14; line++ {
			addr := line * 64
			loc := m.Map(addr)
			id := m.LocalLineID(addr)
			k := key{loc.Channel, loc.DIMM, id}
			if prev, ok := seen[k]; ok {
				t.Fatalf("%v: lines %d and %d share local ID %d on ch%d/dimm%d",
					iv, prev, line, id, loc.Channel, loc.DIMM)
			}
			seen[k] = line
			if id < 64 {
				low[id] = true
			}
		}
		// Density: the low ID space must actually be used (no stranded
		// set-index bits, the bug the key exists to prevent).
		if len(low) < 48 {
			t.Errorf("%v: only %d of the low 64 local IDs used; set indexing would alias", iv, len(low))
		}
	}
}

func TestSameRow(t *testing.T) {
	cfg := defaultMem(config.MultiCachelineInterleave)
	m := New(cfg)
	if !m.SameRow(0, 64) {
		t.Error("lines 0 and 1 share a region hence a row")
	}
	if m.SameRow(0, 4*64) {
		t.Error("line 4 starts the next region on another channel")
	}
}

func TestBankIDDense(t *testing.T) {
	cfg := defaultMem(config.CachelineInterleave)
	ids := map[int]bool{}
	for ch := 0; ch < cfg.LogicalChannels; ch++ {
		for d := 0; d < cfg.DIMMsPerChannel; d++ {
			for b := 0; b < cfg.BanksPerDIMM; b++ {
				id := Location{Channel: ch, DIMM: d, Bank: b}.BankID(cfg)
				if id < 0 || id >= cfg.TotalBanks() {
					t.Fatalf("BankID out of range: %d", id)
				}
				if ids[id] {
					t.Fatalf("duplicate BankID %d", id)
				}
				ids[id] = true
			}
		}
	}
}

func TestLocationString(t *testing.T) {
	s := Location{Channel: 1, DIMM: 2, Bank: 3, Row: 4, Col: 5}.String()
	if s != "ch1/dimm2/bank3/row4/col5" {
		t.Errorf("String = %q", s)
	}
}

// TestPermutationInjective: XOR-ing banks with row bits must stay a
// bijection under every interleaving scheme.
func TestPermutationInjective(t *testing.T) {
	for _, iv := range []config.Interleave{
		config.CachelineInterleave, config.MultiCachelineInterleave, config.PageInterleave,
	} {
		cfg := defaultMem(iv)
		cfg.PermuteBanks = true
		m := New(cfg)
		seen := map[Location]int64{}
		for line := int64(0); line < 8192; line++ {
			loc := m.Map(line * 64)
			if loc.Bank < 0 || loc.Bank >= cfg.BanksPerDIMM {
				t.Fatalf("%v: bank %d out of range", iv, loc.Bank)
			}
			if prev, ok := seen[loc]; ok {
				t.Fatalf("%v: lines %d and %d collide at %v", iv, prev, line, loc)
			}
			seen[loc] = line
		}
	}
}

// TestPermutationPreservesRegionCohesion: a prefetch region still lands in
// one bank and row when banks are permuted (the single-ACT fetch depends on
// it).
func TestPermutationPreservesRegionCohesion(t *testing.T) {
	cfg := defaultMem(config.MultiCachelineInterleave)
	cfg.PermuteBanks = true
	m := New(cfg)
	for _, addr := range []int64{0, 1 << 16, 5<<20 + 320} {
		base := m.Map(addr)
		for _, a := range m.Group(addr) {
			loc := m.Map(a)
			if loc.Bank != base.Bank || loc.Row != base.Row || loc.DIMM != base.DIMM {
				t.Fatalf("region member %#x split from its group: %v vs %v", a, loc, base)
			}
		}
	}
}

// TestBankSpare: a spared-out bank is never returned for the degraded
// DIMM, other locations are untouched, and Remapped reports exactly the
// addresses that moved.
func TestBankSpare(t *testing.T) {
	for _, iv := range []config.Interleave{
		config.CachelineInterleave, config.MultiCachelineInterleave, config.PageInterleave,
	} {
		cfg := defaultMem(iv)
		plain := New(cfg)
		spared := New(cfg)
		const deadCh, deadDIMM, deadBank = 0, 1, 2
		spared.SetBankSpare(deadCh, deadDIMM, deadBank)

		for line := int64(0); line < 1<<14; line++ {
			addr := line * 64
			before := plain.Map(addr)
			after := spared.Map(addr)
			hit := before.Channel == deadCh && before.DIMM == deadDIMM && before.Bank == deadBank
			if hit {
				if after.Bank == deadBank {
					t.Fatalf("%v: addr %#x still maps to the dead bank", iv, addr)
				}
				if after.Channel != before.Channel || after.DIMM != before.DIMM ||
					after.Row != before.Row || after.Col != before.Col {
					t.Fatalf("%v: spare remap moved more than the bank: %v vs %v", iv, after, before)
				}
			} else if after != before {
				t.Fatalf("%v: addr %#x off the dead bank changed: %v vs %v", iv, addr, after, before)
			}
			if spared.Remapped(addr) != hit {
				t.Fatalf("%v: Remapped(%#x) = %v, want %v", iv, addr, spared.Remapped(addr), hit)
			}
			if plain.Remapped(addr) {
				t.Fatalf("%v: Remapped must be false without a spare", iv)
			}
		}
	}
}

func TestBankSparePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	cfg := defaultMem(config.CachelineInterleave)
	mustPanic("bank out of range", func() { New(cfg).SetBankSpare(0, 0, cfg.BanksPerDIMM) })
	one := defaultMem(config.CachelineInterleave)
	one.BanksPerDIMM = 1
	mustPanic("single bank", func() { New(one).SetBankSpare(0, 0, 0) })
}

// TestPermutationScattersRowConflicts: addresses that share a bank across
// consecutive rows without permutation use different banks with it.
func TestPermutationScattersRowConflicts(t *testing.T) {
	plain := New(defaultMem(config.CachelineInterleave))
	cfgP := defaultMem(config.CachelineInterleave)
	cfgP.PermuteBanks = true
	perm := New(cfgP)

	stride := int64(cfgP.TotalBanks()) * int64(cfgP.RowBytes/cfgP.LineBytes) * 64
	a, b := int64(0), stride // same bank, consecutive rows without permutation
	pa, pb := plain.Map(a), plain.Map(b)
	if pa.Bank != pb.Bank || pa.Row == pb.Row {
		t.Fatalf("setup: expected a row conflict, got %v vs %v", pa, pb)
	}
	qa, qb := perm.Map(a), perm.Map(b)
	if qa.Bank == qb.Bank {
		t.Error("permutation failed to scatter consecutive rows across banks")
	}
}

// TestChannelMatchesMap: the shift-and-mask channel decode agrees with the
// full decode under every interleaving, channel count and group size, with
// and without a bank spare.
func TestChannelMatchesMap(t *testing.T) {
	for _, iv := range []config.Interleave{config.CachelineInterleave, config.MultiCachelineInterleave, config.PageInterleave} {
		for _, channels := range []int{1, 2, 4} {
			for _, k := range []int{2, 4, 8} {
				cfg := defaultMem(iv)
				cfg.LogicalChannels, cfg.RegionLines = channels, k
				m := New(cfg)
				m.SetBankSpare(0, 0, 0)
				f := func(line uint32) bool {
					addr := int64(line)*64 + int64(line%64)
					return m.Channel(addr) == m.Map(addr).Channel
				}
				if err := quick.Check(f, nil); err != nil {
					t.Errorf("%v, %d channels, K=%d: %v", iv, channels, k, err)
				}
			}
		}
	}
}

// TestAppendGroupMatchesGroup: AppendGroup appends exactly Group's lines
// after what dst already holds, and fills a buffer of capacity K without
// allocating.
func TestAppendGroupMatchesGroup(t *testing.T) {
	for _, iv := range []config.Interleave{config.CachelineInterleave, config.MultiCachelineInterleave, config.PageInterleave} {
		m := New(defaultMem(iv))
		buf := make([]int64, 0, 8)
		for _, addr := range []int64{0, 64, 3 * 64, 4097, 7<<20 + 192, 1<<30 - 64} {
			want := m.Group(addr)
			got := m.AppendGroup([]int64{-1}, addr)
			if got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Errorf("%v: AppendGroup(%#x) = %v, Group = %v", iv, addr, got, want)
			}
			if n := testing.AllocsPerRun(10, func() { buf = m.AppendGroup(buf[:0], addr) }); n != 0 {
				t.Errorf("%v: AppendGroup into a K-line buffer allocates %v times", iv, n)
			}
		}
	}
}

// refDecode is the division-based decode that shifts and masks replaced,
// kept as the reference the Mapper must match: Map before bank sparing,
// LocalLineID and RegionID.
func refDecode(cfg *config.Mem, addr int64) (loc Location, localID, regionID int64) {
	line := addr / int64(cfg.LineBytes)
	linesPerRow := int64(cfg.RowBytes / cfg.LineBytes)
	channels, dimms := int64(cfg.LogicalChannels), int64(cfg.DIMMsPerChannel)
	banks := int64(cfg.BanksPerDIMM)
	spreadUnits := func(unit int64) Location {
		return Location{
			Channel: int(unit % channels),
			DIMM:    int((unit / channels) % dimms),
			Bank:    int((unit / (channels * dimms)) % banks),
		}
	}
	spread := func(unit, unitLines, offset int64) Location {
		loc := spreadUnits(unit)
		idx := unit / (channels * dimms * banks)
		unitsPerRow := linesPerRow / unitLines
		loc.Row = idx / unitsPerRow
		loc.Col = int((idx%unitsPerRow)*unitLines + offset)
		return loc
	}
	switch cfg.Interleave {
	case config.CachelineInterleave:
		loc = spread(line, 1, 0)
		localID, regionID = line/(channels*dimms), line
	case config.MultiCachelineInterleave:
		k := int64(cfg.RegionLines)
		region, inRegion := line/k, line%k
		loc = spread(region, k, inRegion)
		localID, regionID = (region/(channels*dimms))*k+inRegion, region
	case config.PageInterleave:
		page, col := line/linesPerRow, line%linesPerRow
		loc = spreadUnits(page)
		loc.Row = page / (channels * dimms * banks)
		loc.Col = int(col)
		localID, regionID = (page/(channels*dimms))*linesPerRow+col, page
	}
	if cfg.PermuteBanks {
		loc.Bank ^= int(loc.Row) & (cfg.BanksPerDIMM - 1)
	}
	return loc, localID, regionID
}

// TestDecodeMatchesDivisionReference: across every interleaving and a
// spread of power-of-two geometries, the shift-and-mask decode agrees with
// the division-based reference on every field.
func TestDecodeMatchesDivisionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, iv := range []config.Interleave{config.CachelineInterleave, config.MultiCachelineInterleave, config.PageInterleave} {
		for _, channels := range []int{1, 2, 4} {
			for _, dimms := range []int{1, 2, 4} {
				for _, banks := range []int{4, 8} {
					for _, rowBytes := range []int{2048, 8192} {
						for _, k := range []int{2, 4, 8} {
							for _, permute := range []bool{false, true} {
								cfg := defaultMem(iv)
								cfg.LogicalChannels, cfg.DIMMsPerChannel, cfg.BanksPerDIMM = channels, dimms, banks
								cfg.RowBytes, cfg.RegionLines, cfg.PermuteBanks = rowBytes, k, permute
								m := New(cfg)
								for i := 0; i < 200; i++ {
									addr := rng.Int63n(1 << 36)
									loc, local, region := refDecode(cfg, addr)
									if got := m.Map(addr); got != loc {
										t.Fatalf("%+v: Map(%#x) = %v, reference %v", *cfg, addr, got, loc)
									}
									if got := m.LocalLineID(addr); got != local {
										t.Fatalf("%+v: LocalLineID(%#x) = %d, reference %d", *cfg, addr, got, local)
									}
									if got := m.RegionID(addr); got != region {
										t.Fatalf("%+v: RegionID(%#x) = %d, reference %d", *cfg, addr, got, region)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func BenchmarkMap(b *testing.B) {
	m := New(defaultMem(config.MultiCachelineInterleave))
	b.ReportAllocs()
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		rows += m.Map(int64(i) * 4160).Row
	}
	rowSink = rows
}

var rowSink int64
