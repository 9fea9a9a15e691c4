package main

// Layer kernels: the per-call host cost of each layer's hot entry point,
// timed from outside through the layer's public API. Every kernel's input
// comes from the workload's own reference streams (trace.NewSynthetic for
// its benchmarks and seed), so the inputs are reproducible from workload
// and seed, and the memory-side kernels see the addresses that miss an L2
// of the workload's geometry, in the order and at the spacing the workload
// would present them.

import (
	"fmt"
	"time"

	"fbdsim/internal/addrmap"
	"fbdsim/internal/ambcache"
	"fbdsim/internal/cache"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/dram"
	"fbdsim/internal/fbdchan"
	"fbdsim/internal/memctrl"
	"fbdsim/internal/memreq"
	"fbdsim/internal/resource"
	"fbdsim/internal/system"
	"fbdsim/internal/trace"
)

const (
	// kernelBatch is the number of calls between two timer reads.
	kernelBatch = 4096

	kernelRefs   = 1 << 18 // references the cache kernel replays
	kernelMisses = 1 << 14 // L2-missing lines the memory-side kernels replay
	l2WarmRefs   = 1 << 18 // references that warm the L2 before misses count
	maxRefs      = 1 << 23 // give up on a workload that misses too rarely
)

// rowSink keeps the address-mapping kernel's results live.
var rowSink int64

// kernelInput is one workload's reference stream and its L2 misses.
type kernelInput struct {
	cfg    config.Config
	mix    []string
	refs   []trace.Item // round-robin across cores
	misses missStream
}

// missStream is a replayable sequence of L2 misses: their line addresses,
// whether a store caused each, and when each reaches the memory system —
// the instructions before it at the workload's measured cycles per
// instruction.
type missStream struct {
	addrs  []int64
	stores []bool
	arrive []clock.Time
}

// at returns the address and arrival time of the i-th miss of an endless
// replay; each pass over the stream starts one stream span after the last,
// so time keeps moving forward.
func (s *missStream) at(i int) (int64, clock.Time) {
	n := len(s.addrs)
	span := s.arrive[n-1] - s.arrive[0] + clock.CPUCycle
	return s.addrs[i%n], s.arrive[i%n] + clock.Time(i/n)*span
}

// filter returns the misses whose address keep accepts.
func (s *missStream) filter(keep func(addr int64) bool) missStream {
	var out missStream
	for i, a := range s.addrs {
		if keep(a) {
			out.addrs = append(out.addrs, a)
			out.stores = append(out.stores, s.stores[i])
			out.arrive = append(out.arrive, s.arrive[i])
		}
	}
	return out
}

func newKernelInput(cfg config.Config, mix []string, cyclesPerInst float64) (*kernelInput, error) {
	gens, err := generators(cfg, mix)
	if err != nil {
		return nil, err
	}
	l2 := l2Of(cfg)
	in := &kernelInput{cfg: cfg, mix: mix}
	m := &in.misses
	var it trace.Item
	var insts int64
	for n := 0; len(m.addrs) < kernelMisses; n++ {
		if n == maxRefs {
			return nil, fmt.Errorf("kernels: %d references gave only %d L2 misses", n, len(m.addrs))
		}
		gens[n%len(gens)].Next(&it)
		insts += int64(it.Gap) + 1
		if len(in.refs) < kernelRefs {
			in.refs = append(in.refs, it)
		}
		store := it.Op == trace.Store
		if l2.Access(it.Addr, store) {
			continue
		}
		l2.Fill(it.Addr, store)
		if n < l2WarmRefs {
			continue
		}
		m.addrs = append(m.addrs, l2.LineAddr(it.Addr))
		m.stores = append(m.stores, store)
		m.arrive = append(m.arrive, clock.Time(float64(insts)*cyclesPerInst)*clock.CPUCycle)
	}
	return in, nil
}

// inFlight holds the completion times of the last len requests of a
// stream, so request i waits for request i-len to complete.
type inFlight []clock.Time

func (f inFlight) ready(i int, arrive clock.Time) clock.Time {
	return max(arrive, f[i%len(f)])
}

func generators(cfg config.Config, mix []string) ([]*trace.Synthetic, error) {
	gens := make([]*trace.Synthetic, len(mix))
	for i, name := range mix {
		p, err := trace.ProfileFor(name)
		if err != nil {
			return nil, err
		}
		gens[i] = trace.NewSynthetic(p, i, cfg.Seed)
	}
	return gens, nil
}

func l2Of(cfg config.Config) *cache.Cache {
	return cache.New(cfg.CPU.L2KB, cfg.CPU.L2Assoc, cfg.CPU.LineBytes)
}

// kernel is one timed entry point. batch makes calls calls, starting at
// call index first; between, if set, does a batch's untimed upkeep.
type kernel struct {
	name    string
	unit    string
	calls   int
	batch   func(first int)
	between func(next int)
}

// timeKernel times batches, at least one and until budget has passed, and
// returns the median per-call cost in nanoseconds.
func timeKernel(k kernel, budget time.Duration) float64 {
	var per []float64
	start := time.Now()
	for b := 0; b == 0 || time.Since(start) < budget; b++ {
		t0 := time.Now()
		k.batch(b * k.calls)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(k.calls))
		if k.between != nil {
			k.between((b + 1) * k.calls)
		}
	}
	return median(per)
}

// kernels builds every layer kernel over in. Each kernel owns fresh layer
// state, so their order does not matter.
func (in *kernelInput) kernels() ([]kernel, error) {
	cfg := in.cfg
	mem := cfg.Mem
	mapper := addrmap.New(&mem)
	tck := mem.DataRate.TCK()
	// One cacheline burst on a DIMM's ganged DDR2 bus (two 8-byte beats
	// per tCK per physical channel) and on the northbound link (32 bytes
	// per two-tCK frame per physical channel).
	burst := clock.Time((mem.LineBytes+8*mem.GangWidth-1)/(8*mem.GangWidth)) * tck / 2
	north := clock.Time((mem.LineBytes+32*mem.GangWidth-1)/(32*mem.GangWidth)) * 2 * tck

	gens, err := generators(cfg, in.mix)
	if err != nil {
		return nil, err
	}
	var item trace.Item
	nextRef := func(int) {
		for i := 0; i < kernelBatch; i++ {
			gens[i%len(gens)].Next(&item)
		}
	}

	l2 := l2Of(cfg)
	access := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			it := &in.refs[i%len(in.refs)]
			store := it.Op == trace.Store
			if !l2.Access(it.Addr, store) {
				l2.Fill(it.Addr, store)
			}
		}
	}
	for i := 0; i < len(in.refs); i += kernelBatch {
		access(i) // warm the L2 with one pass, untimed
	}

	all := &in.misses
	mapAddr := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			rowSink += mapper.Map(all.addrs[i%len(all.addrs)]).Row
		}
	}

	// The AMB kernels see the misses' local line IDs precomputed, so they
	// time the tag table alone; the prefetched lines are the non-demanded
	// members of each miss's K-line group.
	ids := make([]int64, len(all.addrs))
	var fills, fillIDs []int64
	for i, a := range all.addrs {
		ids[i] = mapper.LocalLineID(a)
		for _, g := range mapper.Group(a)[1:] {
			fills = append(fills, g)
			fillIDs = append(fillIDs, mapper.LocalLineID(g))
		}
	}
	if len(fills) == 0 {
		return nil, fmt.Errorf("kernels: %v interleaving forms no prefetch groups", mem.Interleave)
	}
	newAMB := func() *ambcache.Cache {
		return ambcache.New(mem.AMBCacheLines, mem.AMBCacheAssoc, mem.AMBReplacement)
	}
	full := newAMB()
	for i := 0; i < mem.AMBCacheLines; i++ {
		full.InsertPrefetch(fills[i%len(fills)], fillIDs[i%len(fills)])
	}
	lookup := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			j := i % len(all.addrs)
			full.LookupRead(all.addrs[j], ids[j])
		}
	}
	fifo := newAMB()
	insert := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			j := i % len(fills)
			fifo.InsertPrefetch(fills[j], fillIDs[j])
		}
	}

	// A Channel, its links and a DIMM each see only their own share of the
	// misses, at the times the workload would send them.
	ch0 := all.filter(func(a int64) bool { return mapper.Map(a).Channel == 0 })
	dimm0 := ch0.filter(func(a int64) bool { return mapper.Map(a).DIMM == 0 })
	if len(dimm0.addrs) == 0 {
		return nil, fmt.Errorf("kernels: no miss maps to channel 0, DIMM 0")
	}

	link := resource.NewQuantized(0)
	reserve := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			_, at := ch0.at(i)
			link.Reserve(at, north)
		}
	}

	// One ACT/RD/PRE sequence per miss on its bank, close-page.
	dimm := dram.NewDIMM(mem.BanksPerDIMM, mem.Timing)
	locs := make([]addrmap.Location, len(dimm0.addrs))
	for i, a := range dimm0.addrs {
		locs[i] = mapper.Map(a)
	}
	var ops dram.Counters
	dramAccess := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			l := locs[i%len(locs)]
			_, now := dimm0.at(i)
			act := dimm.EarliestACT(l.Bank, now)
			dimm.Activate(l.Bank, act, l.Row, &ops)
			bank := dimm.Banks[l.Bank]
			rd := bank.EarliestRead(act)
			bank.Read(rd, burst, &ops)
			bank.Precharge(bank.EarliestPRE(rd), &ops)
		}
	}

	// A channel has at most the L2's shared MSHRs' worth of reads (and the
	// controller's buffer's worth of writes) in flight, as in the simulated
	// machine. Replayed without that bound, a memory-bound stream outruns
	// the channel and books it further and further ahead.
	rch := fbdchan.New(&mem, mapper)
	reads := make(inFlight, cfg.CPU.L2MSHRs)
	read := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			addr, at := ch0.at(i)
			done, _ := rch.ScheduleRead(addr, reads.ready(i, at))
			reads[i%len(reads)] = done
		}
	}
	wch := fbdchan.New(&mem, mapper)
	writes := make(inFlight, mem.QueueEntries)
	line := make([]int64, 1)
	write := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			var at clock.Time
			line[0], at = ch0.at(i)
			writes[i%len(writes)] = wch.ScheduleWrite(line, writes.ready(i, at))
		}
	}
	// Upkeep between batches, as the controller does it: prune history no
	// future request can reach.
	upkeep := func(prune func(clock.Time)) func(int) {
		return func(next int) {
			_, at := ch0.at(next)
			prune(at)
		}
	}

	// One request at a time: enqueue it, then tick the controller until it
	// completes. Store misses are writes.
	ctrl := memctrl.New(&mem)
	var now clock.Time
	var req memreq.Request
	done := false
	onDone := func(*memreq.Request) { done = true }
	request := func(first int) {
		for i := first; i < first+kernelBatch; i++ {
			j := i % len(all.addrs)
			kind := memreq.Read
			if all.stores[j] {
				kind = memreq.Write
			}
			req = memreq.Request{ID: int64(i), Addr: all.addrs[j], Kind: kind, OnDone: onDone}
			done = false
			now += tck
			if !ctrl.Enqueue(&req, now) {
				panic("memctrl refused a request into an empty queue")
			}
			for !done {
				ctrl.Tick(now)
				now += tck
			}
		}
	}

	s, err := system.New(cfg, in.mix)
	if err != nil {
		return nil, err
	}
	perCore := (kernelBatch + len(in.mix) - 1) / len(in.mix)
	functional := func(int) { s.FunctionalAdvance(int64(perCore)) }

	return []kernel{
		{name: "trace.next_ns", unit: "ns/call", calls: kernelBatch, batch: nextRef},
		{name: "cache.access_ns", unit: "ns/call", calls: kernelBatch, batch: access},
		{name: "addrmap.map_ns", unit: "ns/call", calls: kernelBatch, batch: mapAddr},
		{name: "ambcache.lookup_ns", unit: "ns/call", calls: kernelBatch, batch: lookup},
		{name: "ambcache.insert_ns", unit: "ns/call", calls: kernelBatch, batch: insert},
		{name: "resource.reserve_ns", unit: "ns/call", calls: kernelBatch, batch: reserve, between: upkeep(link.Prune)},
		{name: "dram.access_ns", unit: "ns/call", calls: kernelBatch, batch: dramAccess},
		{name: "fbdchan.read_ns", unit: "ns/call", calls: kernelBatch, batch: read, between: upkeep(rch.Housekeep)},
		{name: "fbdchan.write_ns", unit: "ns/call", calls: kernelBatch, batch: write, between: upkeep(wch.Housekeep)},
		{name: "memctrl.request_ns", unit: "ns/call", calls: kernelBatch, batch: request},
		{name: "cpu.functional_advance_ns", unit: "ns/inst", calls: perCore * len(in.mix), batch: functional},
	}, nil
}
