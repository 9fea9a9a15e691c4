package memctrl

import (
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/memreq"
)

const ns = clock.Nanosecond

func newCtrl(t *testing.T, mutate func(*config.Config)) *Controller {
	t.Helper()
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	return New(&cfg.Mem)
}

// drive ticks the controller from (exclusive) from to (inclusive) to.
func drive(c *Controller, from, to clock.Time) {
	tck := c.TCK()
	start := from - from%tck
	for now := start; now <= to; now += tck {
		c.Tick(now)
	}
}

func read(addr int64) *memreq.Request {
	return &memreq.Request{Addr: addr, Kind: memreq.Read}
}

func write(addr int64) *memreq.Request {
	return &memreq.Request{Addr: addr, Kind: memreq.Write}
}

func TestSingleReadCompletesAt63ns(t *testing.T) {
	c := newCtrl(t, nil)
	var done clock.Time = -1
	req := read(0)
	req.OnDone = func(r *memreq.Request) { done = r.Done }
	if !c.Enqueue(req, 0) {
		t.Fatal("enqueue failed")
	}
	drive(c, 0, 200*ns)
	if done != 63*ns {
		t.Errorf("read completed at %v, want 63ns", done)
	}
	if c.Stats.Reads != 1 || c.Stats.ReadsDone != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if got := c.Stats.AvgReadLatency(); got != 63 {
		t.Errorf("avg latency = %g", got)
	}
}

func TestQueueFullRejects(t *testing.T) {
	c := newCtrl(t, func(cfg *config.Config) { cfg.Mem.QueueEntries = 2 })
	// All to channel 0 (even lines under cacheline interleaving).
	for i := 0; i < 2; i++ {
		if !c.Enqueue(read(int64(i)*128), 0) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if c.CanAccept(4*128, memreq.Read) {
		t.Error("queue should be full")
	}
	if c.Enqueue(read(4*128), 0) {
		t.Error("enqueue into full queue must fail")
	}
	if c.Stats.QueueRejects != 1 {
		t.Errorf("rejects = %d", c.Stats.QueueRejects)
	}
	// The other channel still accepts.
	if !c.CanAccept(64, memreq.Read) {
		t.Error("channel 1 should accept")
	}
}

// TestHitFirstScheduling: with AMB prefetching, a younger AMB-hit read
// overtakes an older bank-conflicting read.
func TestHitFirstScheduling(t *testing.T) {
	cfg := config.WithAMBPrefetch(config.Default())
	c := New(&cfg.Mem)
	// Warm the AMB cache: region 0 (lines 0..3, channel 0).
	var warmDone bool
	warm := read(0)
	warm.OnDone = func(*memreq.Request) { warmDone = true }
	c.Enqueue(warm, 0)
	drive(c, 0, 300*ns)
	if !warmDone {
		t.Fatal("warm read never completed")
	}

	// Same-bank conflicting read (different row, same region index modulo
	// geometry): pick the next row in bank 0 on channel 0.
	mem := cfg.Mem
	linesPerRow := int64(mem.RowBytes / mem.LineBytes)
	stride := int64(mem.TotalBanks()) * linesPerRow * 64
	older := read(stride) // bank 0, new row → slow
	younger := read(64)   // AMB hit → fast
	var olderDone, youngerDone clock.Time
	older.OnDone = func(r *memreq.Request) { olderDone = r.Done }
	younger.OnDone = func(r *memreq.Request) { youngerDone = r.Done }
	c.Enqueue(older, 600*ns)
	c.Enqueue(younger, 600*ns)
	drive(c, 600*ns, 1500*ns)
	if olderDone == 0 || youngerDone == 0 {
		t.Fatal("requests did not complete")
	}
	if youngerDone >= olderDone {
		t.Errorf("hit-first violated: hit at %v, miss at %v", youngerDone, olderDone)
	}
	if c.Stats.AMBHits != 1 {
		t.Errorf("AMB hits = %d", c.Stats.AMBHits)
	}
}

// TestWriteDrainHysteresis: while reads keep a channel busy, writes below
// the threshold accumulate; crossing it forces a drain even against reads.
func TestWriteDrainHysteresis(t *testing.T) {
	c := newCtrl(t, func(cfg *config.Config) { cfg.Mem.WriteDrainThreshold = 4 })
	tck := c.TCK()

	// Keep a steady read stream on channel 0 and slip in 3 writes.
	for i := 0; i < 3; i++ {
		c.Enqueue(write(int64(1000+i)*128), 0)
	}
	nextRead := int64(0)
	for now := clock.Time(0); now <= 600*ns; now += tck {
		if c.QueuedReads() < 4 {
			c.Enqueue(read(nextRead*128), now)
			nextRead++
		}
		c.Tick(now)
	}
	if c.Stats.Writes != 0 {
		t.Errorf("writes issued below threshold while reads pending: %d", c.Stats.Writes)
	}

	// Two more writes cross the threshold: the drain preempts reads.
	c.Enqueue(write(1003*128), 600*ns)
	c.Enqueue(write(1004*128), 600*ns)
	for now := 600 * ns; now <= 2000*ns; now += tck {
		if c.QueuedReads() < 4 {
			c.Enqueue(read(nextRead*128), now)
			nextRead++
		}
		c.Tick(now)
	}
	if c.Stats.Writes != 5 {
		t.Errorf("writes drained = %d, want 5", c.Stats.Writes)
	}
	if c.QueuedWrites() != 0 {
		t.Errorf("write queue not drained: %d", c.QueuedWrites())
	}
}

// TestIdleChannelFlushesLeftoverWrites: with no reads at all, sub-threshold
// writes still go out (work conservation).
func TestIdleChannelFlushesLeftoverWrites(t *testing.T) {
	c := newCtrl(t, func(cfg *config.Config) { cfg.Mem.WriteDrainThreshold = 4 })
	for i := 0; i < 3; i++ {
		c.Enqueue(write(int64(i)*128), 0)
	}
	drive(c, 0, 500*ns)
	if c.Stats.Writes != 3 {
		t.Errorf("idle channel left %d writes queued", 3-int(c.Stats.Writes))
	}
}

// TestReadsProceedWhileWritesWait: queued writes below the threshold never
// block reads.
func TestReadsProceedWhileWritesWait(t *testing.T) {
	c := newCtrl(t, nil)
	for i := 0; i < 3; i++ {
		c.Enqueue(write(int64(i)*128), 0)
	}
	var done clock.Time
	r := read(6 * 128)
	r.OnDone = func(q *memreq.Request) { done = q.Done }
	c.Enqueue(r, 0)
	drive(c, 0, 300*ns)
	if done != 63*ns {
		t.Errorf("read delayed by idle writes: done at %v", done)
	}
}

// TestWriteBatching: same-region writes issue as one transaction under
// multi-cacheline interleaving.
func TestWriteBatching(t *testing.T) {
	cfg := config.WithAMBPrefetch(config.Default())
	cfg.Mem.WriteDrainThreshold = 2
	c := New(&cfg.Mem)
	// Four writes to one region + enough to trip the drain threshold.
	for i := int64(0); i < 4; i++ {
		c.Enqueue(write(i*64), 0)
	}
	drive(c, 0, 1000*ns)
	if c.Stats.Writes != 4 {
		t.Fatalf("writes = %d", c.Stats.Writes)
	}
	counters := c.DRAMCounters()
	if counters.ACT != 1 {
		t.Errorf("batched writes used %d activations, want 1", counters.ACT)
	}
	if counters.ColWrit != 4 {
		t.Errorf("column writes = %d", counters.ColWrit)
	}
}

func TestControllerOverheadDelaysIssue(t *testing.T) {
	c := newCtrl(t, nil)
	var done clock.Time
	req := read(0)
	req.OnDone = func(r *memreq.Request) { done = r.Done }
	c.Enqueue(req, 33*ns) // arrives mid-stream
	drive(c, 0, 300*ns)
	// Off-grid arrivals may pay up to one southbound command slot (2 ns)
	// of alignment on top of the 63 ns minimum.
	if lat := done - 33*ns; lat < 63*ns || lat > 65*ns {
		t.Errorf("latency = %v, want 63-65ns regardless of arrival phase", lat)
	}
}

func TestLinkBytesAndAMBStatsAggregation(t *testing.T) {
	cfg := config.WithAMBPrefetch(config.Default())
	c := New(&cfg.Mem)
	c.Enqueue(read(0), 0)
	c.Enqueue(read(64), 0) // AMB hit after the first fetch
	drive(c, 0, 1000*ns)
	north, south := c.LinkBytes()
	if north != 128 || south != 0 {
		t.Errorf("link bytes = %d/%d", north, south)
	}
	s := c.AMBStats()
	if s.Reads != 2 || s.Hits != 1 || s.Prefetched != 3 {
		t.Errorf("AMB stats = %+v", s)
	}
}

func TestPendingCount(t *testing.T) {
	c := newCtrl(t, nil)
	c.Enqueue(read(0), 0)
	c.Tick(0)
	drive(c, 0, 9*ns)
	if c.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (issued, not complete)", c.Pending())
	}
	drive(c, 12*ns, 200*ns)
	if c.Pending() != 0 {
		t.Errorf("pending = %d after completion", c.Pending())
	}
}

func TestDDR2ControllerWorks(t *testing.T) {
	cfg := config.DDR2Baseline()
	c := New(&cfg.Mem)
	var done clock.Time
	req := read(0)
	req.OnDone = func(r *memreq.Request) { done = r.Done }
	c.Enqueue(req, 0)
	drive(c, 0, 300*ns)
	if done != 60*ns {
		t.Errorf("DDR2 read at %v, want 60ns", done)
	}
}

// TestManyRequestsAllComplete is a soak test: every request enqueued
// eventually completes exactly once.
func TestManyRequestsAllComplete(t *testing.T) {
	c := newCtrl(t, nil)
	completed := map[int64]int{}
	var enqueued []int64
	now := clock.Time(0)
	next := int64(0)
	for step := 0; step < 3000; step++ {
		now += c.TCK()
		c.Tick(now)
		if step%3 == 0 {
			addr := (next * 64) % (1 << 20)
			req := read(addr)
			id := next
			req.OnDone = func(*memreq.Request) { completed[id]++ }
			if c.Enqueue(req, now) {
				enqueued = append(enqueued, id)
			}
			next++
		}
	}
	// Drain.
	for i := 0; i < 100000 && c.Pending()+c.QueuedReads() > 0; i++ {
		now += c.TCK()
		c.Tick(now)
	}
	for _, id := range enqueued {
		if completed[id] != 1 {
			t.Fatalf("request %d completed %d times", id, completed[id])
		}
	}
}

// TestReadPathAllocatesNothing: one read through Enqueue, the controller's
// ticks and completion allocates nothing once the queues have grown.
func TestReadPathAllocatesNothing(t *testing.T) {
	c := newCtrl(t, func(cfg *config.Config) { *cfg = config.WithAMBPrefetch(*cfg) })
	var now clock.Time
	var addr int64
	req := &memreq.Request{}
	done := false
	onDone := func(*memreq.Request) { done = true }
	one := func() {
		addr += 1 << 20 // a new prefetch region every time: an AMB miss
		*req = memreq.Request{Addr: addr, Kind: memreq.Read, OnDone: onDone}
		done = false
		now += c.TCK()
		if !c.Enqueue(req, now) {
			t.Fatal("an idle controller refused a read")
		}
		for !done {
			c.Tick(now)
			now += c.TCK()
		}
	}
	for i := 0; i < 100; i++ {
		one()
	}
	if n := testing.AllocsPerRun(200, one); n != 0 {
		t.Errorf("a read allocates %v times, want 0", n)
	}
	if c.Stats.AMBHits != 0 {
		t.Errorf("%d reads hit the AMB cache; the test wants misses", c.Stats.AMBHits)
	}
}

// BenchmarkTickFullReadQueue times one controller tick with every channel's
// read queue full, the state a memory-bound mix keeps it in: hit-first
// scheduling probes every eligible queued read on every tick. A fixed set of
// requests, twice what the queues hold, circulates as in a closed loop: a
// completed read comes back as a read of a new random line on the channel
// whose queue has room.
func BenchmarkTickFullReadQueue(b *testing.B) {
	cfg := config.WithAMBPrefetch(config.Default())
	c := New(&cfg.Mem)
	var pool memreq.Pool
	for i := 0; i < 2*cfg.Mem.QueueEntries*len(c.readQ); i++ {
		pool.Put(&memreq.Request{})
	}
	onDone := func(r *memreq.Request) { pool.Put(r) }
	rng := uint64(88172645463325252)
	var now clock.Time
	tick := func() {
		for ch := range c.readQ {
			for len(c.readQ[ch]) < cfg.Mem.QueueEntries && pool.Len() > 0 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				addr := int64(rng%(1<<24)) * 64
				if c.mapper.Channel(addr) != ch {
					continue
				}
				req := pool.Get()
				req.Addr, req.Kind, req.OnDone = addr, memreq.Read, onDone
				c.Enqueue(req, now)
			}
		}
		c.Tick(now)
		now += c.TCK()
	}
	for i := 0; i < 10000; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}
