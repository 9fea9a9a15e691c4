package cpu

import (
	"fmt"
	"strings"
	"testing"

	"fbdsim/internal/memreq"
	"fbdsim/internal/trace"
)

// wantPanic runs fn and fails unless it panics with a message containing
// every one of want.
func wantPanic(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("panic %q does not name %q", msg, w)
			}
		}
	}()
	fn()
}

// TestStrayReadCompletionPanics: a read completion whose line has no busy
// MSHR slot, or whose slot issued another request, panics naming the line
// instead of corrupting the hierarchy.
func TestStrayReadCompletionPanics(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier
	wantPanic(t, func() { h.onReadDone(&memreq.Request{ID: 5, Addr: 0x4000}) }, "0x4000")

	if !h.Load(0, 0x8000, 0, func(int64) {}) {
		t.Fatal("load rejected")
	}
	wantPanic(t, func() { h.onReadDone(&memreq.Request{ID: 6, Addr: 0x8000}) }, "0x8000")
}

// TestMSHRDoubleFreePanics: freeing a slot that is already free panics,
// naming the slot and its line.
func TestMSHRDoubleFreePanics(t *testing.T) {
	f := newMSHRFile(4, 8)
	s := f.alloc(0x1240, 0, false, false, 0)
	f.release(s)
	wantPanic(t, func() { f.release(s) }, fmt.Sprintf("slot %d ", s), "0x1240")
	if f.inUse() != 0 {
		t.Errorf("%d slots in use after the refused free, want 0", f.inUse())
	}
}

// TestWaitersFireInArrivalOrder: loads and stores that join one miss are
// released in the order they arrived.
func TestWaitersFireInArrivalOrder(t *testing.T) {
	r := newRig(t, []trace.Generator{&loop{items: []trace.Item{{Gap: 1 << 20, Op: trace.Load, Addr: 0}}}}, nil)
	h := r.hier
	var order []int
	for i := range 6 {
		done := func(int64) { order = append(order, i) }
		addr := int64(1<<20 + 8*i)
		if i%3 == 1 {
			h.Store(0, addr, 0, done)
		} else {
			h.Load(0, addr, 0, done)
		}
	}
	r.step(600)
	if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Errorf("waiters fired in order %v, want arrival order", order)
	}
}

// TestMSHRFileMatchesMap drives a small file through random misses, joins
// and completions and checks every lookup, the slot count and each chain's
// waiters against a map-based reference. With two index entries per slot
// in use at most, probe runs collide and wrap, so backward-shift deletion
// is exercised.
func TestMSHRFileMatchesMap(t *testing.T) {
	const slots = 8
	f := newMSHRFile(slots, 4)
	slotOf := map[int64]int32{}
	waiters := map[int64][]int{}
	rng := uint64(1)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for step := range 20000 {
		// Lines that share low bits and nearby hash homes.
		line := int64(next(24)) * 64 << (next(3) * 8)
		s, ok := slotOf[line]
		if got := f.find(line); (got != none) != ok || ok && got != s {
			t.Fatalf("step %d: find(%#x) = %d, reference %d (present %v)", step, line, got, s, ok)
		}
		switch {
		case ok && next(3) == 0: // complete the miss
			var fired []int
			for l := f.slots[s].first; l != none; l = f.links[l].next {
				fired = append(fired, f.links[l].w.core)
			}
			if fmt.Sprint(fired) != fmt.Sprint(waiters[line]) {
				t.Fatalf("step %d: line %#x chain %v, reference %v", step, line, fired, waiters[line])
			}
			for l := f.slots[s].first; l != none; {
				n := f.links[l].next
				f.freeLink(l)
				l = n
			}
			f.release(s)
			delete(slotOf, line)
			delete(waiters, line)
		case ok: // join it
			f.addWaiter(s, waiter{core: step})
			waiters[line] = append(waiters[line], step)
		case !f.full():
			s = f.alloc(line, 0, false, false, 0)
			f.addWaiter(s, waiter{core: step})
			slotOf[line] = s
			waiters[line] = []int{step}
		}
		if f.inUse() != len(slotOf) {
			t.Fatalf("step %d: %d slots in use, reference %d", step, f.inUse(), len(slotOf))
		}
	}
}
