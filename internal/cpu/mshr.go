package cpu

import (
	"fmt"
	"math/bits"

	"fbdsim/internal/clock"
	"fbdsim/internal/memreq"
)

// none marks an empty slot number or the end of a waiter chain.
const none = -1

// mshr is one L2 miss status holding register: the outstanding miss of one
// cacheline, the chain of everyone waiting for it, and the read request that
// carries the miss to the memory controller. Requests to the same line
// coalesce into one slot, as MSHRs do.
type mshr struct {
	line    int64
	core    int
	busy    bool       // the slot holds a miss
	dirty   bool       // a store (RFO) is among the requesters
	sw      bool       // purely a software prefetch (no waiters)
	created clock.Time // MSHR allocation time, kept across Enqueue retries
	// first and last are the ends of the slot's waiter chain in
	// mshrFile.links, oldest first (none when it has no waiters).
	first, last int32
	req         memreq.Request
}

// link is one waiter in a slot's chain, or an unused link in the file's
// spare chain.
type link struct {
	w    waiter
	next int32
}

// mshrFile holds the shared L2 MSHRs, built with the machine: a run
// allocates nothing here. Slots are handed out from a stack of free slot
// numbers; an open-addressed index finds the slot of a line; waiters chain
// through one array of links.
type mshrFile struct {
	slots []mshr
	free  []int32 // free slot numbers, the next to hand out last
	// index maps a busy slot's line to the slot (stored +1, so zero is an
	// empty entry): linear probing over a power-of-two table at least four
	// times the slot count, with backward-shift deletion, as in the AMB
	// cache's tag index.
	index []int32
	shift uint // 64 - log2(len(index)): hash bits select the home entry
	// links holds every waiter chain; spare heads the chain of unused
	// links.
	links []link
	spare int32
}

// newMSHRFile builds a file of n slots with room for waiters waiters at a
// time.
func newMSHRFile(n, waiters int) mshrFile {
	size := 1 << bits.Len(uint(4*n-1)) // smallest power of two >= 4n
	f := mshrFile{
		slots: make([]mshr, n),
		free:  make([]int32, n),
		index: make([]int32, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		links: make([]link, waiters),
		spare: none,
	}
	for i := range f.free {
		f.free[i] = int32(n - 1 - i) // slot 0 is handed out first
	}
	for i := range f.links {
		f.freeLink(int32(i))
	}
	return f
}

// inUse returns the number of busy slots.
func (f *mshrFile) inUse() int { return len(f.slots) - len(f.free) }

// full reports whether every slot is busy.
func (f *mshrFile) full() bool { return len(f.free) == 0 }

// home returns the index entry where the probe for line starts (Fibonacci
// hashing: the top bits of the product).
func (f *mshrFile) home(line int64) int {
	return int(uint64(line) * 0x9E3779B97F4A7C15 >> f.shift)
}

// find returns the busy slot holding line, or none.
func (f *mshrFile) find(line int64) int32 {
	mask := len(f.index) - 1
	for i := f.home(line); f.index[i] != 0; i = (i + 1) & mask {
		if s := f.index[i] - 1; f.slots[s].line == line {
			return s
		}
	}
	return none
}

// alloc takes a free slot for a miss of line created now, indexes it and
// returns it. The file must not be full, and line must have no busy slot.
func (f *mshrFile) alloc(line int64, core int, dirty, sw bool, now clock.Time) int32 {
	s := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	// Field by field: the slot's request is rewritten when it is issued.
	m := &f.slots[s]
	m.line, m.core, m.busy, m.dirty, m.sw, m.created = line, core, true, dirty, sw, now
	m.first, m.last = none, none
	mask := len(f.index) - 1
	i := f.home(line)
	for f.index[i] != 0 {
		i = (i + 1) & mask
	}
	f.index[i] = s + 1
	return s
}

// release returns slot s to the free stack and unindexes its line. The
// slot's waiter chain is the caller's to walk and free.
func (f *mshrFile) release(s int32) {
	m := &f.slots[s]
	if !m.busy {
		panic(fmt.Sprintf("cpu: MSHR slot %d (line %#x) freed twice", s, m.line))
	}
	m.busy = false
	mask := len(f.index) - 1
	i := f.home(m.line)
	for f.index[i] != s+1 {
		i = (i + 1) & mask
	}
	// Backward-shift delete: later entries of the probe run move into the
	// hole when it lies on their probe path, so every remaining line stays
	// reachable from its home entry.
	for next := (i + 1) & mask; f.index[next] != 0; next = (next + 1) & mask {
		if (next-f.home(f.slots[f.index[next]-1].line))&mask >= (next-i)&mask {
			f.index[i] = f.index[next]
			i = next
		}
	}
	f.index[i] = 0
	f.free = append(f.free, s)
}

// addWaiter appends w to slot s's chain. Links beyond the room the file was
// built with are allocated, which only the closure-based test seam can
// need: a core's waiters each hold a load- or store-queue entry.
func (f *mshrFile) addWaiter(s int32, w waiter) {
	l := f.spare
	if l == none {
		f.links = append(f.links, link{next: none})
		l = int32(len(f.links) - 1)
	} else {
		f.spare = f.links[l].next
	}
	f.links[l] = link{w: w, next: none}
	m := &f.slots[s]
	if m.last == none {
		m.first = l
	} else {
		f.links[m.last].next = l
	}
	m.last = l
}

// freeLink returns link l to the spare chain, clearing its waiter so the
// chain cannot pin a dead closure.
func (f *mshrFile) freeLink(l int32) {
	f.links[l] = link{next: f.spare}
	f.spare = l
}
