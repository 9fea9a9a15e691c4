// Package memreq defines the memory transaction types exchanged between the
// cache hierarchy, the memory controller, and the channel models.
package memreq

import (
	"fmt"

	"fbdsim/internal/addrmap"
	"fbdsim/internal/clock"
)

// Kind distinguishes transaction types at the memory controller.
type Kind int

const (
	// Read is a demand (or software-prefetch) cacheline read.
	Read Kind = iota
	// Write is a cacheline writeback.
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Timing carries the optional per-stage schedule timestamps used by the
// memtrace recorder. The fields are only populated while tracing is
// enabled; they never influence simulation behaviour.
type Timing struct {
	// Issued is when the controller picked the request off its queue and
	// handed it to the channel model.
	Issued clock.Time
	// CmdAt is when the command reached the DIMM (southbound frame
	// arrival on FB-DIMM, command-bus arrival on DDR2).
	CmdAt clock.Time
	// Service is when DIMM-side service began: the DDR data burst start
	// for DRAM accesses, or the AMB lookup completion for AMB-cache hits.
	Service clock.Time
}

// Request is one cacheline transaction presented to the memory system.
type Request struct {
	ID   int64
	Addr int64 // line-aligned physical address
	Kind Kind
	Core int

	// Loc and LocalID are Addr decoded by the controller's address map
	// (Mapper.Map and Mapper.LocalLineID) when the request is enqueued, so
	// scheduling and issue never decode it again.
	Loc     addrmap.Location
	LocalID int64

	// SWPrefetch marks reads generated by software prefetch instructions;
	// the memory system treats them as ordinary reads, but statistics
	// distinguish them.
	SWPrefetch bool

	// Created is when the miss was first exposed to the memory system
	// (MSHR allocation), which may precede Arrived when the controller
	// queue was full. Zero means "same as Arrived".
	Created clock.Time
	// Arrived is when the request entered the controller queue.
	Arrived clock.Time
	// Done is when read data returned to the controller (or write data
	// was accepted by the DRAM); set by the memory system.
	Done clock.Time

	// AMBHit records whether an enabled AMB cache served this read.
	AMBHit bool

	// T holds per-stage schedule timestamps, populated only when the
	// memtrace recorder is enabled.
	T Timing

	// OnDone, if non-nil, is invoked exactly once when the request
	// completes.
	OnDone func(*Request)

	// pooled is set while the request sits idle in a Pool, and next links
	// it to the Pool's next idle request.
	pooled bool
	next   *Request
}

// poolBlock is how many Requests a Pool allocates at once when it runs out:
// one Table 1 write queue's worth.
const poolBlock = 64

// Pool is a single-owner free list of Requests. The cache hierarchy takes
// every writeback from one and returns it in the completion callback, so
// steady-state simulation creates no per-request garbage. Requests come
// from blocks allocated Grow or poolBlock at a time, and idle ones chain
// through their own next field, so recycling allocates nothing. Like the
// simulator that uses it, a Pool is not goroutine-safe; each System owns
// its own.
type Pool struct {
	idle  *Request  // the most recently Put request
	n     int       // idle requests
	fresh []Request // never handed out
}

// Grow makes sure that the next n Gets that find no idle request allocate
// nothing, allocating one block when the pool holds fewer fresh Requests.
func (p *Pool) Grow(n int) {
	if len(p.fresh) < n {
		p.fresh = make([]Request, n)
	}
}

// Get returns a zeroed Request, reusing the most recently Put one when
// there is one.
func (p *Pool) Get() *Request {
	if r := p.idle; r != nil {
		p.idle = r.next
		p.n--
		*r = Request{}
		return r
	}
	if len(p.fresh) == 0 {
		p.Grow(poolBlock)
	}
	r := &p.fresh[0]
	p.fresh = p.fresh[1:]
	return r
}

// Put recycles r. The caller must not retain any reference to r afterwards:
// the next Get may hand it out again. Put keeps only r's ID and address,
// which a second Put of r panics with, so a stale timestamp or callback can
// never leak into a reused transaction.
func (p *Pool) Put(r *Request) {
	if r.pooled {
		panic(fmt.Sprintf("memreq: request %d for line %#x put into its pool twice", r.ID, r.Addr))
	}
	*r = Request{ID: r.ID, Addr: r.Addr, pooled: true, next: p.idle}
	p.idle = r
	p.n++
}

// Len reports the number of idle pooled requests (tests and diagnostics).
func (p *Pool) Len() int { return p.n }
