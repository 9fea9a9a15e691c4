package memreq

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("kind strings: %q %q", Read.String(), Write.String())
	}
}

func TestRequestCallbackPlumbing(t *testing.T) {
	fired := 0
	r := &Request{ID: 7, Addr: 128, Kind: Read}
	r.OnDone = func(q *Request) {
		if q != r {
			t.Error("callback received a different request")
		}
		fired++
	}
	r.OnDone(r)
	if fired != 1 {
		t.Errorf("callback fired %d times", fired)
	}
}

func TestPoolReuseAndZeroing(t *testing.T) {
	var p Pool
	r := p.Get()
	if r == nil || p.Len() != 0 {
		t.Fatalf("fresh Get: %v, len %d", r, p.Len())
	}
	r.ID, r.Addr, r.Kind = 9, 512, Write
	r.AMBHit, r.Done = true, 42
	r.OnDone = func(*Request) {}
	p.Put(r)
	if p.Len() != 1 {
		t.Fatalf("len after Put = %d, want 1", p.Len())
	}
	q := p.Get()
	if q != r {
		t.Fatal("Get did not reuse the pooled request")
	}
	// Put must have scrubbed every field: a recycled transaction carrying a
	// stale callback or timestamp would corrupt the simulation silently.
	if q.ID != 0 || q.Addr != 0 || q.Kind != Read || q.AMBHit || q.Done != 0 ||
		q.OnDone != nil || q.T != (Timing{}) {
		t.Fatalf("reused request not zeroed: %+v", *q)
	}
	if p.Len() != 0 {
		t.Fatalf("len after reuse = %d, want 0", p.Len())
	}
}

func TestPoolGrowsUnderLoad(t *testing.T) {
	var p Pool
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = p.Get()
	}
	for _, r := range reqs {
		p.Put(r)
	}
	if p.Len() != 64 {
		t.Fatalf("len = %d, want 64", p.Len())
	}
	seen := map[*Request]bool{}
	for range reqs {
		r := p.Get()
		if seen[r] {
			t.Fatal("pool handed out the same request twice")
		}
		seen[r] = true
	}
}

// TestPoolDoublePutPanics: putting a request that is already in the pool
// panics, naming its ID and address, instead of letting two later Gets
// hand out the same request.
func TestPoolDoublePutPanics(t *testing.T) {
	var p Pool
	r := p.Get()
	r.ID, r.Addr = 7, 0x1c0
	p.Put(r)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "request 7 ") || !strings.Contains(msg, "0x1c0") {
			t.Errorf("second Put panicked with %q, want the request's ID and address", msg)
		}
		if p.Len() != 1 {
			t.Errorf("len after the refused Put = %d, want 1", p.Len())
		}
	}()
	p.Put(r)
}

// TestPoolGrow: after Grow(n), n Gets on an empty pool allocate nothing and
// hand out distinct requests.
func TestPoolGrow(t *testing.T) {
	var p Pool
	p.Grow(100)
	got := make([]*Request, 0, 100)
	// AllocsPerRun calls its function once more than it is asked to.
	if n := testing.AllocsPerRun(1, func() {
		for range 50 {
			got = append(got, p.Get())
		}
	}); n != 0 {
		t.Errorf("Gets after Grow(100) allocated %v times", n)
	}
	seen := map[*Request]bool{}
	for _, r := range got {
		seen[r] = true
	}
	if len(got) != 100 || len(seen) != 100 {
		t.Errorf("%d distinct requests from %d Gets, want 100", len(seen), len(got))
	}
}
