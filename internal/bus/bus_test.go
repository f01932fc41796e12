package bus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func req(id uint64, class Class, depth int) *Request {
	return &Request{ID: id, Class: class, Depth: depth, PABase: uint32(id) << 6}
}

func TestPriorityOrdering(t *testing.T) {
	a := NewArbiter("test", 16)
	a.Enqueue(req(1, ClassContent, 3))
	a.Enqueue(req(2, ClassStride, 1))
	a.Enqueue(req(3, ClassDemand, 0))
	a.Enqueue(req(4, ClassContent, 1))
	a.Enqueue(req(5, ClassMarkov, 1))

	order := []uint64{}
	for r := a.PopBest(); r != nil; r = a.PopBest() {
		order = append(order, r.ID)
	}
	// demand, stride, then content/markov by depth then age.
	want := []uint64{3, 2, 4, 5, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", order, want)
		}
	}
}

func TestDepthOrdersWithinClass(t *testing.T) {
	a := NewArbiter("test", 8)
	a.Enqueue(req(1, ClassContent, 3))
	a.Enqueue(req(2, ClassContent, 0))
	a.Enqueue(req(3, ClassContent, 2))
	if got := a.PopBest().ID; got != 2 {
		t.Fatalf("first pop = %d, want 2 (shallowest)", got)
	}
	if got := a.PopBest().ID; got != 3 {
		t.Fatalf("second pop = %d, want 3", got)
	}
}

func TestEnqueueDropsWhenFull(t *testing.T) {
	a := NewArbiter("test", 2)
	if !a.Enqueue(req(1, ClassContent, 1)) || !a.Enqueue(req(2, ClassContent, 1)) {
		t.Fatal("enqueue failed below capacity")
	}
	if a.Enqueue(req(3, ClassContent, 1)) {
		t.Fatal("enqueue succeeded when full")
	}
	if a.Len() != 2 {
		t.Fatalf("len = %d", a.Len())
	}
}

func TestDemandSquashesLowestPrefetch(t *testing.T) {
	a := NewArbiter("test", 3)
	a.Enqueue(req(1, ClassStride, 0))
	a.Enqueue(req(2, ClassContent, 1))
	a.Enqueue(req(3, ClassContent, 3)) // lowest priority
	squashed, ok := a.EnqueueDemand(req(4, ClassDemand, 0))
	if !ok {
		t.Fatal("demand rejected")
	}
	if squashed == nil || squashed.ID != 3 {
		t.Fatalf("squashed = %+v, want ID 3", squashed)
	}
	if a.Len() != 3 {
		t.Fatalf("len = %d", a.Len())
	}
	if got := a.PopBest().ID; got != 4 {
		t.Fatalf("best = %d, want the demand", got)
	}
}

func TestDemandStallsWhenAllDemand(t *testing.T) {
	a := NewArbiter("test", 2)
	a.EnqueueDemand(req(1, ClassDemand, 0))
	a.EnqueueDemand(req(2, ClassDemand, 0))
	if _, ok := a.EnqueueDemand(req(3, ClassDemand, 0)); ok {
		t.Fatal("demand accepted into a full all-demand arbiter")
	}
}

func TestFind(t *testing.T) {
	a := NewArbiter("test", 4)
	r := req(7, ClassContent, 2)
	a.Enqueue(r)
	if a.Find(r.PABase) != r {
		t.Fatal("Find missed queued request")
	}
	if a.Find(0xFFFF_FFC0) != nil {
		t.Fatal("Find invented a request")
	}
}

func TestBusTiming(t *testing.T) {
	b := NewBus(0, 0)
	if b.Latency != DefaultLatency || b.Occupancy != DefaultOccupancy {
		t.Fatalf("defaults = %d/%d", b.Latency, b.Occupancy)
	}
	s1, a1 := b.Grant(100)
	if s1 != 100 || a1 != 560 {
		t.Fatalf("first grant = %d/%d", s1, a1)
	}
	// Second transfer must wait for occupancy, not full latency.
	s2, a2 := b.Grant(100)
	if s2 != 160 || a2 != 620 {
		t.Fatalf("second grant = %d/%d, want 160/620", s2, a2)
	}
	if !b.Idle(220) || b.Idle(219) {
		t.Fatalf("idle boundary wrong: freeAt=%d", b.FreeAt())
	}
	if tr, busy := b.Stats(); tr != 2 || busy != 120 {
		t.Fatalf("stats = %d/%d", tr, busy)
	}
}

func TestBusGrantAfterIdleGap(t *testing.T) {
	b := NewBus(460, 60)
	b.Grant(0)
	s, _ := b.Grant(1000) // long idle gap: starts immediately
	if s != 1000 {
		t.Fatalf("start = %d, want 1000", s)
	}
}

// Property: PopBest drains exactly what was enqueued, in non-increasing
// priority order.
func TestArbiterDrainQuick(t *testing.T) {
	f := func(seeds []uint8) bool {
		a := NewArbiter("q", 64)
		n := 0
		for i, s := range seeds {
			if n >= 64 {
				break
			}
			r := req(uint64(i), Class(s%4), int(s%5))
			if a.Enqueue(r) {
				n++
			}
		}
		var prev *Request
		for i := 0; i < n; i++ {
			r := a.PopBest()
			if r == nil {
				return false
			}
			if prev != nil && r.Better(prev) {
				return false // priority inversion
			}
			prev = r
		}
		return a.PopBest() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// linearArbiter is the reference model for the heap arbiter: the same
// drop, squash and grant rules as plain scans over an insertion-ordered
// slice.
type linearArbiter struct {
	cap int
	q   []*Request
}

func (l *linearArbiter) enqueue(r *Request) bool {
	if len(l.q) >= l.cap {
		return false
	}
	l.q = append(l.q, r)
	return true
}

func (l *linearArbiter) enqueueDemand(r *Request) (*Request, bool) {
	if len(l.q) < l.cap {
		l.q = append(l.q, r)
		return nil, true
	}
	worst := -1
	for i, q := range l.q {
		if q.Class.IsPrefetch() && (worst == -1 || l.q[worst].Better(q)) {
			worst = i
		}
	}
	if worst == -1 {
		return nil, false
	}
	squashed := l.q[worst]
	l.q[worst] = r
	return squashed, true
}

func (l *linearArbiter) popBest() *Request {
	if len(l.q) == 0 {
		return nil
	}
	best := 0
	for i := range l.q {
		if l.q[i].Better(l.q[best]) {
			best = i
		}
	}
	r := l.q[best]
	l.q = append(l.q[:best], l.q[best+1:]...)
	return r
}

// Property: two heap arbiters driven like the memory system's L2 and bus
// queues — prefetch enqueues, demand enqueues that squash when full,
// in-place promotion of a queued prefetch followed by Fix on both arbiters,
// moves from the first queue to the second, and grants — pop and squash
// exactly the requests the linear-scan reference pops and squashes.
func TestArbiterMatchesLinearScanModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		heaps := [2]*Arbiter{NewArbiter("l2", 1+rng.Intn(12)), NewArbiter("bus", 1+rng.Intn(6))}
		refs := [2]*linearArbiter{{cap: heaps[0].cap}, {cap: heaps[1].cap}}
		var id uint64
		for step := 0; step < 2000; step++ {
			k := rng.Intn(2)
			h, ref := heaps[k], refs[k]
			id++
			switch op := rng.Intn(6); op {
			case 0, 1: // prefetch enqueue
				r := req(id, Class(1+rng.Intn(3)), rng.Intn(5))
				if got, want := h.Enqueue(r), ref.enqueue(r); got != want {
					t.Fatalf("seed %d step %d: Enqueue = %v, reference %v", seed, step, got, want)
				}
			case 2: // demand enqueue, squashing when full
				r := req(id, ClassDemand, 0)
				gotSq, gotOK := h.EnqueueDemand(r)
				wantSq, wantOK := ref.enqueueDemand(r)
				if gotSq != wantSq || gotOK != wantOK {
					t.Fatalf("seed %d step %d: EnqueueDemand = (%v, %v), reference (%v, %v)",
						seed, step, gotSq, gotOK, wantSq, wantOK)
				}
			case 3: // a demand catches a queued prefetch: promote and Fix
				if len(ref.q) == 0 {
					continue
				}
				r := ref.q[rng.Intn(len(ref.q))]
				r.Class, r.Depth = ClassDemand, 0
				heaps[0].Fix(r)
				heaps[1].Fix(r)
			case 4: // pump: move the best L2 request to the bus queue
				if len(refs[1].q) >= refs[1].cap {
					continue
				}
				got, want := heaps[0].PopBest(), refs[0].popBest()
				if got != want {
					t.Fatalf("seed %d step %d: move popped %v, reference %v", seed, step, got, want)
				}
				if got == nil {
					continue
				}
				if !heaps[1].Enqueue(got) || !refs[1].enqueue(want) {
					t.Fatalf("seed %d step %d: bus queue rejected a move below capacity", seed, step)
				}
			case 5: // grant
				if got, want := h.PopBest(), ref.popBest(); got != want {
					t.Fatalf("seed %d step %d: PopBest = %v, reference %v", seed, step, got, want)
				}
			}
			if h.Len() != len(ref.q) {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, h.Len(), len(ref.q))
			}
		}
	}
}
