// Package bus models the memory-request path below the L2: the L2 request
// arbiter, the bus queue, and the front-side bus itself. Table 1's numbers
// are built in as defaults: a 460-processor-cycle round trip (8 bus cycles
// through the chipset plus 55 ns of DRAM at 4 GHz), 4.26 GB/s of bandwidth
// (one 64-byte line occupies the bus for ~60 cycles), a 32-entry bus queue
// and a 128-entry L2 queue.
//
// Arbiters keep the paper's strict priority order — demand requests first,
// stride prefetches over content prefetches (higher accuracy), shallower
// request depths over deeper ones — and implement its overflow rules: a
// full arbiter drops incoming prefetches, and an incoming demand request
// squashes the lowest-priority queued prefetch rather than stalling.
//
// An arbiter is a binary heap ordered by Request.Better, which is a total
// order (request IDs are unique), so the grant order is exactly that of a
// linear scan for the best request. Each queued request records its heap
// position, so a caller that changes a queued request's priority — the
// memory system promoting a prefetch a demand access caught in flight —
// restores the order with Fix. The squash victim, the worst queued request,
// is always a heap leaf, so a squash scans only the bottom half.
package bus

import "fmt"

// Class ranks request sources for arbitration.
type Class uint8

const (
	// ClassDemand is a demand fetch (highest priority). Page walks are
	// demand-class: a stalled translation blocks a demand access.
	ClassDemand Class = iota
	// ClassStride is a stride-prefetcher request, favoured over content
	// requests because of its higher accuracy.
	ClassStride
	// ClassContent is a content-directed prefetch.
	ClassContent
	// ClassMarkov is a Markov prefetch (same rank as content).
	ClassMarkov
)

// rank collapses classes to arbitration levels.
func (c Class) rank() int {
	switch c {
	case ClassDemand:
		return 0
	case ClassStride:
		return 1
	default:
		return 2
	}
}

// IsPrefetch reports whether the class is speculative.
func (c Class) IsPrefetch() bool { return c != ClassDemand }

func (c Class) String() string {
	switch c {
	case ClassDemand:
		return "demand"
	case ClassStride:
		return "stride"
	case ClassContent:
		return "content"
	case ClassMarkov:
		return "markov"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Request is one memory transaction below the L2.
type Request struct {
	ID       uint64
	PABase   uint32 // physical line base address
	VABase   uint32 // virtual line base (content scanning context)
	TrigVA   uint32 // effective VA of the triggering access (scan compare)
	Class    Class
	Depth    int  // request depth (0 = non-speculative)
	PageWalk bool // page-table fill: bypasses the content scanner
	IsStore  bool
	Injected bool // bad-prefetch injection (limit study): never scanned
	Overlap  bool // content prefetch also covered by the stride engine
	// Widened marks a next-/previous-line companion prefetch. Widened
	// fills are not scanned: chaining recurses only through the lines
	// candidate pointers actually name, which keeps the candidate tree
	// from exploding combinatorially (cf. the page-walk bypass).
	Widened bool
	// Chain is the content-prefetch chain this request belongs to (0 for
	// demand, stride and Markov traffic). Deeper prefetches triggered by
	// this request's fill inherit it, so a whole pointer chase shares one
	// ID — the lineage simtrace reconstructs.
	Chain uint64

	Enqueued int64 // cycle the request entered the memory system
	Granted  int64 // cycle the bus transfer began
	Arrive   int64 // cycle the fill returns

	// Waiters are completions to run when the fill arrives; the demand
	// promotion path appends here when a load catches an in-flight
	// prefetch (a "partial" mask in Figure 10's terms).
	Waiters []func(arrive int64)

	// DemandWaited marks that some demand access attached to this
	// request while it was in flight (partial timeliness accounting).
	DemandWaited bool

	// index is the request's position in the heap of the arbiter queueing
	// it. It is meaningful only while that arbiter's q[index] is this
	// request; a request sits in at most one arbiter at a time.
	index int
}

// Better reports whether r should be granted before o: lower class rank
// first, then shallower depth, then older.
func (r *Request) Better(o *Request) bool {
	if a, b := r.Class.rank(), o.Class.rank(); a != b {
		return a < b
	}
	if r.Depth != o.Depth {
		return r.Depth < o.Depth
	}
	return r.ID < o.ID
}

// Arbiter is a bounded priority queue of requests: a binary heap whose
// root is the request to grant next.
type Arbiter struct {
	name string
	cap  int
	q    []*Request
}

// NewArbiter builds an arbiter holding at most capacity requests.
func NewArbiter(name string, capacity int) *Arbiter {
	if capacity <= 0 {
		panic("bus: arbiter needs positive capacity")
	}
	return &Arbiter{name: name, cap: capacity, q: make([]*Request, 0, capacity)}
}

// Len returns the number of queued requests.
func (a *Arbiter) Len() int { return len(a.q) }

// Full reports whether the arbiter has no free slot.
func (a *Arbiter) Full() bool { return len(a.q) >= a.cap }

// Enqueue inserts r, or reports false when full. Per the paper a full
// arbiter simply drops prefetch requests — no retry buffering. Demand
// requests should use EnqueueDemand.
func (a *Arbiter) Enqueue(r *Request) bool {
	if a.Full() {
		return false
	}
	a.push(r)
	return true
}

// EnqueueDemand inserts a demand-class request. If the arbiter is full, the
// lowest-priority queued prefetch is removed (squashed) to make room; the
// squashed request is returned so the caller can account for the drop. A
// demand request is never rejected unless the arbiter is full of demands,
// which the caller treats as back-pressure (ok = false).
func (a *Arbiter) EnqueueDemand(r *Request) (squashed *Request, ok bool) {
	if !a.Full() {
		a.push(r)
		return nil, true
	}
	// Every prefetch ranks below every demand, so the lowest-priority
	// prefetch, if any is queued, is the worst request of all: a leaf.
	worst := len(a.q) / 2
	for i := worst + 1; i < len(a.q); i++ {
		if a.q[worst].Better(a.q[i]) {
			worst = i
		}
	}
	squashed = a.q[worst]
	if !squashed.Class.IsPrefetch() {
		return nil, false // all demands: stall
	}
	a.q[worst] = r
	r.index = worst
	a.fix(worst)
	if debugInvariants {
		a.checkBounds()
	}
	return squashed, true
}

// PopBest removes and returns the highest-priority request, or nil when
// empty.
func (a *Arbiter) PopBest() *Request {
	n := len(a.q) - 1
	if n < 0 {
		return nil
	}
	r := a.q[0]
	a.swap(0, n)
	a.q[n] = nil
	a.q = a.q[:n]
	a.down(0)
	if debugInvariants {
		a.checkBounds()
	}
	return r
}

// Fix restores the grant order after the priority of r (its class or
// depth) changed. It is a no-op when r is not queued in this arbiter.
func (a *Arbiter) Fix(r *Request) {
	if r.index < len(a.q) && a.q[r.index] == r {
		a.fix(r.index)
		if debugInvariants {
			a.checkBounds()
		}
	}
}

// Requests returns the queued requests in heap order. The slice is the
// arbiter's own backing store — callers (the simdebug invariant layer) must
// treat it as read-only.
func (a *Arbiter) Requests() []*Request { return a.q }

// Find returns the queued request for the given physical line base, or nil.
func (a *Arbiter) Find(paBase uint32) *Request {
	for _, r := range a.q {
		if r.PABase == paBase {
			return r
		}
	}
	return nil
}

func (a *Arbiter) push(r *Request) {
	r.index = len(a.q)
	a.q = append(a.q, r)
	a.up(r.index)
	if debugInvariants {
		a.checkBounds()
	}
}

func (a *Arbiter) swap(i, j int) {
	a.q[i], a.q[j] = a.q[j], a.q[i]
	a.q[i].index = i
	a.q[j].index = j
}

func (a *Arbiter) fix(i int) {
	if !a.down(i) {
		a.up(i)
	}
}

func (a *Arbiter) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !a.q[i].Better(a.q[parent]) {
			return
		}
		a.swap(i, parent)
		i = parent
	}
}

// down sifts q[i] toward the leaves and reports whether it moved.
func (a *Arbiter) down(i int) bool {
	start, n := i, len(a.q)
	for {
		best := 2*i + 1
		if best >= n {
			break
		}
		if r := best + 1; r < n && a.q[r].Better(a.q[best]) {
			best = r
		}
		if !a.q[best].Better(a.q[i]) {
			break
		}
		a.swap(i, best)
		i = best
	}
	return i > start
}

func (a *Arbiter) String() string {
	return fmt.Sprintf("arbiter{%s %d/%d}", a.name, len(a.q), a.cap)
}

// Bus models front-side-bus timing: one transfer at a time, each occupying
// the bus for Occupancy cycles and returning its fill Latency cycles after
// the transfer begins.
type Bus struct {
	Latency   int64
	Occupancy int64
	freeAt    int64

	transfers uint64
	busyCycle uint64
}

// DefaultLatency is Table 1's 460-processor-cycle bus round trip.
const DefaultLatency = 460

// DefaultOccupancy is one 64-byte line at 4.26 GB/s on a 4 GHz core:
// 64 / 4.26e9 s ≈ 15 ns ≈ 60 cycles.
const DefaultOccupancy = 60

// NewBus returns a bus with the given timing; zero values select Table 1
// defaults.
func NewBus(latency, occupancy int64) *Bus {
	if latency == 0 {
		latency = DefaultLatency
	}
	if occupancy == 0 {
		occupancy = DefaultOccupancy
	}
	return &Bus{Latency: latency, Occupancy: occupancy}
}

// FreeAt returns the cycle at which the bus can begin its next transfer.
func (b *Bus) FreeAt() int64 { return b.freeAt }

// Idle reports whether the bus could start a transfer at cycle now.
func (b *Bus) Idle(now int64) bool { return now >= b.freeAt }

// Grant starts a transfer at or after cycle now and returns when the
// transfer begins and when the fill arrives.
func (b *Bus) Grant(now int64) (start, arrive int64) {
	start = now
	if b.freeAt > start {
		start = b.freeAt
	}
	b.freeAt = start + b.Occupancy
	b.transfers++
	b.busyCycle += uint64(b.Occupancy)
	return start, start + b.Latency
}

// Stats returns the number of transfers granted and total occupied cycles.
func (b *Bus) Stats() (transfers, busyCycles uint64) { return b.transfers, b.busyCycle }

// State is a checkpointable copy of the bus clock and lifetime counters.
// Arbiter queues are intentionally absent: checkpoints are taken at
// quiesce points, where both arbiters are empty.
type State struct {
	FreeAt     int64
	Transfers  uint64
	BusyCycles uint64
}

// State snapshots the bus.
func (b *Bus) State() State {
	return State{FreeAt: b.freeAt, Transfers: b.transfers, BusyCycles: b.busyCycle}
}

// Restore overwrites the bus clock and counters.
func (b *Bus) Restore(st State) {
	b.freeAt = st.FreeAt
	b.transfers = st.Transfers
	b.busyCycle = st.BusyCycles
}
