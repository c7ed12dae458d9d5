package deque

import (
	"sync"
	"sync/atomic"
)

// Queue is the work-stealing deque contract: owner-only Push/Pop at
// the tail, thief-side Steal at the head, snapshot Size, and cumulative
// operation counts. Two implementations satisfy it — the THE-protocol
// Deque below (the paper-fidelity reference, a mutex on every steal)
// and the lock-free ChaseLev in chaselev.go, which every Native worker
// holds. Simulated workers hold internal/core's unsynchronized ring,
// which keeps THE's order. The interface is how this package's tests
// and the benchmark's rungs drive both through one body.
type Queue[E any] interface {
	// Push appends item at the tail. Owner only.
	Push(item E)
	// Pop removes and returns the tail item. Owner only.
	Pop() (E, bool)
	// Steal removes and returns the head item. Any non-owner.
	Steal() (E, bool)
	// Size reports the current item count (snapshot semantics).
	Size() int
	// Empty reports whether the deque currently holds no items.
	Empty() bool
	// Stats reports cumulative pushes, successful pops, successful
	// steals and failed steal attempts. Owner only, or once the owner
	// is quiescent.
	Stats() (pushes, pops, steals, failedSteals int64)
}

// Deque is a work-stealing deque of items of type E.
//
// Concurrency contract: Push and Pop may be called only by the owning
// worker; Steal may be called by any other worker. Size may be called
// by anyone and is a snapshot.
type Deque[E any] struct {
	mu   sync.Mutex
	head atomic.Int64 // H: absolute index of the head item
	tail atomic.Int64 // T: absolute index one past the tail item

	// buf holds items at absolute index i in buf[i-off]. The owner
	// reads and writes buf without the lock (thieves touch it only
	// under mu); off and buf are replaced only by the owner while
	// holding mu.
	buf []E
	off int64

	// Counters for introspection and tests (owner/lock protected
	// writes; racy reads acceptable for stats).
	pushes, pops, steals, failedSteals atomic.Int64
}

// New returns an empty deque with capacity for at least n items before
// the first internal growth. n < 1 is treated as 1.
func New[E any](n int) *Deque[E] {
	if n < 1 {
		n = 1
	}
	return &Deque[E]{buf: make([]E, n)}
}

// Size reports the number of items currently in the deque. Under
// concurrent stealing the value is a snapshot that may be stale by the
// time it is used; this matches how the HERMES workload-sensitive
// policy consumes deque sizes.
func (d *Deque[E]) Size() int {
	n := d.tail.Load() - d.head.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Empty reports whether the deque currently holds no items.
func (d *Deque[E]) Empty() bool { return d.Size() == 0 }

// Push appends item at the tail (Algorithm 2.2). Owner only.
func (d *Deque[E]) Push(item E) {
	t := d.tail.Load()
	if int(t-d.off) == len(d.buf) {
		d.grow()
	}
	d.buf[t-d.off] = item
	d.tail.Store(t + 1) // publish after the slot is written
	d.pushes.Add(1)
}

// grow makes room for one more tail slot: it compacts the live range
// to the front of the buffer and doubles the buffer if the live range
// fills it. Called by the owner; takes the lock because thieves read
// buf/off under it.
func (d *Deque[E]) grow() {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, t := d.head.Load(), d.tail.Load()
	live := t - h
	nbuf := d.buf
	if int(live) == len(d.buf) {
		nbuf = make([]E, 2*len(d.buf))
	}
	copy(nbuf, d.buf[h-d.off:t-d.off])
	// Zero abandoned slots in the old buffer region so stolen items
	// do not linger (relevant when E holds pointers).
	if &nbuf[0] != &d.buf[0] {
		clear(d.buf)
	} else {
		clear(nbuf[live:])
	}
	d.buf = nbuf
	d.off = h
}

// Pop removes and returns the tail item (Algorithm 2.3). It returns
// the zero value and false when the deque is empty. Owner only.
func (d *Deque[E]) Pop() (E, bool) {
	var zero E
	t := d.tail.Load() - 1
	d.tail.Store(t)
	h := d.head.Load()
	if h > t {
		// Possible conflict with a thief over the last item: back
		// out, then retry the decrement under the lock.
		d.tail.Store(t + 1)
		d.mu.Lock()
		t = d.tail.Load() - 1
		d.tail.Store(t)
		h = d.head.Load()
		if h > t {
			d.tail.Store(t + 1)
			d.mu.Unlock()
			return zero, false
		}
		d.mu.Unlock()
	}
	item := d.buf[t-d.off]
	d.pops.Add(1)
	return item, true
}

// Steal removes and returns the head item (Algorithm 2.4). It returns
// the zero value and false when the deque is empty. Any non-owner may
// call it.
func (d *Deque[E]) Steal() (E, bool) {
	var zero E
	d.mu.Lock()
	h := d.head.Load()
	d.head.Store(h + 1)
	if h+1 > d.tail.Load() {
		d.head.Store(h)
		d.mu.Unlock()
		d.failedSteals.Add(1)
		return zero, false
	}
	// Read the slot before releasing the lock: the owner may compact
	// or grow the buffer once we unlock.
	item := d.buf[h-d.off]
	d.mu.Unlock()
	d.steals.Add(1)
	return item, true
}

// Stats reports cumulative operation counts: pushes, successful pops,
// successful steals, and failed steal attempts.
func (d *Deque[E]) Stats() (pushes, pops, steals, failedSteals int64) {
	return d.pushes.Load(), d.pops.Load(), d.steals.Load(), d.failedSteals.Load()
}
