package core

// ring is a simulated worker's deque: the THE protocol's Push/Pop at
// the tail and Steal at the head, in the same order, without its lock
// or atomics. The engine runs one process at a time, so nothing
// contends, and the protocol's cost is modeled (pushPopCost, stealCost)
// rather than paid. buf's length is a power of two; head and tail are
// absolute indices, so size is tail-head.
type ring struct {
	buf        []*task
	head, tail int
}

func newRing(n int) ring { return ring{buf: make([]*task, n)} }

// Size reports the number of queued tasks.
func (r *ring) Size() int { return r.tail - r.head }

// Empty reports whether the ring holds no task.
func (r *ring) Empty() bool { return r.tail == r.head }

// Push appends t at the tail, doubling the buffer when it is full.
func (r *ring) Push(t *task) {
	if r.tail-r.head == len(r.buf) {
		nbuf := make([]*task, 2*len(r.buf))
		for i := r.head; i < r.tail; i++ {
			nbuf[i&(len(nbuf)-1)] = r.buf[i&(len(r.buf)-1)]
		}
		r.buf = nbuf
	}
	r.buf[r.tail&(len(r.buf)-1)] = t
	r.tail++
}

// Pop removes and returns the tail task.
func (r *ring) Pop() (*task, bool) {
	if r.tail == r.head {
		return nil, false
	}
	r.tail--
	i := r.tail & (len(r.buf) - 1)
	t := r.buf[i]
	r.buf[i] = nil
	return t, true
}

// Steal removes and returns the head task.
func (r *ring) Steal() (*task, bool) {
	if r.tail == r.head {
		return nil, false
	}
	i := r.head & (len(r.buf) - 1)
	t := r.buf[i]
	r.buf[i] = nil
	r.head++
	return t, true
}
