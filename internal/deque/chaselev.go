// Chase–Lev lock-free work-stealing deque (Chase & Lev, SPAA 2005, in
// the bounded-fence formulation of Lê, Pop, Cohen & Petrank, PPoPP
// 2013): the owner's PUSH and the common-case POP are wait-free —
// plain atomic loads and stores on the bottom index — while STEAL and
// the owner's race for the last item resolve with a single CAS on the
// top index. No mutex anywhere: where the THE protocol in deque.go
// locks on every steal (and on the owner's last-item conflict), this
// implementation never blocks, so a pool of thieves probing a busy
// owner cannot serialize it.
//
// Go's sync/atomic operations are sequentially consistent, which
// subsumes the explicit fences of the weak-memory formulation; the
// store/load protocol is otherwise exactly the published algorithm,
// including reading the item before the CAS that claims it.
//
// Items are stored through atomic pointers, so the element type is
// *E: the deque hands pointers between owner and thieves without a
// data race and without boxing. ChaseLev[E] implements Queue[*E].
package deque

import "sync/atomic"

// clArray is one power-of-two ring buffer generation. Grown copies
// keep items at the same absolute index, so a thief holding a stale
// generation still reads the right item for any top value its CAS can
// win.
type clArray[E any] struct {
	mask int64
	slot []atomic.Pointer[E]
}

func newCLArray[E any](n int) *clArray[E] {
	size := 8
	for size < n {
		size *= 2
	}
	return &clArray[E]{mask: int64(size - 1), slot: make([]atomic.Pointer[E], size)}
}

// ChaseLev is a lock-free work-stealing deque of *E.
//
// Concurrency contract (same as Deque): Push and Pop may be called
// only by the owning worker; Steal may be called by any other worker;
// Size may be called by anyone and is a snapshot. A Steal that loses
// the CAS race reports failure like an empty deque — callers treat it
// as a failed probe and move to the next victim, which matches how
// the scheduler consumes it.
type ChaseLev[E any] struct {
	top atomic.Int64
	_   [56]byte // top on its own cache line: thieves hammer it
	bot atomic.Int64
	_   [56]byte // bottom is owner-mostly; keep thieves off its line
	arr atomic.Pointer[clArray[E]]
	_   [56]byte

	// Operation counters for Stats. The owner-side pair is plain:
	// only the owner writes it, so counting costs no locked
	// instruction, and it lives on its own line so thieves never
	// touch it. The steal-side pair is atomic, shared among thieves,
	// which already serialize on the top CAS.
	pushes, pops         int64
	_                    [48]byte
	steals, failedSteals atomic.Int64
}

// NewChaseLev returns an empty lock-free deque with capacity for at
// least n items before the first internal growth (rounded up to a
// power of two, minimum 8).
func NewChaseLev[E any](n int) *ChaseLev[E] {
	d := &ChaseLev[E]{}
	d.arr.Store(newCLArray[E](n))
	return d
}

// Size reports the number of items currently in the deque (snapshot
// semantics, like Deque.Size).
func (d *ChaseLev[E]) Size() int {
	n := d.bot.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Empty reports whether the deque currently holds no items.
func (d *ChaseLev[E]) Empty() bool { return d.Size() == 0 }

// Push appends item at the tail. Owner only; never blocks.
func (d *ChaseLev[E]) Push(item *E) {
	b := d.bot.Load()
	t := d.top.Load()
	a := d.arr.Load()
	if b-t > a.mask {
		a = d.grow(a, t, b)
	}
	a.slot[b&a.mask].Store(item)
	d.bot.Store(b + 1)
	d.pushes++
}

// grow doubles the ring, copying the live range [t, b) by absolute
// index. Owner only. The old generation is left intact: a thief still
// holding it reads the same item for any index its top CAS can claim.
func (d *ChaseLev[E]) grow(a *clArray[E], t, b int64) *clArray[E] {
	na := newCLArray[E](int(2 * (a.mask + 1)))
	for i := t; i < b; i++ {
		na.slot[i&na.mask].Store(a.slot[i&a.mask].Load())
	}
	d.arr.Store(na)
	return na
}

// Pop removes and returns the tail item. Owner only. Only when a
// single item remains does it race thieves, with one CAS on top.
func (d *ChaseLev[E]) Pop() (*E, bool) {
	b := d.bot.Load() - 1
	a := d.arr.Load()
	d.bot.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bot.Store(b + 1)
		return nil, false
	}
	item := a.slot[b&a.mask].Load()
	if t == b {
		// Last item: claim it against concurrent thieves.
		if !d.top.CompareAndSwap(t, t+1) {
			d.bot.Store(b + 1)
			return nil, false
		}
		d.bot.Store(b + 1)
		d.pops++
		return item, true
	}
	d.pops++
	return item, true
}

// Steal removes and returns the head item. Any non-owner may call it;
// it never blocks. Losing the top CAS to another thief (or to the
// owner's last-item Pop) reports failure, counted as a failed steal.
func (d *ChaseLev[E]) Steal() (*E, bool) {
	t := d.top.Load()
	b := d.bot.Load()
	if t >= b {
		d.failedSteals.Add(1)
		return nil, false
	}
	a := d.arr.Load()
	item := a.slot[t&a.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		d.failedSteals.Add(1)
		return nil, false
	}
	d.steals.Add(1)
	return item, true
}

// Stats reports cumulative operation counts: pushes, successful pops,
// successful steals, and failed steal attempts (including lost CAS
// races). The push and pop counts are the owner's plain fields, so
// Stats may be called only by the owner, or once the owner is
// quiescent and its last Push or Pop happens before the call (a join,
// a channel receive).
func (d *ChaseLev[E]) Stats() (pushes, pops, steals, failedSteals int64) {
	return d.pushes, d.pops, d.steals.Load(), d.failedSteals.Load()
}
