package tempo

import (
	"math"
	"sync/atomic"
)

// Node is one worker's immediacy-list node; Val is the worker's index.
// A node's successor is the less immediate neighbour (its most recent
// thief), its predecessor the more immediate one.
type Node struct {
	next, prev *Node
	Val        int
}

// InList reports whether the node is currently linked to any other
// node. A single detached node is "not in a relationship".
func (n *Node) InList() bool { return n.next != nil || n.prev != nil }

// AtHead reports whether the node has no predecessor — it processes
// the most immediate work and must not be slowed by workload control
// (the `prev != null` guard in Figure 5's POP and STEAL).
func (n *Node) AtHead() bool { return n.prev == nil }

// InsertThief links thief immediately after victim, per Algorithm 3.1
// lines 20–26: if the victim already had a thief, the new thief is
// more immediate than the previous one (tasks stolen later are more
// immediate), so it is inserted between them.
func InsertThief(thief, victim *Node) {
	if thief == victim {
		panic("tempo: worker cannot be its own thief")
	}
	if thief.InList() {
		panic("tempo: thief already linked")
	}
	if victim.next != nil {
		thief.next = victim.next
		victim.next.prev = thief
	}
	victim.next = thief
	thief.prev = victim
}

// Unlink removes n from the list (Algorithm 3.1 lines 11–14), stitching
// its neighbours together. Safe on a detached node.
func (n *Node) Unlink() {
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.next = nil
	n.prev = nil
}

// Thresholds is the workload-sensitive tier state of one worker.
//
// With K thresholds th[0] < th[1] < … < th[K-1] there are K+1 tiers;
// tier S means the deque size sits between th[S-1] (inclusive) and
// th[S] (exclusive). Higher tiers mean more pending work and a faster
// tempo. Crossings move one tier at a time, which is exact because
// deque sizes change by one per operation.
type Thresholds struct {
	th []float64
	s  int

	// raiseAt and lowerAt republish the bounds the WouldRaise /
	// WouldLower predicates compare against — float64 bits, updated
	// (under the caller's tempo lock) by every mutation. They exist so
	// a concurrent hot path can pre-check a threshold crossing with
	// one atomic load and skip the tempo lock entirely when no
	// crossing is possible: the lock-free fast path of the Native
	// PUSH/POP. raiseAt is +Inf at the top tier (nothing to raise),
	// lowerAt -Inf at the bottom.
	raiseAt atomic.Uint64
	lowerAt atomic.Uint64
}

// publish refreshes the lock-free raise/lower bounds from the current
// tier and thresholds. Called by every mutation; mutations themselves
// are serialized by the caller's tempo lock.
func (t *Thresholds) publish() {
	up := math.Inf(1)
	if t.s < len(t.th) {
		up = t.th[t.s]
	}
	down := math.Inf(-1)
	if t.s > 0 {
		down = t.th[t.s-1]
	}
	t.raiseAt.Store(math.Float64bits(up))
	t.lowerAt.Store(math.Float64bits(down))
}

// WouldRaiseFast is the lock-free pre-check for WouldRaise: it may
// only be trusted when it reports false (no crossing possible at this
// size, against a possibly stale bound — the same staleness snapshot
// deque sizes already have). A true result must be confirmed by
// WouldRaise under the tempo lock before committing.
func (t *Thresholds) WouldRaiseFast(size int) bool {
	return float64(size) >= math.Float64frombits(t.raiseAt.Load())
}

// WouldLowerFast is the lock-free pre-check for WouldLower, with the
// same contract as WouldRaiseFast: false means skip the lock, true
// means re-check under it.
func (t *Thresholds) WouldLowerFast(size int) bool {
	return float64(size) < math.Float64frombits(t.lowerAt.Load())
}

// NewThresholds returns tier state with K thresholds derived from the
// initial average deque size avg, starting at the top tier (HERMES
// bootstraps every worker at the fastest tempo).
func NewThresholds(k int, avg float64) *Thresholds {
	if k < 1 {
		panic("tempo: need at least one threshold")
	}
	t := &Thresholds{th: make([]float64, k)}
	t.Retune(avg)
	t.s = k
	t.publish()
	return t
}

// K returns the number of thresholds.
func (t *Thresholds) K() int { return len(t.th) }

// Tier returns the current tier S ∈ [0, K].
func (t *Thresholds) Tier() int { return t.s }

// Retune recomputes the thresholds from a freshly profiled average
// deque size L: thld_i = (2L/(K+1))·i. The tier does not move.
func (t *Thresholds) Retune(avg float64) {
	if avg < 0 {
		avg = 0
	}
	k := len(t.th)
	base := 2 * avg / float64(k+1)
	for i := range t.th {
		t.th[i] = base * float64(i+1)
	}
	t.publish()
}

// WouldRaise reports whether a deque that has just grown to size
// crosses the next threshold up (Figure 5 PUSH). Only Raise moves the
// tier.
func (t *Thresholds) WouldRaise(size int) bool {
	return t.s < len(t.th) && float64(size) >= t.th[t.s]
}

// WouldLower reports whether a deque that has just shrunk to size
// falls below the current tier's lower threshold (Figure 5 POP and
// STEAL). Only Lower moves the tier.
func (t *Thresholds) WouldLower(size int) bool {
	return t.s > 0 && float64(size) < t.th[t.s-1]
}

// Raise moves one tier up, saturating at K.
func (t *Thresholds) Raise() {
	if t.s < len(t.th) {
		t.s++
		t.publish()
	}
}

// Lower moves one tier down, saturating at 0.
func (t *Thresholds) Lower() {
	if t.s > 0 {
		t.s--
		t.publish()
	}
}

// SetTier forces the tier to v, clamped to [0, K].
func (t *Thresholds) SetTier(v int) {
	if v < 0 {
		v = 0
	}
	if v > len(t.th) {
		v = len(t.th)
	}
	t.s = v
	t.publish()
}

// TierFor returns the tier a deque of the given size belongs in:
// the number of thresholds at or below size (Figure 4's reading —
// size ≥ th[K-1] is the top tier, size < th[0] the bottom).
func (t *Thresholds) TierFor(size int) int {
	s := 0
	for s < len(t.th) && float64(size) >= t.th[s] {
		s++
	}
	return s
}

// Profiler computes the rolling average deque size used to retune
// thresholds. Every profiling period the runtime feeds it one sample
// per worker; it averages the last Window periods.
type Profiler struct {
	window  int
	periods [][]int
}

// NewProfiler returns a profiler averaging over the last window
// periods. window < 1 is treated as 1.
func NewProfiler(window int) *Profiler {
	if window < 1 {
		window = 1
	}
	return &Profiler{window: window}
}

// Observe records a copy of one period's deque sizes (one entry per
// worker). A full window recycles the storage of the period it drops.
func (p *Profiler) Observe(sizes []int) {
	var s []int
	if len(p.periods) == p.window {
		s = p.periods[0][:0]
		p.periods = append(p.periods[:0], p.periods[1:]...)
	}
	p.periods = append(p.periods, append(s, sizes...))
}

// Average returns the mean deque size across all samples in the
// window, or 0 if nothing has been observed.
func (p *Profiler) Average() float64 {
	sum, n := 0, 0
	for _, period := range p.periods {
		for _, v := range period {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
