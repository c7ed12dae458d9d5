package tempo

import "sync/atomic"

// Mode selects which tempo-control strategies are active.
type Mode uint8

const (
	// Baseline is the unmodified work-stealing runtime (the paper's
	// Intel Cilk Plus control): no tempo control, all cores at the
	// maximum frequency.
	Baseline Mode = iota
	// WorkpathOnly enables only thief procrastination and immediacy
	// relay (Section 3.1).
	WorkpathOnly
	// WorkloadOnly enables only deque-size-driven tempo (Section 3.2).
	WorkloadOnly
	// Unified enables both strategies (Section 3.3) — full HERMES.
	Unified
)

func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case WorkpathOnly:
		return "workpath"
	case WorkloadOnly:
		return "workload"
	case Unified:
		return "hermes"
	}
	return "invalid"
}

// Workpath reports whether the immediacy-list strategy is active.
func (m Mode) Workpath() bool { return m == WorkpathOnly || m == Unified }

// Workload reports whether the deque-size strategy is active.
func (m Mode) Workload() bool { return m == WorkloadOnly || m == Unified }

// Policy is HERMES's tempo control for one machine's workers, written
// once for every executor. It owns each worker's tempo state — the
// immediacy-list node, the threshold tiers and the workpath level — and
// has one method per paper event. A worker's tempo level is the sum of
// two components: the workpath chain depth (set by thief
// procrastination, lowered by immediacy relays) and the workload tier
// deficit K − S. The composition is additive in levels, not in
// savings: ROADMAP item 18 measured the two strategies' savings alone
// at 1.4–2.4× unified's.
//
// Policy is pure: no clock, no lock, no observer. Callers serialize
// calls and pass the live mode and deque sizes; every level change is
// reported through the retune callback bound at construction, which
// maps the level onto a frequency. No event calls it under Baseline.
// MayRaise and MayLower alone may run concurrently with the rest: they
// are the lock-free pre-checks of a concurrent caller's PUSH and POP.
type Policy struct {
	ws       []slot
	maxLevel int
	prof     *Profiler
	retune   func(worker, level int)
}

// slot is one worker's tempo state. head republishes node.AtHead()
// for MayLower; every list change that can move it writes it.
type slot struct {
	node Node
	th   *Thresholds
	wp   int
	head atomic.Bool
}

// NewPolicy returns the tempo state of workers workers at the top tier
// with empty immediacy lists: k thresholds seeded from the average
// deque size avg, workpath levels capped at maxLevels−1, and a
// profiler averaging the last window periods. retune receives a worker
// and its new level after every change.
func NewPolicy(workers, k int, avg float64, maxLevels, window int, retune func(worker, level int)) *Policy {
	p := &Policy{ws: make([]slot, workers), maxLevel: maxLevels - 1, prof: NewProfiler(window), retune: retune}
	for i := range p.ws {
		p.ws[i].node.Val = i
		p.ws[i].th = NewThresholds(k, avg)
		p.ws[i].head.Store(true)
	}
	return p
}

// MayRaise is Pushed's lock-free pre-check for a concurrent caller:
// false means Pushed(i, size, m) would change nothing, so the caller
// may skip its lock. The bound it reads may be stale by a concurrent
// Profile, as the deque sizes are.
func (p *Policy) MayRaise(i, size int, m Mode) bool {
	return m.Workload() && p.ws[i].th.WouldRaiseFast(size)
}

// MayLower is Shrunk's pre-check, with MayRaise's contract, the
// head-of-list guard included. Worker i's head bit turns false only in
// i's own Stole; every other list change can only make a worker head.
// So when i checks its own bit, true is never stale: the skipped lock
// would have found i at the head. A stale false costs a needless lock.
func (p *Policy) MayLower(i, size int, m Mode) bool {
	s := &p.ws[i]
	return m.Workload() && !(m.Workpath() && s.head.Load()) && s.th.WouldLowerFast(size)
}

// Level returns worker i's composed tempo level under m: workpath depth
// plus workload tier deficit. Level 0 is the fastest tempo.
func (p *Policy) Level(i int, m Mode) int {
	s := &p.ws[i]
	l := s.wp
	if m.Workload() {
		l += s.th.K() - s.th.Tier()
	}
	return l
}

// Pushed applies Figure 5's PUSH check to worker i, whose deque has
// just grown to size. A deque that climbs past the top threshold marks
// a worker with substantial pending work: immediacy has effectively
// transferred to it, so any thief procrastination is shed (the top-tier
// veto, the unified algorithm's loss guard — light thieves stay slow,
// loaded thieves run fast).
func (p *Policy) Pushed(i, size int, m Mode) {
	s := &p.ws[i]
	if !m.Workload() || !s.th.WouldRaise(size) {
		return
	}
	s.th.Raise()
	if s.th.Tier() == s.th.K() {
		s.wp = 0
	}
	p.retune(i, p.Level(i, m))
}

// Shrunk applies Figure 5's POP and STEAL tail check to worker i,
// whose deque has just shrunk to size: falling below the current
// tier's threshold lowers the tempo — unless the worker holds the most
// immediate work (head of the immediacy list). It reports whether the
// tier moved.
func (p *Policy) Shrunk(i, size int, m Mode) bool {
	s := &p.ws[i]
	if !m.Workload() || (m.Workpath() && s.node.AtHead()) || !s.th.WouldLower(size) {
		return false
	}
	s.th.Lower()
	p.retune(i, p.Level(i, m))
	return true
}

// OutOfWork runs Algorithm 3.1 lines 6–14 for worker i, whose deque is
// empty: the thief-victim relationships it anchored terminate, so each
// downstream worker speeds up one level and i leaves the list.
// Idempotent while i stays out of the list.
func (p *Policy) OutOfWork(i int, m Mode) {
	n := &p.ws[i].node
	if !m.Workpath() || !n.InList() {
		return
	}
	for x := n.next; x != nil; x = x.next {
		if s := &p.ws[x.Val]; s.wp > 0 {
			s.wp--
		}
		p.retune(x.Val, p.Level(x.Val, m))
	}
	next := n.next
	n.Unlink()
	p.ws[i].head.Store(true)
	if next != nil {
		p.ws[next.Val].head.Store(next.AtHead())
	}
}

// Stole applies the rules of a landed steal, given both deques' sizes
// after it. Workpath: thief procrastination — one level below the
// victim, inserted after it on the immediacy list, unless the thief is
// already linked as someone's victim (stolen from mid-probe), in which
// case it keeps its existing, more immediate slot. Workload only:
// Figure 4(b), the fresh thief's tier comes from its own deque. Then
// Figure 5's STEAL check on the victim.
func (p *Policy) Stole(thief, victim, thiefSize, victimSize int, m Mode) {
	t := &p.ws[thief]
	switch {
	case m.Workpath():
		t.wp = min(p.ws[victim].wp+1, p.maxLevel)
		p.retune(thief, p.Level(thief, m))
		if !t.node.InList() {
			InsertThief(&t.node, &p.ws[victim].node)
			t.head.Store(false) // the victim's earlier thief keeps a predecessor
		}
	case m.Workload():
		t.th.SetTier(t.th.TierFor(thiefSize))
		p.retune(thief, p.Level(thief, m))
	}
	p.Shrunk(victim, victimSize, m)
}

// TookRoot re-derives tempo for worker i taking a fresh root from the
// intake: a new job's root is the most immediate work in the system, so
// leftover thief procrastination (the park-time floor included) is
// shed, while the tier comes from the worker's own deque per Figure
// 4(b).
func (p *Policy) TookRoot(i, size int, m Mode) { p.settle(i, 0, size, m) }

// Parked files the slowest tempo for worker i before its core halts
// with no job in the system — race to idle, then drop V/f. A halted
// core's leakage follows its domain's held voltage, so an empty machine
// parks in the lowest DVFS tier instead of idling at whatever frequency
// its last job left behind.
func (p *Policy) Parked(i int, m Mode) { p.settle(i, p.maxLevel, 0, m) }

// settle sets worker i's workpath level to wp and its tier from a
// deque of the given size, each only under its own strategy.
func (p *Policy) settle(i, wp, size int, m Mode) {
	if m == Baseline {
		return
	}
	s := &p.ws[i]
	if m.Workpath() {
		s.wp = wp
	}
	if m.Workload() {
		s.th.SetTier(s.th.TierFor(size))
	}
	p.retune(i, p.Level(i, m))
}

// Reset restores every worker to the boot invariants — out of the
// immediacy list, workpath level 0, top tier — and retunes each, so a
// live switch into m (Baseline included) restarts at full tempo.
func (p *Policy) Reset(m Mode) {
	for i := range p.ws {
		s := &p.ws[i]
		s.node.Unlink()
		s.head.Store(true)
		s.wp = 0
		s.th.SetTier(s.th.K())
		p.retune(i, p.Level(i, m))
	}
}

// Profile is the online profiler's tick (Section 3.2): it records one
// period's deque sizes (one per worker) and, under a workload-sensitive
// mode, retunes every worker's thresholds from the rolling average.
// Tiers do not move, so the retune callback is not invoked.
func (p *Policy) Profile(sizes []int, m Mode) {
	p.prof.Observe(sizes)
	if !m.Workload() {
		return
	}
	avg := p.prof.Average()
	for i := range p.ws {
		p.ws[i].th.Retune(avg)
	}
}
