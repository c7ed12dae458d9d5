package tempo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func nodes(n int) []*Node {
	out := make([]*Node, n)
	for i := range out {
		out[i] = &Node{Val: i}
	}
	return out
}

func chainIDs(head *Node) []int {
	var ids []int
	for x := head; x != nil; x = x.next {
		ids = append(ids, x.Val)
	}
	return ids
}

func TestInsertThiefBasic(t *testing.T) {
	ns := nodes(3)
	InsertThief(ns[1], ns[0]) // 0 <- 1
	InsertThief(ns[2], ns[1]) // 0 <- 1 <- 2
	got := chainIDs(ns[0])
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
	if !ns[0].AtHead() || ns[1].AtHead() || ns[2].AtHead() {
		t.Fatal("AtHead wrong")
	}
}

// TestLaterThiefMoreImmediate reproduces Algorithm 3.1 lines 21–24: a
// second thief of the same victim is inserted between the victim and
// the earlier thief, because later-stolen tasks are more immediate.
func TestLaterThiefMoreImmediate(t *testing.T) {
	ns := nodes(3)
	InsertThief(ns[1], ns[0]) // thief 1 steals from 0
	InsertThief(ns[2], ns[0]) // thief 2 also steals from 0, later
	got := chainIDs(ns[0])
	want := []int{0, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v (later thief is more immediate)", got, want)
		}
	}
	// Back-links must be consistent.
	if ns[1].prev != ns[2] || ns[2].prev != ns[0] {
		t.Fatal("prev pointers inconsistent after middle insert")
	}
}

func TestUnlinkMiddle(t *testing.T) {
	ns := nodes(3)
	InsertThief(ns[1], ns[0])
	InsertThief(ns[2], ns[1])
	ns[1].Unlink()
	got := chainIDs(ns[0])
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("chain after unlink = %v, want [0 2]", got)
	}
	if ns[1].InList() {
		t.Fatal("unlinked node still claims list membership")
	}
	ns[1].Unlink() // idempotent on detached node
}

// retunes records a Policy's retune callback calls.
type retunes [][2]int

func newPolicy(n int) (*Policy, *retunes) {
	var r retunes
	p := NewPolicy(n, 2, 15, 4, 4, func(w, level int) { r = append(r, [2]int{w, level}) })
	return p, &r
}

func TestRelayVisitsDownstreamOnly(t *testing.T) {
	p, r := newPolicy(4)
	p.Stole(1, 0, 0, 0, WorkpathOnly)
	p.Stole(2, 1, 0, 0, WorkpathOnly)
	p.Stole(3, 2, 0, 0, WorkpathOnly)
	*r = nil
	p.OutOfWork(1, WorkpathOnly)
	if want := (retunes{{2, 1}, {3, 2}}); !reflect.DeepEqual(*r, want) {
		t.Fatalf("relay retuned %v, want %v", *r, want)
	}
	// Relay from the tail visits nobody.
	*r = nil
	p.OutOfWork(3, WorkpathOnly)
	if len(*r) != 0 {
		t.Fatalf("tail relay retuned %v", *r)
	}
}

// TestFigure3Sequence replays the workpath example of Figure 3 through
// the policy: steals chain workers 1→2→3, worker 1 runs out (relay),
// then worker 1 re-steals from worker 2.
func TestFigure3Sequence(t *testing.T) {
	p, _ := newPolicy(3) // index = worker-1
	level := func(i int) int { return p.Level(i, WorkpathOnly) }

	// (b) worker 2 steals from worker 1.
	p.Stole(1, 0, 0, 0, WorkpathOnly)
	// (c) worker 3 steals from worker 2 (a thief's thief).
	p.Stole(2, 1, 0, 0, WorkpathOnly)
	if level(0) != 0 || level(1) != 1 || level(2) != 2 {
		t.Fatalf("levels after two steals = %d %d %d", level(0), level(1), level(2))
	}
	// (d,e) worker 1 finishes: relay raises every downstream worker.
	p.OutOfWork(0, WorkpathOnly)
	if level(1) != 0 || level(2) != 1 {
		t.Fatalf("levels after relay = %d %d, want worker2=0 worker3=1", level(1), level(2))
	}
	// (f) worker 1 steals from worker 2: now 2 is the victim, 1 the thief.
	p.Stole(0, 1, 0, 0, WorkpathOnly)
	if level(0) != 1 {
		t.Fatalf("worker1 after re-steal = %d, want victim level+1 = 1", level(0))
	}
	ids := chainIDs(&p.ws[1].node)
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 0 || ids[2] != 2 {
		t.Fatalf("chain = %v, want [1 0 2]", ids)
	}
}

func TestListWellFormedProperty(t *testing.T) {
	// Random steal/unlink sequences keep the list well-formed: every
	// next/prev pair is mutual and no node is reachable twice.
	f := func(ops []uint16) bool {
		const n = 8
		ns := nodes(n)
		rng := rand.New(rand.NewSource(1))
		for _, op := range ops {
			a := int(op) % n
			b := int(op>>4) % n
			if a == b {
				continue
			}
			if op>>12%3 == 0 {
				ns[a].Unlink()
			} else if !ns[a].InList() || rng.Intn(2) == 0 {
				// a steals from b if a is free to be inserted
				if !ns[a].InList() {
					InsertThief(ns[a], ns[b])
				}
			}
			// Validate invariants over all nodes.
			for _, x := range ns {
				if x.next != nil && x.next.prev != x {
					return false
				}
				if x.prev != nil && x.prev.next != x {
					return false
				}
				if x.next == x || x.prev == x {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertPanics(t *testing.T) {
	ns := nodes(2)
	InsertThief(ns[1], ns[0])
	for _, fn := range []func(){
		func() { InsertThief(ns[1], ns[0]) }, // already linked
		func() { InsertThief(ns[0], ns[0]) }, // self-steal
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// --- workload thresholds ---

func TestPaperThresholdExample(t *testing.T) {
	// Paper, Section 3.2: average 15, K=2 → thresholds {10, 20}.
	th := NewThresholds(2, 15)
	v := th.th
	if v[0] != 10 || v[1] != 20 {
		t.Fatalf("thresholds = %v, want [10 20]", v)
	}
	if th.Tier() != 2 {
		t.Fatalf("bootstrap tier = %d, want top (fastest)", th.Tier())
	}
}

func TestTierTransitions(t *testing.T) {
	th := NewThresholds(2, 15) // {10, 20}, tier 2
	// Steal drops size from 20 to 19: below th[1]=20 → tier 1, slow down.
	if !th.WouldLower(19) {
		t.Fatal("shrink below 20 should advise lowering")
	}
	th.Lower()
	if th.Tier() != 1 {
		t.Fatalf("tier = %d", th.Tier())
	}
	// Pop to 9: below th[0]=10 → tier 0.
	if !th.WouldLower(9) {
		t.Fatal("shrink below 10 should advise lowering")
	}
	th.Lower()
	// Further shrink at tier 0: floor.
	if th.WouldLower(0) {
		t.Fatal("tier must not advise below 0")
	}
	th.Lower() // no-op at floor
	if th.Tier() != 0 {
		t.Fatalf("tier = %d, want floor 0", th.Tier())
	}
	// Push back to 10 (= th[0], "no less than" semantics): tier 1.
	if !th.WouldRaise(10) {
		t.Fatal("push reaching 10 should advise raising")
	}
	th.Raise()
	// Push to 20: tier 2 (fastest).
	if !th.WouldRaise(20) {
		t.Fatal("push reaching 20 should advise raising")
	}
	th.Raise()
	if th.WouldRaise(25) {
		t.Fatal("tier must not advise above K")
	}
	th.Raise() // no-op at ceiling
	if th.Tier() != 2 {
		t.Fatalf("tier = %d, want ceiling 2", th.Tier())
	}
}

func TestStrictPairingNoFreeUps(t *testing.T) {
	// The bug the Would/commit API prevents: a worker at the slowest
	// frequency whose DOWN is clamped must not bank tier decrements
	// that later convert into free UPs. The caller simply never
	// commits Lower() when the tempo move didn't happen, so the tier
	// (and thus WouldRaise) is unchanged.
	th := NewThresholds(2, 15) // tier 2
	if !th.WouldLower(5) {
		t.Fatal("shrink advice expected")
	}
	// Tempo DOWN was clamped → caller does NOT call Lower().
	if th.Tier() != 2 {
		t.Fatal("tier moved without commit")
	}
	// A subsequent push cannot raise: tier is still at the ceiling.
	if th.WouldRaise(25) {
		t.Fatal("free UP banked despite strict pairing")
	}
}

func TestTierFor(t *testing.T) {
	th := NewThresholds(2, 15) // {10, 20}
	cases := map[int]int{0: 0, 9: 0, 10: 1, 19: 1, 20: 2, 100: 2}
	for size, want := range cases {
		if got := th.TierFor(size); got != want {
			t.Fatalf("TierFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestRetune(t *testing.T) {
	th := NewThresholds(3, 8) // base = 2·8/4 = 4 → {4, 8, 12}
	v := th.th
	if v[0] != 4 || v[1] != 8 || v[2] != 12 {
		t.Fatalf("thresholds = %v", v)
	}
	th.Retune(0)
	for _, x := range th.th {
		if x != 0 {
			t.Fatalf("zero-average retune = %v", th.th)
		}
	}
	th.Retune(-5) // clamped to 0
	if th.th[0] != 0 {
		t.Fatal("negative average must clamp")
	}
}

func TestNewThresholdsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K < 1")
		}
	}()
	NewThresholds(0, 1)
}

func TestTierMonotoneProperty(t *testing.T) {
	// Under any op sequence the tier stays within [0, K] and only
	// moves by single steps.
	f := func(ops []uint8) bool {
		th := NewThresholds(2, 6)
		size := 0
		for _, op := range ops {
			before := th.Tier()
			switch op % 3 {
			case 0:
				size++
				if th.WouldRaise(size) {
					th.Raise()
				}
			case 1:
				if size > 0 {
					size--
				}
				if th.WouldLower(size) {
					th.Lower()
				}
			case 2:
				th.Retune(float64(op % 17))
			}
			after := th.Tier()
			if after < 0 || after > 2 {
				return false
			}
			if d := after - before; d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- profiler ---

func TestProfilerWindow(t *testing.T) {
	p := NewProfiler(2)
	p.Observe([]int{10, 10})
	p.Observe([]int{20, 20})
	if avg := p.Average(); avg != 15 {
		t.Fatalf("avg = %v, want 15", avg)
	}
	p.Observe([]int{30, 30}) // evicts the {10,10} period
	if avg := p.Average(); avg != 25 {
		t.Fatalf("windowed avg = %v, want 25", avg)
	}
}

func TestProfilerEmpty(t *testing.T) {
	p := NewProfiler(4)
	if p.Average() != 0 {
		t.Fatal("empty profiler should average 0")
	}
}

func TestProfilerCopiesInput(t *testing.T) {
	p := NewProfiler(4)
	s := []int{5}
	p.Observe(s)
	s[0] = 500
	if p.Average() != 5 {
		t.Fatal("profiler must copy observed slices")
	}
}

func TestProfilerWindowClamp(t *testing.T) {
	p := NewProfiler(0) // treated as 1
	p.Observe([]int{1})
	p.Observe([]int{9})
	if p.Average() != 9 {
		t.Fatalf("avg = %v, want 9 (window of 1)", p.Average())
	}
}

// TestFastPathBoundsTrackSlowPath pins the lock-free pre-check
// contract: after any mutation, WouldRaiseFast/WouldLowerFast must
// report false only when WouldRaise/WouldLower would too — a false
// fast answer is what lets the scheduler skip the tempo lock.
func TestFastPathBoundsTrackSlowPath(t *testing.T) {
	th := NewThresholds(2, 15) // thresholds {10, 20}
	check := func(ctx string) {
		t.Helper()
		for size := 0; size <= 40; size++ {
			if got, want := th.WouldRaiseFast(size), th.WouldRaise(size); got != want {
				t.Fatalf("%s: WouldRaiseFast(%d) = %v, slow = %v (tier %d)", ctx, size, got, want, th.Tier())
			}
			if got, want := th.WouldLowerFast(size), th.WouldLower(size); got != want {
				t.Fatalf("%s: WouldLowerFast(%d) = %v, slow = %v (tier %d)", ctx, size, got, want, th.Tier())
			}
		}
	}
	check("fresh")
	th.Lower()
	check("after Lower")
	th.Lower()
	check("after second Lower")
	th.Raise()
	check("after Raise")
	th.SetTier(0)
	check("after SetTier(0)")
	th.SetTier(2)
	check("after SetTier(2)")
	th.Retune(30) // thresholds {20, 40}
	check("after Retune")
	th.Retune(0) // degenerate thresholds {0, 0}
	check("after Retune(0)")
}
