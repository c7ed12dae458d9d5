// Package hull implements the paper's "Hull" benchmark (PBBS Convex
// Hull): planar convex hull by parallel quickhull. Each recursion
// finds the farthest point from the dividing chord, partitions the
// outside points, and recurses on both flanks in parallel. Subproblem
// sizes shrink at wildly uneven rates — the most steal-heavy of the
// five workloads.
package hull

import (
	"fmt"
	"sort"
	"sync"

	"hermes/internal/geom"
	"hermes/internal/units"
	"hermes/internal/wl"
)

const (
	scanCPE     = 40 // cycles per point per farthest/partition scan
	memFrac     = 0.84
	serialBelow = 12000 // recursion sizes below this stay serial
)

// Job is one convex-hull run.
type Job struct {
	ref *reference
	pts []geom.Vec2

	// Hull receives the hull's point indices (unordered set
	// semantics; Check sorts).
	mu   chan struct{} // 1-token semaphore guarding Hull in real-parallel executors
	Hull []int
}

// reference is the sorted reference hull the runs of one Factory share.
type reference struct {
	once sync.Once
	want []int
}

// Factory makes runs over n deterministic points: each run gets a
// freshly generated copy of the points and its own outputs, and all
// runs share one reference hull, computed at most once, from the input.
func Factory(n int, seed int64) func() *Job {
	ref := &reference{}
	return func() *Job {
		j := &Job{ref: ref, pts: geom.RandomPoints2(n, seed), mu: make(chan struct{}, 1)}
		j.mu <- struct{}{}
		return j
	}
}

func (j *Job) addHull(idx int) {
	<-j.mu
	j.Hull = append(j.Hull, idx)
	j.mu <- struct{}{}
}

// Root computes the hull.
func (j *Job) Root(c wl.Ctx) {
	n := len(j.pts)
	j.Hull = j.Hull[:0]
	if n == 0 {
		return
	}
	if n == 1 {
		j.Hull = []int{0}
		return
	}
	// Find extreme points in x (parallel reduction over chunks).
	const chunks = 64
	mins := make([]int, chunks)
	maxs := make([]int, chunks)
	wl.For(c, 0, chunks, 1, func(c wl.Ctx, lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			a, b := ch*n/chunks, (ch+1)*n/chunks
			if a >= b {
				mins[ch], maxs[ch] = -1, -1
				continue
			}
			mn, mx := a, a
			for i := a + 1; i < b; i++ {
				if less(j.pts[i], j.pts[mn]) {
					mn = i
				}
				if less(j.pts[mx], j.pts[i]) {
					mx = i
				}
			}
			mins[ch], maxs[ch] = mn, mx
			c.WorkMix(units.Cycles((b-a)*6), 0.4)
		}
	})
	mn, mx := -1, -1
	for ch := 0; ch < chunks; ch++ {
		if mins[ch] < 0 {
			continue
		}
		if mn < 0 || less(j.pts[mins[ch]], j.pts[mn]) {
			mn = mins[ch]
		}
		if mx < 0 || less(j.pts[mx], j.pts[maxs[ch]]) {
			mx = maxs[ch]
		}
	}
	if mn == mx {
		j.Hull = []int{mn}
		return
	}
	j.addHull(mn)
	j.addHull(mx)

	// Split into points above and below the chord mn→mx.
	above := make([]int, 0, n/2)
	below := make([]int, 0, n/2)
	a, b := j.pts[mn], j.pts[mx]
	for i := range j.pts {
		if i == mn || i == mx {
			continue
		}
		cr := b.Sub(a).Cross(j.pts[i].Sub(a))
		if cr > 0 {
			above = append(above, i)
		} else if cr < 0 {
			below = append(below, i)
		}
	}
	c.WorkMix(units.Cycles(n*8), memFrac)

	c.Go(
		func(c wl.Ctx) { j.rec(c, above, mn, mx) },
		func(c wl.Ctx) { j.rec(c, below, mx, mn) },
	)
}

// rec processes the points strictly left of chord a→b.
func (j *Job) rec(c wl.Ctx, pts []int, ia, ib int) {
	if len(pts) == 0 {
		return
	}
	a, b := j.pts[ia], j.pts[ib]
	ab := b.Sub(a)

	// Farthest point from the chord.
	far, farDist := pts[0], -1.0
	for _, i := range pts {
		d := ab.Cross(j.pts[i].Sub(a))
		if d > farDist {
			farDist = d
			far = i
		}
	}
	j.addHull(far)

	// Partition outside points of the two new chords.
	f := j.pts[far]
	af := f.Sub(a)
	fb := b.Sub(f)
	left := make([]int, 0, len(pts)/4)
	right := make([]int, 0, len(pts)/4)
	for _, i := range pts {
		if i == far {
			continue
		}
		p := j.pts[i].Sub(a)
		if af.Cross(p) > 0 {
			left = append(left, i)
		} else if q := j.pts[i].Sub(f); fb.Cross(q) > 0 {
			right = append(right, i)
		}
	}
	c.WorkMix(units.Cycles(len(pts)*scanCPE), memFrac)

	if len(pts) > serialBelow {
		c.Go(
			func(c wl.Ctx) { j.rec(c, left, ia, far) },
			func(c wl.Ctx) { j.rec(c, right, far, ib) },
		)
	} else {
		j.rec(c, left, ia, far)
		j.rec(c, right, far, ib)
	}
}

func less(p, q geom.Vec2) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Check verifies the hull against a sequential Andrew's monotone-chain
// reference.
func (j *Job) Check() error {
	j.ref.once.Do(func() {
		j.ref.want = referenceHull(j.pts)
		sort.Ints(j.ref.want)
	})
	want := j.ref.want
	got := make([]int, len(j.Hull))
	copy(got, j.Hull)
	sort.Ints(got)
	if len(got) != len(want) {
		return fmt.Errorf("hull: %d hull points, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("hull: hull point set differs at position %d: %d vs %d", i, got[i], want[i])
		}
	}
	return nil
}

// referenceHull is a sequential monotone-chain convex hull returning
// point indices (excluding collinear boundary points, matching
// quickhull's strict-outside tests).
func referenceHull(pts []geom.Vec2) []int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return less(pts[order[x]], pts[order[y]]) })
	if pts[order[0]] == pts[order[n-1]] {
		// All points coincide: the hull is a single point.
		return []int{order[0]}
	}

	build := func(seq []int) []int {
		var st []int
		for _, i := range seq {
			for len(st) >= 2 {
				o, a := pts[st[len(st)-2]], pts[st[len(st)-1]]
				if a.Sub(o).Cross(pts[i].Sub(o)) <= 0 {
					st = st[:len(st)-1] // drop right turns and collinear
				} else {
					break
				}
			}
			st = append(st, i)
		}
		return st
	}
	lower := build(order)
	rev := make([]int, n)
	for i := range order {
		rev[i] = order[n-1-i]
	}
	upper := build(rev)

	seen := map[int]bool{}
	var out []int
	for _, chain := range [][]int{lower, upper} {
		for _, i := range chain[:max(len(chain)-1, 0)] { // endpoints shared
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	if len(out) == 0 {
		out = []int{order[0]}
	}
	return out
}
