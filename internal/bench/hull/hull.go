// Package hull implements the paper's "Hull" benchmark (PBBS Convex
// Hull): planar convex hull by parallel quickhull. Each recursion
// finds the farthest point from the dividing chord, partitions the
// outside points, and recurses on both flanks in parallel. Subproblem
// sizes shrink at wildly uneven rates — the most steal-heavy of the
// five workloads.
package hull

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

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
	pts []geom.Vec2

	// Hull receives the hull's point indices (unordered set
	// semantics; Check sorts).
	mu   chan struct{} // 1-token semaphore guarding Hull in real-parallel executors
	Hull []int
}

// New creates a deterministic instance of n points.
func New(n int, seed int64) *Job {
	j := &Job{pts: geom.RandomPoints2(n, seed), mu: make(chan struct{}, 1)}
	j.mu <- struct{}{}
	return j
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

// Check verifies the hull against a sequential reference: the
// Akl–Toussaint filter, then Andrew's monotone chain on the points it
// keeps.
func (j *Job) Check() error {
	want := referenceHull(j.pts)
	sort.Ints(want)
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

// referenceHull returns the indices of the hull's vertices, excluding
// collinear boundary points (matching quickhull's strict-outside
// tests) and naming coincident points by their lowest index (as
// quickhull's first-wins scans do). It is linear up to a sort of the
// few points the Akl–Toussaint filter keeps: no point strictly inside
// a polygon of input points can be a hull vertex, so one pass finds
// the extreme points in eight directions and a second drops every
// point strictly inside their polygon.
func referenceHull(pts []geom.Vec2) []int {
	if len(pts) == 0 {
		return nil
	}
	return monotoneChain(pts, akl(pts))
}

// akl returns, in index order, the points not strictly inside the
// polygon of pts' extreme points in the directions +x, +(x+y), +y,
// −(x−y), −x, −(x+y), −y and +(x−y), taken counter-clockwise. A point
// is dropped only if an orientation test whose sign is certain puts it
// strictly left of every non-degenerate edge, so a point within
// rounding of an edge is kept: for coordinates whose products do not
// overflow, the filter keeps too many points at worst, never too few.
// If every edge is degenerate (all points coincide) it drops nothing.
func akl(pts []geom.Vec2) []int {
	var ext [8]int
	p0 := pts[0]
	hx, hs, hy, ht := p0.X, p0.X+p0.Y, p0.Y, p0.Y-p0.X // maxima of x, x+y, y, y−x
	lx, ls, ly, lt := hx, hs, hy, ht                   // and their minima
	for i, p := range pts {
		x, s, y, t := p.X, p.X+p.Y, p.Y, p.Y-p.X
		if x > hx {
			hx, ext[0] = x, i
		} else if x < lx {
			lx, ext[4] = x, i
		}
		if s > hs {
			hs, ext[1] = s, i
		} else if s < ls {
			ls, ext[5] = s, i
		}
		if y > hy {
			hy, ext[2] = y, i
		} else if y < ly {
			ly, ext[6] = y, i
		}
		if t > ht {
			ht, ext[3] = t, i
		} else if t < lt {
			lt, ext[7] = t, i
		}
	}

	// An edge (a, b−a) drops p if (b−a) × (p−a) > bound. The bound is
	// twice Shewchuk's ccwerrboundA, (3 + 16ε)ε with ε = 2⁻⁵³, times an
	// upper bound on the two products' magnitudes over all points
	// (|p−a| is at most the points' extent on each axis), plus the
	// smallest normal for underflow: a computed value above it has the
	// sign of the exact one.
	const errA = (3 + 16*0x1p-53) * 0x1p-53
	type edge struct {
		a, ab geom.Vec2
		bound float64
	}
	var edges []edge
	for d, i := range ext {
		a, b := pts[i], pts[ext[(d+1)%8]]
		if a != b {
			ab := b.Sub(a)
			bound := 2*errA*(math.Abs(ab.X)*(hy-ly)+math.Abs(ab.Y)*(hx-lx)) + 0x1p-1022
			edges = append(edges, edge{a, ab, bound})
		}
	}
	var keep []int
	for i, p := range pts {
		inside := len(edges) > 0
		for _, e := range edges {
			if e.ab.X*(p.Y-e.a.Y)-e.ab.Y*(p.X-e.a.X) <= e.bound {
				inside = false
				break
			}
		}
		if !inside {
			keep = append(keep, i)
		}
	}
	return keep
}

// monotoneChain is Andrew's monotone chain over the points idx names;
// it reorders idx.
func monotoneChain(pts []geom.Vec2, idx []int) []int {
	slices.SortFunc(idx, func(x, y int) int {
		if c := cmp.Compare(pts[x].X, pts[y].X); c != 0 {
			return c
		}
		if c := cmp.Compare(pts[x].Y, pts[y].Y); c != 0 {
			return c
		}
		return x - y
	})
	idx = slices.CompactFunc(idx, func(x, y int) bool { return pts[x] == pts[y] })
	if len(idx) == 1 {
		return idx
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
		return st[:len(st)-1] // the last point starts the other chain
	}
	lower := build(idx)
	slices.Reverse(idx)
	return append(lower, build(idx)...)
}
