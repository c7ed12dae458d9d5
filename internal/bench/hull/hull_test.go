package hull

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/geom"
)

func TestHullMatchesReference(t *testing.T) {
	j := New(40_000, 1)
	core.Run(core.Config{Spec: cpu.SystemA(), Workers: 8, Mode: core.Unified, Seed: 1}, j.Root)
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
	if len(j.Hull) < 3 {
		t.Fatalf("hull of 40k random points has %d vertices", len(j.Hull))
	}
}

func TestTinyInputs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 10} {
		j := New(n, 2)
		core.Run(core.Config{Workers: 2, Seed: 2}, j.Root)
		if err := j.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestHullPointsAreExtreme: the kernel's hull points, in angular order,
// turn strictly left at every vertex, and every input point lies inside
// or on that polygon. It does not consult referenceHull.
func TestHullPointsAreExtreme(t *testing.T) {
	j := New(5000, 3)
	core.Run(core.Config{Workers: 4, Seed: 3}, j.Root)
	var c geom.Vec2
	for _, h := range j.Hull {
		c.X, c.Y = c.X+j.pts[h].X/float64(len(j.Hull)), c.Y+j.pts[h].Y/float64(len(j.Hull))
	}
	poly := slices.Clone(j.Hull)
	angle := func(i int) float64 { d := j.pts[i].Sub(c); return math.Atan2(d.Y, d.X) }
	slices.SortFunc(poly, func(x, y int) int { return cmp.Compare(angle(x), angle(y)) })
	for k, h := range poly {
		a, b, next := j.pts[h], j.pts[poly[(k+1)%len(poly)]], j.pts[poly[(k+2)%len(poly)]]
		if b.Sub(a).Cross(next.Sub(a)) <= 0 {
			t.Fatalf("hull point %d is not a strict left turn of the hull", poly[(k+1)%len(poly)])
		}
		for i, p := range j.pts {
			if b.Sub(a).Cross(p.Sub(a)) < 0 {
				t.Fatalf("point %d lies outside the hull edge %d→%d", i, h, poly[(k+1)%len(poly)])
			}
		}
	}
}

// TestCheckAcceptsDuplicatedPoints: with every point given twice,
// quickhull names each vertex by its lower index, and so must the
// reference.
func TestCheckAcceptsDuplicatedPoints(t *testing.T) {
	pts := geom.RandomPoints2(2000, 5)
	j := New(0, 0)
	j.pts = append(pts, pts...)
	core.Run(core.Config{Workers: 4, Seed: 5}, j.Root)
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceHullDegenerate(t *testing.T) {
	// All-identical points: hull is a single point.
	pts := []geom.Vec2{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}}
	if got := referenceHull(pts); len(got) != 1 {
		t.Fatalf("degenerate hull = %v", got)
	}
	// Collinear points: two endpoints.
	pts = []geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	got := referenceHull(pts)
	if len(got) != 2 {
		t.Fatalf("collinear hull = %v, want the two endpoints", got)
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	j := New(3000, 4)
	core.Run(core.Config{Workers: 4, Seed: 4}, j.Root)
	j.Hull = j.Hull[:len(j.Hull)-1]
	if err := j.Check(); err == nil {
		t.Fatal("truncated hull passed verification")
	}
}

// TestRootLeavesInputUntouched: Check derives its reference from the
// input after Root ran, so Root must not write the points.
func TestRootLeavesInputUntouched(t *testing.T) {
	j := New(3000, 8)
	core.Run(core.Config{Workers: 4, Seed: 8}, j.Root)
	if !slices.Equal(j.pts, New(3000, 8).pts) {
		t.Fatal("Root wrote its input")
	}
}

// fullChain is the reference without the Akl–Toussaint filter: Andrew's
// monotone chain over every point, the test's independent oracle.
// Coincident points count once, by their lowest index.
func fullChain(pts []geom.Vec2) []int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		p, q := pts[order[x]], pts[order[y]]
		return less(p, q) || p == q && order[x] < order[y]
	})
	uniq := order[:1]
	for _, i := range order[1:] {
		if pts[i] != pts[uniq[len(uniq)-1]] {
			uniq = append(uniq, i)
		}
	}
	order, n = uniq, len(uniq)
	if n == 1 {
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
		for _, i := range chain[:len(chain)-1] { // endpoints shared
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// sameHull compares referenceHull with fullChain as sorted index sets.
func sameHull(t *testing.T, name string, pts []geom.Vec2) {
	t.Helper()
	got, want := referenceHull(pts), fullChain(pts)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: referenceHull %v, full monotone chain %v", name, got, want)
	}
}

// grid returns the points (x, y) of a w × h integer grid.
func grid(w, h int) []geom.Vec2 {
	var pts []geom.Vec2
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			pts = append(pts, geom.Vec2{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

// TestReferenceHullMatchesFullChain: the filter drops no hull vertex,
// on random inputs and on the degenerate ones it must keep points for:
// collinear boundaries, duplicates, coincident points and points on
// the extreme polygon's edges.
func TestReferenceHullMatchesFullChain(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		for _, n := range []int{2, 3, 5, 10, 100, 1000, 25_000} {
			// The race detector slows the oracle's sort about eightfold
			// and the reference has no goroutines to race: there, and
			// under -short, 30 seeds cover the largest size.
			if n == 25_000 && seed >= 30 && (raceEnabled || testing.Short()) {
				continue
			}
			sameHull(t, fmt.Sprintf("RandomPoints2(%d, %d)", n, seed), geom.RandomPoints2(n, seed))
		}
	}
	for w := 1; w <= 6; w++ {
		for h := 1; h <= 6; h++ {
			sameHull(t, fmt.Sprintf("%d×%d grid", w, h), grid(w, h))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pts := geom.RandomPoints2(50, int64(trial))
		for k := rng.Intn(100); k > 0; k-- {
			pts = append(pts, pts[rng.Intn(len(pts))])
		}
		rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		sameHull(t, fmt.Sprintf("duplicated points, trial %d", trial), pts)
	}
	for _, n := range []int{1, 2, 3, 10} {
		sameHull(t, fmt.Sprintf("%d coincident points", n), slices.Repeat([]geom.Vec2{{X: 0.3, Y: -2}}, n))
	}
	// An octagon's integer points: edges of the extreme polygon pass
	// exactly through some of them (in either order, which picks
	// different tied extremes), and the filter must keep those for the
	// chain to drop.
	var pts []geom.Vec2
	for _, p := range grid(7, 7) {
		if inOctagon(p) {
			pts = append(pts, p)
		}
	}
	sameHull(t, "octagon with its edge points", pts)
	slices.Reverse(pts)
	sameHull(t, "octagon with its edge points, reversed", pts)
}

// inOctagon reports whether p is inside or on the octagon x, y ∈ [0, 6],
// 2 ≤ x+y ≤ 10, |x−y| ≤ 4.
func inOctagon(p geom.Vec2) bool {
	return p.X+p.Y >= 2 && p.X+p.Y <= 10 && math.Abs(p.X-p.Y) <= 4
}

// FuzzReferenceHull: referenceHull equals the unfiltered chain on
// small-integer coordinates, where ties, duplicates and collinear
// points are common.
func FuzzReferenceHull(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{0, 0, 4, 0, 4, 4, 0, 4, 2, 0, 4, 2, 2, 4, 0, 2, 2, 2})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 0, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := make([]geom.Vec2, len(data)/2)
		for i := range pts {
			pts[i] = geom.Vec2{X: float64(data[2*i] % 8), Y: float64(data[2*i+1] % 8)}
		}
		sameHull(t, fmt.Sprintf("%v", pts), pts)
	})
}
