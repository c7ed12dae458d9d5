package hull

import (
	"slices"
	"sync"
	"testing"

	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/geom"
)

func TestHullMatchesReference(t *testing.T) {
	j := Factory(40_000, 1)()
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
		j := Factory(n, 2)()
		core.Run(core.Config{Workers: 2, Seed: 2}, j.Root)
		if err := j.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestHullPointsAreExtreme(t *testing.T) {
	j := Factory(5000, 3)()
	core.Run(core.Config{Workers: 4, Seed: 3}, j.Root)
	// Every non-hull point must lie inside or on the hull: verify via
	// the reference hull's containment (cross products against the
	// ordered reference chain would be overkill — instead check that
	// removing any hull point changes the hull).
	onHull := map[int]bool{}
	for _, h := range j.Hull {
		onHull[h] = true
	}
	// The two x-extremes are always on the hull.
	mn, mx := 0, 0
	for i, p := range j.pts {
		if less(p, j.pts[mn]) {
			mn = i
		}
		if less(j.pts[mx], p) {
			mx = i
		}
	}
	if !onHull[mn] || !onHull[mx] {
		t.Fatal("x-extreme points missing from hull")
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
	j := Factory(3000, 4)()
	core.Run(core.Config{Workers: 4, Seed: 4}, j.Root)
	j.Hull = j.Hull[:len(j.Hull)-1]
	if err := j.Check(); err == nil {
		t.Fatal("truncated hull passed verification")
	}
}

// TestFactorySecondRunStillChecked: the reference the first run's
// Check fills is the one the second run is checked against, so a
// corrupted second run still fails, and the runs' outputs are their own.
func TestFactorySecondRunStillChecked(t *testing.T) {
	f := Factory(3000, 6)
	a, b := f(), f()
	core.Run(core.Config{Workers: 4, Seed: 6}, a.Root)
	core.Run(core.Config{Workers: 4, Seed: 7}, b.Root)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if len(a.ref.want) == 0 {
		t.Fatal("the first Check left the reference empty")
	}
	b.Hull = b.Hull[:len(b.Hull)-1]
	if err := b.Check(); err == nil {
		t.Fatal("corrupted second run passed verification")
	}
	if err := a.Check(); err != nil {
		t.Fatalf("corrupting the second run broke the first: %v", err)
	}
}

// TestRootLeavesInputUntouched: the shared reference is computed from
// whichever run checks first, so Root must not write the points.
func TestRootLeavesInputUntouched(t *testing.T) {
	f := Factory(3000, 8)
	j := f()
	core.Run(core.Config{Workers: 4, Seed: 8}, j.Root)
	if !slices.Equal(j.pts, f().pts) {
		t.Fatal("Root wrote its input")
	}
}

// TestConcurrentRunsShareOneReference: four goroutines take runs from
// one factory and check them at once (run under -race); the corrupted
// one fails whichever goroutine computes the reference.
func TestConcurrentRunsShareOneReference(t *testing.T) {
	f := Factory(3000, 9)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := f()
			core.Run(core.Config{Workers: 2, Seed: int64(i)}, j.Root)
			if i == 3 {
				j.Hull = j.Hull[:len(j.Hull)-1]
			}
			errs[i] = j.Check()
		}()
	}
	wg.Wait()
	for i, err := range errs[:3] {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if errs[3] == nil {
		t.Fatal("corrupted run passed verification")
	}
}
