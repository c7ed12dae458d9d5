package ray

import (
	"slices"
	"testing"

	"hermes/internal/core"
	"hermes/internal/cpu"
)

func TestHitsMatchBruteForce(t *testing.T) {
	j := New(2000, 4000, 1)
	core.Run(core.Config{Spec: cpu.SystemA(), Workers: 8, Mode: core.Unified, Seed: 1}, j.Root)
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
	if j.HitCount() == 0 {
		t.Fatal("no ray hit anything in a dense scene")
	}
}

func TestSmallScenes(t *testing.T) {
	for _, n := range []int{1, 2, 8, 9, 50} {
		j := New(n, 100, 2)
		core.Run(core.Config{Workers: 2, Seed: 2}, j.Root)
		if err := j.Check(); err != nil {
			t.Fatalf("tris=%d: %v", n, err)
		}
	}
}

func TestEmptyScene(t *testing.T) {
	j := New(0, 50, 3)
	core.Run(core.Config{Workers: 2, Seed: 3}, j.Root)
	for i, h := range j.Hit {
		if h != -1 {
			t.Fatalf("ray %d hit %d in an empty scene", i, h)
		}
	}
}

func TestBVHRefitCoversLeaves(t *testing.T) {
	j := New(500, 10, 4)
	core.Run(core.Config{Workers: 2, Seed: 4}, j.Root)
	// Every triangle's bounds must be inside its leaf's box, and every
	// node box inside its parent's.
	var walk func(id int)
	var depth int
	walk = func(id int) {
		n := &j.nodes[id]
		if n.left < 0 {
			for _, ti := range j.idx[n.lo:n.hi] {
				bb := j.tris[ti].Bounds()
				if bb.Min.X < n.box.Min.X-1e-12 || bb.Max.X > n.box.Max.X+1e-12 {
					t.Fatalf("leaf %d box does not cover triangle %d", id, ti)
				}
			}
			return
		}
		for _, ch := range []int{n.left, n.right} {
			c := &j.nodes[ch]
			if c.box.Min.X < n.box.Min.X-1e-12 || c.box.Max.X > n.box.Max.X+1e-12 {
				t.Fatalf("child %d box exceeds parent %d", ch, id)
			}
		}
		depth++
		walk(n.left)
		walk(n.right)
	}
	walk(j.root)
}

func TestCheckCatchesCorruption(t *testing.T) {
	j := New(1000, 500, 5)
	core.Run(core.Config{Workers: 4, Seed: 5}, j.Root)
	// Flip a sampled ray's hit to a definitely-wrong value.
	j.Hit[0] = -2
	if err := j.Check(); err == nil {
		t.Fatal("corrupted hit passed verification")
	}
}

// wrongHit returns an answer for ray r that the reference rejects: a
// miss for a ray that hit, a hit for a ray that missed.
func wrongHit(j *Job, r int) int {
	if j.Hit[r] >= 0 {
		return -1
	}
	return 0
}

// TestRootLeavesInputUntouched: Check derives its reference from the
// input after Root ran, so Root must not write the scene.
func TestRootLeavesInputUntouched(t *testing.T) {
	j := New(1000, 500, 8)
	core.Run(core.Config{Workers: 4, Seed: 8}, j.Root)
	fresh := New(1000, 500, 8)
	if !slices.Equal(j.tris, fresh.tris) || !slices.Equal(j.rays, fresh.rays) {
		t.Fatal("Root wrote its input")
	}
}

// TestEdgesFollowLeafOrder: after a run, edges[k] is the precomputed
// edges of triangle idx[k], the triangle a leaf's test at k reports.
func TestEdgesFollowLeafOrder(t *testing.T) {
	j := New(3000, 10, 11)
	core.Run(core.Config{Workers: 4, Seed: 11}, j.Root)
	for k, i := range j.idx {
		if j.edges[k] != j.tris[i].Edges() {
			t.Fatalf("edges[%d] is not triangle %d's", k, i)
		}
	}
}

// HitCount returns how many rays hit any triangle.
func (j *Job) HitCount() int {
	c := 0
	for _, h := range j.Hit {
		if h >= 0 {
			c++
		}
	}
	return c
}
