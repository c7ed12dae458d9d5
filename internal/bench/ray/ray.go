// Package ray implements the paper's "Ray" benchmark (PBBS Sparse-
// Triangle Intersection): for every ray, find the first triangle it
// penetrates inside a 3-D bounding box. A BVH is built in parallel
// over the triangle set (median split on the longest centroid axis),
// then rays traverse it in parallel. Traversal cost varies wildly
// between rays that hit dense clusters and rays that miss everything.
package ray

import (
	"fmt"
	"sync"

	"hermes/internal/geom"
	"hermes/internal/units"
	"hermes/internal/wl"
)

const (
	leafSize     = 8
	buildCPE     = 28 // cycles per triangle per partition level
	nodeVisitCPE = 14 // cycles per BVH node visited
	triTestCPE   = 44 // cycles per ray-triangle test
	buildMemFrac = 0.80
	queryMemFrac = 0.80
	buildGrain   = 4096
	rayGrain     = 512
	maxRayT      = 1e30
)

type node struct {
	box         geom.AABB
	lo, hi      int
	left, right int // -1 for leaves
}

// Job is one ray-casting run.
type Job struct {
	ref  *reference
	tris []geom.Triangle
	rays []geom.Ray

	idx   []int
	edges []geom.Edges // edges[k] is triangle idx[k]'s, once fill has placed it
	nodes []node
	root  int

	// Hit holds, per ray, the index of the first triangle hit (-1 for
	// a miss) — the verification artifact.
	Hit []int
}

// reference holds the brute-force answers for the sampled rays, which
// the runs of one Factory share.
type reference struct {
	once sync.Once
	hits []refHit
}

type refHit struct {
	ray, tri int     // tri is -1 for a miss
	t        float64 // depth of the hit
}

// Factory makes runs with nTris triangles and nRays rays: each run gets
// a freshly generated copy of the scene and its own outputs, and all
// runs share one brute-force reference, computed at most once, from the
// input.
func Factory(nTris, nRays int, seed int64) func() *Job {
	ref := &reference{}
	return func() *Job {
		idx := make([]int, nTris)
		for i := range idx {
			idx[i] = i
		}
		return &Job{
			ref:   ref,
			tris:  geom.RandomTriangles(nTris, seed),
			rays:  geom.RandomRays(nRays, seed+1),
			idx:   idx,
			edges: make([]geom.Edges, nTris),
			Hit:   make([]int, nRays),
		}
	}
}

// Root builds the BVH and casts every ray.
func (j *Job) Root(c wl.Ctx) {
	if len(j.tris) == 0 {
		for i := range j.Hit {
			j.Hit[i] = -1
		}
		return
	}
	j.nodes = j.nodes[:0]
	j.root = j.layout(0, len(j.idx))
	j.fill(c, j.root)
	j.refit(j.root)
	c.WorkMix(units.Cycles(len(j.nodes)*8), 0.4) // refit pass

	wl.For(c, 0, len(j.rays), rayGrain, func(c wl.Ctx, lo, hi int) {
		nodesVisited, triTests := 0, 0
		for r := lo; r < hi; r++ {
			var nv, tt int
			j.Hit[r], nv, tt = j.cast(j.rays[r])
			nodesVisited += nv
			triTests += tt
		}
		c.WorkMix(units.Cycles(nodesVisited*nodeVisitCPE+triTests*triTestCPE), queryMemFrac)
	})
}

// layout reserves the (size-determined) node tree serially.
func (j *Job) layout(lo, hi int) int {
	id := len(j.nodes)
	j.nodes = append(j.nodes, node{lo: lo, hi: hi, left: -1, right: -1})
	if hi-lo <= leafSize {
		return id
	}
	mid := lo + (hi-lo)/2
	l := j.layout(lo, mid)
	r := j.layout(mid, hi)
	j.nodes[id].left = l
	j.nodes[id].right = r
	return id
}

// fill partitions triangles by centroid median along the longest axis,
// in parallel above buildGrain.
func (j *Job) fill(c wl.Ctx, id int) {
	n := &j.nodes[id]
	lo, hi := n.lo, n.hi
	c.WorkMix(units.Cycles((hi-lo)*buildCPE), buildMemFrac)
	if n.left < 0 {
		for k := lo; k < hi; k++ {
			j.edges[k] = j.tris[j.idx[k]].Edges()
		}
		return
	}
	cb := geom.EmptyAABB()
	for _, t := range j.idx[lo:hi] {
		cb.Extend(j.tris[t].Centroid())
	}
	axis := cb.LongestAxis()
	mid := lo + (hi-lo)/2
	j.selectNth(lo, hi, mid, axis)

	left, right := n.left, n.right
	if hi-lo > buildGrain {
		c.Go(
			func(c wl.Ctx) { j.fill(c, left) },
			func(c wl.Ctx) { j.fill(c, right) },
		)
	} else {
		j.fill(c, left)
		j.fill(c, right)
	}
}

// refit computes node bounding boxes bottom-up (serial; cheap).
func (j *Job) refit(id int) geom.AABB {
	n := &j.nodes[id]
	if n.left < 0 {
		bb := geom.EmptyAABB()
		for _, t := range j.idx[n.lo:n.hi] {
			tb := j.tris[t].Bounds()
			bb.Union(tb)
		}
		n.box = bb
		return bb
	}
	bb := j.refit(n.left)
	rb := j.refit(n.right)
	bb.Union(rb)
	n.box = bb
	return bb
}

func (j *Job) centroidCoord(t, axis int) float64 {
	ce := j.tris[t].Centroid()
	switch axis {
	case 0:
		return ce.X
	case 1:
		return ce.Y
	}
	return ce.Z
}

// selectNth is a deterministic Hoare quickselect over triangle
// centroids.
func (j *Job) selectNth(lo, hi, nth, axis int) {
	for hi-lo > 2 {
		mid := lo + (hi-lo)/2
		pivot := geom.Median3(
			j.centroidCoord(j.idx[lo], axis),
			j.centroidCoord(j.idx[mid], axis),
			j.centroidCoord(j.idx[hi-1], axis),
		)
		i, k := lo, hi-1
		for i <= k {
			for j.centroidCoord(j.idx[i], axis) < pivot {
				i++
			}
			for j.centroidCoord(j.idx[k], axis) > pivot {
				k--
			}
			if i <= k {
				j.idx[i], j.idx[k] = j.idx[k], j.idx[i]
				i++
				k--
			}
		}
		switch {
		case nth <= k:
			hi = k + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
	for a := lo + 1; a < hi; a++ {
		for b := a; b > lo && j.centroidCoord(j.idx[b], axis) < j.centroidCoord(j.idx[b-1], axis); b-- {
			j.idx[b], j.idx[b-1] = j.idx[b-1], j.idx[b]
		}
	}
}

// cast returns the first triangle index hit by r (or -1), plus visit
// counters for cost accounting. Traversal visits the nearer child
// first so an early hit prunes the far subtree.
func (j *Job) cast(r geom.Ray) (hit, nodesVisited, triTests int) {
	hit = -1
	best := maxRayT
	inv := r.InvDir()
	var stack [64]int
	sp := 0
	stack[sp] = j.root
	sp++
	for sp > 0 {
		sp--
		id := stack[sp]
		n := &j.nodes[id]
		nodesVisited++
		if !n.box.IntersectRay(r, inv, best) {
			continue
		}
		if n.left < 0 {
			for k := n.lo; k < n.hi; k++ {
				triTests++
				if d, ok := r.IntersectEdges(j.edges[k]); ok && d < best {
					best = d
					hit = j.idx[k]
				}
			}
			continue
		}
		// Push the farther child first (approximate: compare box
		// centroids along the dominant ray axis) so the nearer pops
		// first; stack depth is bounded by the tree height.
		near, far := n.left, n.right
		if j.nodes[far].box.Min.Sub(r.O).Dot(r.D) < j.nodes[near].box.Min.Sub(r.O).Dot(r.D) {
			near, far = far, near
		}
		if sp+2 <= len(stack) {
			stack[sp] = far
			sp++
			stack[sp] = near
			sp++
		} else {
			// Tree deeper than the fixed stack (cannot happen with
			// leafSize ≥ 8 and n ≤ 2^60, but stay safe).
			stack[sp] = near
			sp++
		}
	}
	return hit, nodesVisited, triTests
}

// Check verifies a deterministic sample of rays against brute force.
func (j *Job) Check() error {
	j.ref.once.Do(func() {
		for r := 0; r < len(j.rays); r += max(len(j.rays)/13, 1) {
			w := refHit{ray: r, tri: -1, t: maxRayT}
			for t := range j.tris {
				if d, ok := j.rays[r].IntersectTriangle(j.tris[t]); ok && d < w.t {
					w.t, w.tri = d, t
				}
			}
			j.ref.hits = append(j.ref.hits, w)
		}
	})
	for _, w := range j.ref.hits {
		if got := j.Hit[w.ray]; got != w.tri {
			// Two triangles at (numerically) the same depth can swap;
			// accept if the distances match closely.
			if got >= 0 && w.tri >= 0 {
				dg, okg := j.rays[w.ray].IntersectTriangle(j.tris[got])
				if okg {
					diff := dg - w.t
					if diff < 0 {
						diff = -diff
					}
					if diff <= 1e-12*(1+w.t) {
						continue
					}
				}
			}
			return fmt.Errorf("ray: ray %d hit %d, brute force %d", w.ray, got, w.tri)
		}
	}
	return nil
}
