// Package knn implements the paper's "KNN" benchmark (PBBS
// K-Nearest Neighbors): a kd-tree is built over 2-D points in
// parallel, then every point queries its k nearest neighbours in
// parallel. Query cost varies with local point density (the generator
// clusters a quarter of the points), producing the irregular task
// lengths that drive work stealing.
package knn

import (
	"fmt"
	"sync"

	"hermes/internal/geom"
	"hermes/internal/units"
	"hermes/internal/wl"
)

const (
	leafSize     = 32
	buildCPE     = 18 // cycles per element per partition level
	visitCycles  = 46 // cycles per kd-node visited during a query
	buildMemFrac = 0.82
	queryMemFrac = 0.82
	buildGrain   = 8192 // spawn subtree builds above this size
	queryGrain   = 384
)

type node struct {
	axis        int     // 0 = x, 1 = y; -1 marks a leaf
	split       float64 // splitting coordinate
	lo, hi      int     // index range into idx
	left, right int     // children node ids (leaf: -1)
}

// Job is one KNN run.
type Job struct {
	ref *reference
	pts []geom.Vec2
	k   int

	idx   []int
	byIdx []geom.Vec2 // byIdx[k] is point idx[k], once fill has placed it
	nodes []node
	root  int

	// Result holds, per point, the sum of squared distances to its k
	// nearest neighbours — the verification artifact.
	Result []float64
}

// reference holds the brute-force answers for the sampled queries,
// which the runs of one Factory share.
type reference struct {
	once sync.Once
	sums []refSum
}

type refSum struct {
	q   int
	sum float64
}

// Factory makes runs of n points with k neighbours (k < 1 means 1):
// each run gets a freshly generated copy of the points and its own
// outputs, and all runs share one brute-force reference, computed at
// most once, from the input.
func Factory(n, k int, seed int64) func() *Job {
	ref := &reference{}
	return func() *Job {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return &Job{
			ref:    ref,
			pts:    geom.RandomPoints2(n, seed),
			k:      max(k, 1),
			idx:    idx,
			byIdx:  make([]geom.Vec2, n),
			nodes:  make([]node, 0, 2*n/leafSize+4),
			Result: make([]float64, n),
		}
	}
}

// Root builds the kd-tree and answers every point's k-NN query.
func (j *Job) Root(c wl.Ctx) {
	if len(j.pts) == 0 {
		return
	}
	// The tree shape depends only on range sizes (median splits), so a
	// cheap serial pre-pass lays out node ids; the parallel fill pass
	// then writes disjoint pre-reserved slots — no appends from
	// parallel tasks.
	j.nodes = j.nodes[:0]
	j.root = j.layout(0, len(j.idx))
	j.fill(c, j.root)
	wl.For(c, 0, len(j.pts), queryGrain, func(c wl.Ctx, lo, hi int) {
		visited := 0
		h := knnHeap{d: make([]float64, 0, j.k), k: j.k}
		for q := lo; q < hi; q++ {
			h.d = h.d[:0]
			visited = j.search(j.root, q, &h, visited)
			j.Result[q] = h.sum()
		}
		c.WorkMix(units.Cycles(visited*visitCycles), queryMemFrac)
	})
}

// layout reserves node slots for the subtree over idx[lo:hi] and
// returns the subtree's node id. Serial and data-independent.
func (j *Job) layout(lo, hi int) int {
	id := len(j.nodes)
	j.nodes = append(j.nodes, node{lo: lo, hi: hi, left: -1, right: -1, axis: -1})
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

// fill partitions idx for node id and recurses, spawning parallel
// subtree fills above buildGrain. Each task touches only its node and
// its own idx range.
func (j *Job) fill(c wl.Ctx, id int) {
	n := &j.nodes[id]
	lo, hi := n.lo, n.hi
	if n.left < 0 {
		n.axis = -1
		for k := lo; k < hi; k++ {
			j.byIdx[k] = j.pts[j.idx[k]]
		}
		c.WorkMix(units.Cycles((hi-lo)*buildCPE), buildMemFrac)
		return
	}
	bb := j.bounds(lo, hi)
	axis := 0
	if bb.maxY-bb.minY > bb.maxX-bb.minX {
		axis = 1
	}
	mid := lo + (hi-lo)/2
	j.selectNth(lo, hi, mid, axis)
	n.axis = axis
	n.split = j.coord(j.idx[mid], axis)
	c.WorkMix(units.Cycles((hi-lo)*buildCPE), buildMemFrac)

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

type bounds2 struct{ minX, maxX, minY, maxY float64 }

func (j *Job) bounds(lo, hi int) bounds2 {
	b := bounds2{minX: 1e300, maxX: -1e300, minY: 1e300, maxY: -1e300}
	for _, i := range j.idx[lo:hi] {
		p := j.pts[i]
		if p.X < b.minX {
			b.minX = p.X
		}
		if p.X > b.maxX {
			b.maxX = p.X
		}
		if p.Y < b.minY {
			b.minY = p.Y
		}
		if p.Y > b.maxY {
			b.maxY = p.Y
		}
	}
	return b
}

func (j *Job) coord(i, axis int) float64 {
	if axis == 0 {
		return j.pts[i].X
	}
	return j.pts[i].Y
}

// selectNth partially sorts idx[lo:hi] so idx[nth] holds the nth
// element by the axis coordinate (Hoare quickselect with median-of-3
// pivoting; deterministic).
func (j *Job) selectNth(lo, hi, nth, axis int) {
	for hi-lo > 2 {
		mid := lo + (hi-lo)/2
		a, b, c := j.coord(j.idx[lo], axis), j.coord(j.idx[mid], axis), j.coord(j.idx[hi-1], axis)
		pivot := geom.Median3(a, b, c)
		i, k := lo, hi-1
		for i <= k {
			for j.coord(j.idx[i], axis) < pivot {
				i++
			}
			for j.coord(j.idx[k], axis) > pivot {
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
	// Tiny range: insertion sort.
	for a := lo + 1; a < hi; a++ {
		for b := a; b > lo && j.coord(j.idx[b], axis) < j.coord(j.idx[b-1], axis); b-- {
			j.idx[b], j.idx[b-1] = j.idx[b-1], j.idx[b]
		}
	}
}

// knnHeap is a fixed-k max-first list of best squared distances.
type knnHeap struct {
	d []float64
	k int
}

func (h *knnHeap) worst() float64 {
	if len(h.d) < h.k {
		return 1e300
	}
	return h.d[0]
}

func (h *knnHeap) add(d2 float64) {
	if len(h.d) < h.k {
		h.d = append(h.d, d2)
		// sift up to keep max at d[0] (simple insertion; k is small)
		for i := len(h.d) - 1; i > 0 && h.d[i] > h.d[i-1]; i-- {
			h.d[i], h.d[i-1] = h.d[i-1], h.d[i]
		}
		return
	}
	if d2 >= h.d[0] {
		return
	}
	h.d[0] = d2
	for i := 0; i < len(h.d)-1 && h.d[i] < h.d[i+1]; i++ {
		h.d[i], h.d[i+1] = h.d[i+1], h.d[i]
	}
}

func (h *knnHeap) sum() float64 {
	s := 0.0
	for _, d := range h.d {
		s += d
	}
	return s
}

// search adds the squared distances from point q to its nearest
// neighbours (excluding itself) under node id to h and returns the
// running visited-node counter for cost accounting.
func (j *Job) search(id, q int, h *knnHeap, visited int) int {
	visited++
	n := &j.nodes[id]
	p := j.pts[q]
	if n.axis < 0 {
		for k := n.lo; k < n.hi; k++ {
			if j.idx[k] != q {
				h.add(p.Dist2(j.byIdx[k]))
			}
		}
		visited += n.hi - n.lo
		return visited
	}
	var qc float64
	if n.axis == 0 {
		qc = p.X
	} else {
		qc = p.Y
	}
	near, far := n.left, n.right
	if qc > n.split {
		near, far = far, near
	}
	visited = j.search(near, q, h, visited)
	diff := qc - n.split
	if diff*diff < h.worst() {
		visited = j.search(far, q, h, visited)
	}
	return visited
}

// Check verifies a deterministic sample of queries against brute
// force.
func (j *Job) Check() error {
	j.ref.once.Do(func() {
		for q := 0; q < len(j.pts); q += max(len(j.pts)/17, 1) {
			h := knnHeap{d: make([]float64, 0, j.k), k: j.k}
			for i := range j.pts {
				if i == q {
					continue
				}
				h.add(j.pts[q].Dist2(j.pts[i]))
			}
			j.ref.sums = append(j.ref.sums, refSum{q: q, sum: h.sum()})
		}
	})
	for _, w := range j.ref.sums {
		got := j.Result[w.q]
		diff := got - w.sum
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+w.sum) {
			return fmt.Errorf("knn: query %d result %g, brute force %g", w.q, got, w.sum)
		}
	}
	return nil
}
