package knn

import (
	"math"
	"slices"
	"testing"

	"hermes/internal/core"
	"hermes/internal/cpu"
)

func TestQueriesMatchBruteForce(t *testing.T) {
	j := New(5000, 8, 1)
	core.Run(core.Config{Spec: cpu.SystemA(), Workers: 8, Mode: core.Unified, Seed: 1}, j.Root)
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallInputs(t *testing.T) {
	for _, n := range []int{2, 3, 33, 64, 100} {
		j := New(n, 3, 2)
		core.Run(core.Config{Workers: 2, Seed: 2}, j.Root)
		if err := j.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestKClamp(t *testing.T) {
	j := New(100, 0, 4) // k < 1 clamps to 1
	core.Run(core.Config{Workers: 2, Seed: 4}, j.Root)
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	j := New(2000, 4, 5)
	core.Run(core.Config{Workers: 4, Seed: 5}, j.Root)
	j.Result[0] += 1
	if err := j.Check(); err == nil {
		t.Fatal("corrupted result passed verification")
	}
}

func TestSelectNth(t *testing.T) {
	j := New(1000, 1, 6)
	// Partition around the median by x and verify the partition
	// property directly.
	mid := 500
	j.selectNth(0, 1000, mid, 0)
	pivot := j.pts[j.idx[mid]].X
	for i := 0; i < mid; i++ {
		if j.pts[j.idx[i]].X > pivot {
			t.Fatalf("idx[%d].x > median", i)
		}
	}
	for i := mid + 1; i < 1000; i++ {
		if j.pts[j.idx[i]].X < pivot {
			t.Fatalf("idx[%d].x < median", i)
		}
	}
}

func TestHeapSemantics(t *testing.T) {
	h := knnHeap{d: make([]float64, 0, 3), k: 3}
	for _, d := range []float64{9, 1, 5, 7, 3} {
		h.add(d)
	}
	// Best three of {9,1,5,7,3} are {1,3,5}.
	if h.sum() != 9 {
		t.Fatalf("heap sum = %v, want 9", h.sum())
	}
	if h.worst() != 5 {
		t.Fatalf("heap worst = %v, want 5", h.worst())
	}
}

// TestRootLeavesInputUntouched: Check derives its reference from the
// input after Root ran, so Root must not write the points.
func TestRootLeavesInputUntouched(t *testing.T) {
	j := New(2000, 4, 8)
	core.Run(core.Config{Workers: 4, Seed: 8}, j.Root)
	if !slices.Equal(j.pts, New(2000, 4, 8).pts) {
		t.Fatal("Root wrote its input")
	}
}

// searchByIndex is search as it was before leaves scanned the points
// copied into idx order: a leaf reads each point through idx.
func (j *Job) searchByIndex(id, q int, h *knnHeap) {
	n := &j.nodes[id]
	p := j.pts[q]
	if n.axis < 0 {
		for _, i := range j.idx[n.lo:n.hi] {
			if i != q {
				h.add(p.Dist2(j.pts[i]))
			}
		}
		return
	}
	qc := p.X
	if n.axis == 1 {
		qc = p.Y
	}
	near, far := n.left, n.right
	if qc > n.split {
		near, far = far, near
	}
	j.searchByIndex(near, q, h)
	if diff := qc - n.split; diff*diff < h.worst() {
		j.searchByIndex(far, q, h)
	}
}

// TestLeafScanMatchesIndexScan: with leaves scanning byIdx and one heap
// buffer per leaf task, every query's sum is bit-equal to a fresh heap
// per query reading points through idx, on clustered points with
// duplicates (ties in the heap and at a split).
func TestLeafScanMatchesIndexScan(t *testing.T) {
	j := New(3000, 5, 10)
	for i := 0; i < len(j.pts); i += 7 {
		j.pts[i] = j.pts[i/2]
	}
	core.Run(core.Config{Workers: 4, Seed: 10}, j.Root)
	for k, i := range j.idx {
		if j.byIdx[k] != j.pts[i] {
			t.Fatalf("byIdx[%d] = %v, want point %d %v", k, j.byIdx[k], i, j.pts[i])
		}
	}
	for q := range j.pts {
		h := knnHeap{k: j.k}
		j.searchByIndex(j.root, q, &h)
		if got, want := j.Result[q], h.sum(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: %v, index scan %v", q, got, want)
		}
	}
}
