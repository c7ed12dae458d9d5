package knn

import (
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
