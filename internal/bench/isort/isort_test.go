package isort

import (
	"sort"
	"testing"
	"testing/quick"

	"hermes/internal/core"
	"hermes/internal/cpu"
)

func TestSortsCorrectly(t *testing.T) {
	j := New(50_000, 1)
	core.Run(core.Config{Spec: cpu.SystemA(), Workers: 8, Mode: core.Unified, Seed: 1}, j.Root)
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(j.Keys, func(a, b int) bool { return j.Keys[a] < j.Keys[b] }) {
		t.Fatal("keys not sorted")
	}
}

func TestSmallAndEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 255, 256, 257} {
		j := New(n, 2)
		core.Run(core.Config{Workers: 2, Seed: 2}, j.Root)
		if err := j.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestChecksumCatchesCorruption(t *testing.T) {
	j := New(1000, 3)
	core.Run(core.Config{Workers: 2, Seed: 3}, j.Root)
	j.Keys[500] ^= 0xffff
	if err := j.Check(); err == nil {
		t.Fatal("corrupted result passed verification")
	}
}

func TestOrderCatchesCorruption(t *testing.T) {
	j := New(1000, 3)
	core.Run(core.Config{Workers: 2, Seed: 3}, j.Root)
	j.Keys[10], j.Keys[900] = j.Keys[900], j.Keys[10]
	if err := j.Check(); err == nil {
		t.Fatal("swapped result passed verification")
	}
}

func TestRadixEqualsStdSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		j := New(3000, seed)
		ref := make([]uint32, len(j.Keys))
		copy(ref, j.Keys)
		core.Run(core.Config{Workers: 4, Seed: seed}, j.Root)
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		for i := range ref {
			if ref[i] != j.Keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCatchesEqualSumSwap: a sorted output whose keys were swapped
// for others with the same sum, like [1, 2, 3] → [1, 1, 4], has lost
// the input's key multiset.
func TestCheckCatchesEqualSumSwap(t *testing.T) {
	j := New(1000, 3)
	core.Run(core.Config{Workers: 2, Seed: 3}, j.Root)
	i := 0
	for j.Keys[i+1]-j.Keys[i] < 2 {
		i++
	}
	j.Keys[i]++
	j.Keys[i+1]--
	if err := j.Check(); err == nil {
		t.Fatal("sorted keys with the input's sum but not its multiset passed verification")
	}
}
