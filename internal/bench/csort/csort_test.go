package csort

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hermes/internal/core"
	"hermes/internal/cpu"
)

func TestSortsCorrectly(t *testing.T) {
	j := New(60_000, 1)
	core.Run(core.Config{Spec: cpu.SystemA(), Workers: 8, Mode: core.Unified, Seed: 1}, j.Root)
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(j.Keys) {
		t.Fatal("keys not sorted")
	}
}

func TestSmallFallback(t *testing.T) {
	// Below 4×buckets the job sorts serially; all sizes must verify.
	for _, n := range []int{0, 1, 2, 100, 255, 256, 300} {
		j := New(n, 2)
		core.Run(core.Config{Workers: 2, Seed: 2}, j.Root)
		if err := j.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSkewedInputSorts(t *testing.T) {
	// The generator mixes exponential and uniform keys; heavily skewed
	// buckets must still verify (this exercises uneven phase-4 tasks).
	j := New(30_000, 77)
	core.Run(core.Config{Workers: 16, Mode: core.Unified, Seed: 77}, j.Root)
	if err := j.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCatchesUnsorted(t *testing.T) {
	j := New(5000, 3)
	core.Run(core.Config{Workers: 2, Seed: 3}, j.Root)
	j.Keys[0], j.Keys[4000] = j.Keys[4000], j.Keys[0]
	if err := j.Check(); err == nil {
		t.Fatal("swapped keys passed verification")
	}
}

func TestLog2(t *testing.T) {
	if log2(1) != 1 || log2(2) != 1 || log2(1024) != 10 {
		t.Fatalf("log2: %v %v %v", log2(1), log2(2), log2(1024))
	}
}

// TestBucketMatchesSearchFloat64s: the hand-written pivot search puts
// every key where sort.SearchFloat64s does, on random pivots with
// ties and on keys at a pivot, between ties, at ±0, ±Inf and NaN.
func TestBucketMatchesSearchFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 300; trial++ {
		p := make([]float64, rng.Intn(70))
		for i := range p {
			p[i] = float64(rng.Intn(8)) / 4
			if rng.Intn(10) == 0 {
				p[i] = negZero
			}
		}
		sort.Float64s(p)
		keys := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, negZero, rng.Float64() * 2, -1, 3}
		keys = append(keys, p...)
		for _, x := range keys {
			if got, want := bucket(p, x), sort.SearchFloat64s(p, x); got != want {
				t.Fatalf("pivots %v, key %v: bucket %d, SearchFloat64s %d", p, x, got, want)
			}
		}
	}
}

// TestCheckCatchesEqualSumSwap: a sorted output whose keys were swapped
// for others with the same sum, like [1, 2, 3] → [1, 1, 4], has lost
// the input's key multiset.
func TestCheckCatchesEqualSumSwap(t *testing.T) {
	j := New(5000, 3)
	core.Run(core.Config{Workers: 2, Seed: 3}, j.Root)
	const d = 1e-9
	i := 0
	for j.Keys[i+1]-j.Keys[i] < 4*d {
		i++
	}
	j.Keys[i] += d
	j.Keys[i+1] -= d
	if err := j.Check(); err == nil {
		t.Fatal("sorted keys with the input's sum but not its multiset passed verification")
	}
}
