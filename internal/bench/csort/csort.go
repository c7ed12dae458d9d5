// Package csort implements the paper's "Compare" benchmark (PBBS
// Comparison Sort): a parallel sample sort over float64 keys. An
// oversampled pivot set splits the input into buckets; blocks classify
// and scatter their elements in parallel; buckets then sort in
// parallel with sizes that vary by input skew — the irregularity that
// distinguishes Compare from the radix Sort benchmark.
package csort

import (
	"fmt"
	"math/rand"
	"sort"

	"hermes/internal/units"
	"hermes/internal/wl"
)

const (
	numBuckets   = 64
	oversample   = 8
	classifyCPE  = 24  // cycles per element: binary search over pivots
	scatterCPE   = 32  // cycles per element: bucket write
	sortCPC      = 4.0 // cycles per comparison in the final bucket sorts
	memFrac      = 0.84
	finalMemFrac = 0.76
)

// Job is one sortable instance.
type Job struct {
	Keys   []float64
	tmp    []float64
	sum    float64
	blocks int
}

// New creates a deterministic instance: a mixture of uniform and
// exponentially skewed keys, so bucket sizes are uneven.
func New(n int, seed int64) *Job {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	var sum float64
	for i := range keys {
		if rng.Intn(3) == 0 {
			keys[i] = rng.ExpFloat64() * 0.1
		} else {
			keys[i] = rng.Float64()
		}
		sum += keys[i]
	}
	blocks := n / 18000
	if blocks < 1 {
		blocks = 1
	}
	if blocks > 512 {
		blocks = 512
	}
	return &Job{Keys: keys, tmp: make([]float64, n), sum: sum, blocks: blocks}
}

// Root sorts Keys in place.
func (j *Job) Root(c wl.Ctx) {
	n := len(j.Keys)
	if n == 0 {
		return
	}
	if n < 4*numBuckets {
		sort.Float64s(j.Keys)
		c.WorkMix(units.Cycles(float64(n)*sortCPC*log2(n)), finalMemFrac)
		return
	}

	// Pivot selection: deterministic oversample, sorted serially.
	rng := rand.New(rand.NewSource(int64(n)))
	sample := make([]float64, numBuckets*oversample)
	for i := range sample {
		sample[i] = j.Keys[rng.Intn(n)]
	}
	sort.Float64s(sample)
	pivots := make([]float64, numBuckets-1)
	for i := range pivots {
		pivots[i] = sample[(i+1)*oversample]
	}
	c.WorkMix(units.Cycles(float64(len(sample))*sortCPC*log2(len(sample))), 0.2)

	B := j.blocks
	counts := make([][]int, B)
	for i := range counts {
		counts[i] = make([]int, numBuckets)
	}
	bucketOf := make([]uint8, n)

	// Phase 1: classify each element (binary search over pivots).
	wl.For(c, 0, B, 1, func(c wl.Ctx, lo, hi int) {
		for b := lo; b < hi; b++ {
			blo, bhi := j.blockRange(b, n)
			cnt := counts[b]
			for i := blo; i < bhi; i++ {
				bk := bucket(pivots, j.Keys[i])
				bucketOf[i] = uint8(bk)
				cnt[bk]++
			}
			c.WorkMix(units.Cycles((bhi-blo)*classifyCPE), memFrac)
		}
	})

	// Phase 2: serial scan, bucket-major; record bucket boundaries.
	bucketStart := make([]int, numBuckets+1)
	off := 0
	for bk := 0; bk < numBuckets; bk++ {
		bucketStart[bk] = off
		for b := 0; b < B; b++ {
			v := counts[b][bk]
			counts[b][bk] = off
			off += v
		}
	}
	bucketStart[numBuckets] = n
	c.WorkMix(units.Cycles(numBuckets*B*4), 0.2)

	// Phase 3: scatter into bucket-contiguous tmp, in parallel.
	wl.For(c, 0, B, 1, func(c wl.Ctx, lo, hi int) {
		for b := lo; b < hi; b++ {
			blo, bhi := j.blockRange(b, n)
			cnt := counts[b]
			for i := blo; i < bhi; i++ {
				bk := bucketOf[i]
				j.tmp[cnt[bk]] = j.Keys[i]
				cnt[bk]++
			}
			c.WorkMix(units.Cycles((bhi-blo)*scatterCPE), memFrac)
		}
	})

	// Phase 4: sort each bucket in parallel — sizes are skewed, so
	// this phase is where stealing gets irregular.
	wl.For(c, 0, numBuckets, 1, func(c wl.Ctx, lo, hi int) {
		for bk := lo; bk < hi; bk++ {
			seg := j.tmp[bucketStart[bk]:bucketStart[bk+1]]
			sort.Float64s(seg)
			if len(seg) > 1 {
				c.WorkMix(units.Cycles(float64(len(seg))*sortCPC*log2(len(seg))), finalMemFrac)
			}
		}
	})

	// Copy back in parallel.
	wl.For(c, 0, B, 1, func(c wl.Ctx, lo, hi int) {
		for b := lo; b < hi; b++ {
			blo, bhi := j.blockRange(b, n)
			copy(j.Keys[blo:bhi], j.tmp[blo:bhi])
			c.WorkMix(units.Cycles((bhi-blo)*6), 0.7)
		}
	})
}

// bucket is sort.SearchFloat64s(p, x) without the closure call: the
// smallest i with p[i] >= x, or len(p), by the same bisection, so a
// NaN or a signed zero lands where SearchFloat64s puts it.
func bucket(p []float64, x float64) int {
	lo, hi := 0, len(p)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if !(p[m] >= x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (j *Job) blockRange(b, n int) (int, int) {
	return b * n / j.blocks, (b + 1) * n / j.blocks
}

// Check verifies ordering and the key-sum invariant.
func (j *Job) Check() error {
	var sum float64
	for i, k := range j.Keys {
		if i > 0 && j.Keys[i-1] > k {
			return fmt.Errorf("csort: keys[%d] > keys[%d]", i-1, i)
		}
		sum += k
	}
	diff := sum - j.sum
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-6*(1+j.sum) {
		return fmt.Errorf("csort: key sum drifted: %g vs %g", sum, j.sum)
	}
	return nil
}

func log2(n int) float64 {
	l := 0.0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	if l == 0 {
		return 1
	}
	return l
}
