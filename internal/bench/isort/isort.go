// Package isort implements the paper's "Sort" benchmark (PBBS Integer
// Sort): a parallel least-significant-digit radix sort over uint32
// keys, 8 bits per pass. Each pass runs a parallel per-block
// histogram, a serial bucket scan, and a parallel scatter into
// per-(block,bucket) disjoint output ranges.
//
// The real computation executes (and is verified against the input's
// key multiset); virtual cost is charged per element with the
// calibrated per-op cycle weights below, at the memory-bound fraction
// typical of radix sort's scatter-heavy access pattern.
package isort

import (
	"fmt"
	"math/rand"

	"hermes/internal/units"
	"hermes/internal/wl"
)

const (
	bits    = 8
	buckets = 1 << bits
	passes  = 32 / bits

	// Virtual cost model: cycles per element for the histogram and
	// scatter phases, and the memory-bound fraction of that work.
	histCyclesPerElem    = 16
	scatterCyclesPerElem = 40
	scanCyclesPerSlot    = 4
	memFrac              = 0.86
)

// Job is one sortable problem instance.
type Job struct {
	Keys   []uint32
	tmp    []uint32
	fp     uint64 // the input's key-multiset fingerprint
	blocks int
}

// New creates a deterministic instance of n random keys split into
// work blocks sized for tasks in the tens of microseconds.
func New(n int, seed int64) *Job {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	blocks := n / 18000
	if blocks < 1 {
		blocks = 1
	}
	if blocks > 512 {
		blocks = 512
	}
	return &Job{Keys: keys, tmp: make([]uint32, n), fp: fingerprint(keys), blocks: blocks}
}

// Root sorts Keys in place (an even number of passes lands the result
// back in Keys).
func (j *Job) Root(c wl.Ctx) {
	n := len(j.Keys)
	if n == 0 {
		return
	}
	B := j.blocks
	counts := make([][]int, B)
	for i := range counts {
		counts[i] = make([]int, buckets)
	}
	src, dst := j.Keys, j.tmp
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * bits)

		// Phase 1: per-block histograms, in parallel.
		wl.For(c, 0, B, 1, func(c wl.Ctx, lo, hi int) {
			for b := lo; b < hi; b++ {
				cnt := counts[b]
				for i := range cnt {
					cnt[i] = 0
				}
				blo, bhi := j.blockRange(b, n)
				for _, k := range src[blo:bhi] {
					cnt[(k>>shift)&(buckets-1)]++
				}
				c.WorkMix(units.Cycles((bhi-blo)*histCyclesPerElem), memFrac)
			}
		})

		// Phase 2: serial exclusive scan, bucket-major, so each
		// (bucket, block) pair owns a disjoint output range.
		off := 0
		for bk := 0; bk < buckets; bk++ {
			for b := 0; b < B; b++ {
				v := counts[b][bk]
				counts[b][bk] = off
				off += v
			}
		}
		c.WorkMix(units.Cycles(buckets*B*scanCyclesPerSlot), 0.2)

		// Phase 3: scatter, in parallel; blocks write disjoint slots.
		wl.For(c, 0, B, 1, func(c wl.Ctx, lo, hi int) {
			for b := lo; b < hi; b++ {
				cnt := counts[b]
				blo, bhi := j.blockRange(b, n)
				for _, k := range src[blo:bhi] {
					bk := (k >> shift) & (buckets - 1)
					dst[cnt[bk]] = k
					cnt[bk]++
				}
				c.WorkMix(units.Cycles((bhi-blo)*scatterCyclesPerElem), memFrac)
			}
		})

		src, dst = dst, src
	}
}

func (j *Job) blockRange(b, n int) (int, int) {
	lo := b * n / j.blocks
	hi := (b + 1) * n / j.blocks
	return lo, hi
}

// Check verifies the result: non-decreasing order and the input's key
// multiset.
func (j *Job) Check() error {
	for i := 1; i < len(j.Keys); i++ {
		if j.Keys[i-1] > j.Keys[i] {
			return fmt.Errorf("isort: keys[%d]=%d > keys[%d]=%d", i-1, j.Keys[i-1], i, j.Keys[i])
		}
	}
	if fp := fingerprint(j.Keys); fp != j.fp {
		return fmt.Errorf("isort: key multiset differs from the input's: fingerprint %#x != %#x", fp, j.fp)
	}
	return nil
}

// fingerprint is an order-independent fingerprint of a key multiset:
// the sum mod 2⁶⁴ of a bijective 64-bit mix (splitmix64's finalizer)
// of each key. Unlike the plain key sum, it changes when keys are
// swapped for others with the same sum, barring a 64-bit collision.
func fingerprint(keys []uint32) uint64 {
	var fp uint64
	for _, k := range keys {
		z := (uint64(k) ^ uint64(k)>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		fp += z ^ z>>31
	}
	return fp
}
