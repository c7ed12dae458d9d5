package wl

import (
	"testing"

	"hermes/internal/units"
)

// fakeCtx runs tasks inline and records Work/Mem accounting, for
// testing the wl helpers without a scheduler.
type fakeCtx struct {
	cycles units.Cycles
	mem    units.Time
	blocks int
}

func (f *fakeCtx) Go(tasks ...Task) {
	f.blocks++
	for _, t := range tasks {
		t(f)
	}
}
func (f *fakeCtx) Fork2(b Body, a0, a1, b0, b1 int) (int, int) {
	f.blocks++
	x := b(f, a0, a1)
	return x, b(f, b0, b1)
}
func (f *fakeCtx) Work(c units.Cycles) { f.cycles += c }
func (f *fakeCtx) Mem(d units.Time)    { f.mem += d }
func (f *fakeCtx) WorkMix(c units.Cycles, frac float64) {
	mem := units.Cycles(float64(c) * frac)
	f.cycles += c - mem
	f.mem += mem.DurationAt(2_400_000 * units.KHz)
}
func (f *fakeCtx) Worker() int { return 0 }

func TestForCoversRangeOnce(t *testing.T) {
	seen := make([]int, 100)
	f := &fakeCtx{}
	For(f, 0, 100, 7, func(c Ctx, lo, hi int) {
		if hi-lo > 7 {
			t.Errorf("chunk [%d,%d) exceeds grain", lo, hi)
		}
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestForEmptyAndReversed(t *testing.T) {
	f := &fakeCtx{}
	calls := 0
	For(f, 5, 5, 1, func(c Ctx, lo, hi int) { calls++ })
	For(f, 9, 3, 1, func(c Ctx, lo, hi int) { calls++ })
	if calls != 0 {
		t.Fatalf("empty/reversed ranges ran body %d times", calls)
	}
}

func TestForGrainClamp(t *testing.T) {
	f := &fakeCtx{}
	total := 0
	For(f, 0, 10, 0, func(c Ctx, lo, hi int) { total += hi - lo })
	if total != 10 {
		t.Fatalf("covered %d of 10 with grain 0 (clamped to 1)", total)
	}
}

func TestSeqOrder(t *testing.T) {
	f := &fakeCtx{}
	var order []int
	Seq(f,
		func(Ctx) { order = append(order, 1) },
		func(Ctx) { order = append(order, 2) },
		func(Ctx) { order = append(order, 3) },
	)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("Seq order = %v", order)
	}
}

func TestForSingleElement(t *testing.T) {
	f := &fakeCtx{}
	ran := false
	For(f, 3, 4, 10, func(c Ctx, lo, hi int) {
		if lo != 3 || hi != 4 {
			t.Fatalf("bounds [%d,%d)", lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("single-element range skipped")
	}
}
