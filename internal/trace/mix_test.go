package trace

import (
	"testing"
	"time"
)

// TestMixComposition pins the canonical 2-class mixed trace: batch
// and latency-critical sub-streams interleave in ascending arrival
// order, each point carries its sub-stream's class, the shares land
// near the registered 80/20 split, and the latency-critical points
// keep their small fixed service size.
func TestMixComposition(t *testing.T) {
	pts := points(t, "mix", 7, 1000, 500*time.Millisecond)
	if len(pts) == 0 {
		t.Fatal("empty mixed trace")
	}
	mixed := false
	for _, p := range pts {
		mixed = mixed || !p.Class.IsZero()
	}
	if !mixed {
		t.Fatal("mix trace carries no service class")
	}
	var batch, lc int
	for i, p := range pts {
		if i > 0 && pts[i-1].At > p.At {
			t.Fatalf("arrivals out of order at %d: %v after %v", i, p.At, pts[i-1].At)
		}
		switch p.Class {
		case MixBatchClass():
			batch++
		case MixLCClass():
			lc++
			if p.Size != MixLCSize {
				t.Fatalf("lc point %d size %g, want %g", i, p.Size, MixLCSize)
			}
		default:
			t.Fatalf("point %d carries an unregistered class: %+v", i, p.Class)
		}
	}
	total := float64(batch + lc)
	if share := float64(lc) / total; share < 0.1 || share > 0.3 {
		t.Fatalf("lc share %.2f far from the registered %.2f (batch %d, lc %d)",
			share, MixLCShare, batch, lc)
	}
	if c := MixLCClass(); c.Deadline != MixLCDeadline || c.SLOTarget != MixLCSLO || c.Priority != 1 {
		t.Fatalf("lc class drifted from its registered shape: %+v", c)
	}
}

// TestMixDeterminism: the mixed trace is a pure function of (seed,
// rps, window) — classes included — and distinct seeds genuinely
// draw distinct schedules.
func TestMixDeterminism(t *testing.T) {
	a := points(t, "mix", 7, 400, 200*time.Millisecond)
	b := points(t, "mix", 7, 400, 200*time.Millisecond)
	if len(a) != len(b) {
		t.Fatalf("same seed drew %d vs %d points", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d diverged with the same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := points(t, "mix", 8, 400, 200*time.Millisecond)
	if len(c) == len(a) && len(a) > 0 && c[0] == a[0] {
		t.Fatal("different seeds drew an identical mixed trace")
	}
}
