package control

import (
	"strings"
	"testing"
	"time"

	"hermes"
)

// TestPrioritySheddingEscalation drives the controller into Shedding
// with two priority classes offered and pins the escalation ladder:
// the floor starts at 0 (only priority-0 traffic sheds), climbs one
// class per sustained over-knee streak up to the highest priority
// seen, and resets fully on recovery.
func TestPrioritySheddingEscalation(t *testing.T) {
	src := newFakeSource()
	c := New(Config{
		Model:  testModel(t),
		Mode:   hermes.Baseline, // knee 100 rps / 10 ms
		Source: src,
		// enterTicks 2, exitTicks 3.
	})
	// offer both classes so the controller learns priority 1 exists.
	offerBoth := func(n int) (lo, hi int) {
		for i := 0; i < n; i++ {
			if c.AdmitPriority(0) {
				lo++
			}
			if c.AdmitPriority(1) {
				hi++
			}
		}
		return lo, hi
	}
	step := func(rps int, latSec float64) State {
		offerBoth(rps / 2)
		src.addLat(int64(rps), latSec)
		c.Tick(time.Second)
		return c.State()
	}

	// Two sustained over-knee ticks enter Shedding with the floor at 0.
	step(150, 0.030)
	if st := step(150, 0.030); st != Shedding {
		t.Fatalf("state = %v, want shedding", st)
	}
	if s := c.Status(); s.ShedFloor != 0 || s.MaxPriority != 1 {
		t.Fatalf("entry status: %+v", s)
	}
	lo, hi := offerBoth(10)
	if lo != 0 {
		t.Fatalf("floor 0 admitted %d/10 priority-0 requests", lo)
	}
	if hi != 10 {
		t.Fatalf("floor 0 shed %d/10 priority-1 requests", 10-hi)
	}
	c.Tick(time.Second) // absorb the probe traffic (calm)

	// Pressure persists: after enterTicks more over-knee ticks the
	// floor escalates to 1 and the higher class sheds too.
	step(150, 0.030)
	step(150, 0.030)
	if s := c.Status(); s.ShedFloor != 1 {
		t.Fatalf("floor did not escalate: %+v", s)
	}
	lo, hi = offerBoth(10)
	if lo != 0 || hi != 0 {
		t.Fatalf("floor 1 admitted %d lo / %d hi requests", lo, hi)
	}
	c.Tick(time.Second)

	// The ceiling is the highest priority ever offered: more pressure
	// must not push the floor past it.
	step(150, 0.030)
	step(150, 0.030)
	if s := c.Status(); s.ShedFloor != 1 {
		t.Fatalf("floor passed the max seen priority: %+v", s)
	}

	// The floor appears on the metrics surface.
	var sb strings.Builder
	c.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "hermes_control_shed_floor 1") {
		t.Fatalf("metrics missing shed floor:\n%s", sb.String())
	}

	// Recovery resets the ladder: the next episode starts at floor 0.
	for i := 0; i < 3; i++ {
		step(20, 0.002)
	}
	if st := c.State(); st != Recovered {
		t.Fatalf("state = %v, want recovered", st)
	}
	if s := c.Status(); s.ShedFloor != 0 {
		t.Fatalf("floor survived recovery: %+v", s)
	}
	lo, hi = offerBoth(5)
	if lo != 5 || hi != 5 {
		t.Fatalf("recovered controller shed traffic: %d lo / %d hi", lo, hi)
	}
}

// TestAdmitPriorityDisabled: an unmodeled controller admits every
// class unconditionally — the priority path adds no new gate when
// control is off.
func TestAdmitPriorityDisabled(t *testing.T) {
	c := New(Config{Source: newFakeSource()})
	if c.Enabled() {
		t.Fatal("controller without a model reported enabled")
	}
	for p := -1; p <= 2; p++ {
		if !c.AdmitPriority(p) {
			t.Fatalf("disabled controller shed priority %d", p)
		}
	}
}
