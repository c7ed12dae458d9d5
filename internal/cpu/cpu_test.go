package cpu

import (
	"testing"

	"hermes/internal/units"
)

func TestSystemSpecs(t *testing.T) {
	a, b := SystemA(), SystemB()
	if a.Cores != 32 || a.Domains() != 16 || a.Packages != 2 {
		t.Fatalf("SystemA topology: cores=%d domains=%d pkgs=%d", a.Cores, a.Domains(), a.Packages)
	}
	if b.Cores != 8 || b.Domains() != 4 || b.Packages != 1 {
		t.Fatalf("SystemB topology: cores=%d domains=%d pkgs=%d", b.Cores, b.Domains(), b.Packages)
	}
	if a.MaxFreq() != 2_400_000*units.KHz || a.MinFreq() != 1_400_000*units.KHz {
		t.Fatalf("SystemA freq range: %v..%v", a.MinFreq(), a.MaxFreq())
	}
	if b.MaxFreq() != 3_600_000*units.KHz {
		t.Fatalf("SystemB max freq: %v", b.MaxFreq())
	}
	// Five operating points each, descending, with descending voltage.
	for _, s := range []*Spec{a, b} {
		if len(s.Points) != 5 {
			t.Fatalf("%s: %d points, want 5", s.Name, len(s.Points))
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].F >= s.Points[i-1].F {
				t.Fatalf("%s: points not descending by frequency", s.Name)
			}
			if s.Points[i].MilliVolts >= s.Points[i-1].MilliVolts {
				t.Fatalf("%s: voltage must fall with frequency", s.Name)
			}
		}
	}
}

func TestVoltageLookup(t *testing.T) {
	a := SystemA()
	if v := a.Voltage(1_600_000 * units.KHz); v != 1050 {
		t.Fatalf("Voltage(1.6GHz) = %d", v)
	}
	if !a.Supports(1_900_000 * units.KHz) {
		t.Fatal("SystemA should support 1.9GHz")
	}
	if a.Supports(2_000_000 * units.KHz) {
		t.Fatal("SystemA should not support 2.0GHz")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Voltage of unsupported frequency should panic")
		}
	}()
	a.Voltage(1 * units.GHz)
}

func TestNewMachineBootState(t *testing.T) {
	m := NewMachine(SystemA())
	if len(m.Cores) != 32 || len(m.Domains) != 16 {
		t.Fatalf("machine size: %d cores, %d domains", len(m.Cores), len(m.Domains))
	}
	for _, d := range m.Domains {
		if d.Freq() != m.Spec.MaxFreq() {
			t.Fatalf("domain %d boots at %v, want max", d.ID, d.Freq())
		}
		if len(d.Cores) != 2 {
			t.Fatalf("domain %d has %d cores", d.ID, len(d.Cores))
		}
	}
	for _, c := range m.Cores {
		if c.State != Unused {
			t.Fatalf("core %d boots %v, want unused", c.ID, c.State)
		}
	}
}

func TestDistinctDomainCores(t *testing.T) {
	m := NewMachine(SystemA())
	cores := m.DistinctDomainCores(16)
	seen := map[int]bool{}
	for _, c := range cores {
		if seen[c.Dom.ID] {
			t.Fatalf("domain %d used twice", c.Dom.ID)
		}
		seen[c.Dom.ID] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for more workers than domains")
		}
	}()
	m.DistinctDomainCores(17)
}

func TestRequestCommitCycle(t *testing.T) {
	m := NewMachine(SystemA())
	c := m.Cores[0]
	c.State = Busy
	slow := units.Freq(1_600_000 * units.KHz)

	changed, at := m.Request(c, slow, 1*units.Millisecond)
	if !changed {
		t.Fatal("request to a new frequency should start a transition")
	}
	if want := 1*units.Millisecond + m.Spec.DVFSLatency; at != want {
		t.Fatalf("commitAt = %v, want %v", at, want)
	}
	if c.Dom.Freq() != m.Spec.MaxFreq() {
		t.Fatal("frequency changed before the transition latency elapsed")
	}
	// Early commit is a no-op.
	if c.Dom.Commit(at - 1) {
		t.Fatal("commit before commitAt should be a no-op")
	}
	if !c.Dom.Commit(at) {
		t.Fatal("commit at commitAt should apply")
	}
	if c.Dom.Freq() != slow {
		t.Fatalf("domain at %v, want %v", c.Dom.Freq(), slow)
	}
}

func TestRequestSameFreqNoChange(t *testing.T) {
	m := NewMachine(SystemA())
	c := m.Cores[0]
	c.State = Busy
	if changed, _ := m.Request(c, m.Spec.MaxFreq(), 0); changed {
		t.Fatal("requesting the current frequency should not transition")
	}
}

func TestRequestCancelsPending(t *testing.T) {
	m := NewMachine(SystemA())
	c := m.Cores[0]
	c.State = Busy
	slow := units.Freq(1_400_000 * units.KHz)
	m.Request(c, slow, 0)
	// Re-request max before commit: transition cancelled.
	if changed, _ := m.Request(c, m.Spec.MaxFreq(), 10*units.Microsecond); changed {
		t.Fatal("re-targeting current frequency should cancel, not transition")
	}
	if c.Dom.Commit(m.Spec.DVFSLatency) {
		t.Fatal("stale commit should be a no-op after cancellation")
	}
	if c.Dom.Freq() != m.Spec.MaxFreq() {
		t.Fatal("frequency should remain at max")
	}
}

func TestDomainMaxVote(t *testing.T) {
	// Two in-use cores in one domain: the domain runs at the faster
	// request (hardware picks the highest vote).
	m := NewMachine(SystemB())
	d := m.Domains[0]
	c0, c1 := d.Cores[0], d.Cores[1]
	c0.State, c1.State = Busy, Busy
	slow := units.Freq(2_700_000 * units.KHz)

	// Both vote slow → transition to slow.
	m.Request(c0, slow, 0)
	changed, at := m.Request(c1, slow, 0)
	_ = changed
	d.Commit(at)
	if d.Freq() != slow {
		t.Fatalf("both-slow vote: domain at %v", d.Freq())
	}
	// One core votes fast again → domain must go fast.
	changed, at = m.Request(c0, m.Spec.MaxFreq(), at)
	if !changed {
		t.Fatal("fast vote should win over slow sibling")
	}
	d.Commit(at)
	if d.Freq() != m.Spec.MaxFreq() {
		t.Fatalf("max-vote: domain at %v", d.Freq())
	}
}

func TestUnusedCoresDoNotVote(t *testing.T) {
	m := NewMachine(SystemA())
	d := m.Domains[0]
	c0 := d.Cores[0]
	c0.State = Busy
	slow := units.Freq(1_400_000 * units.KHz)
	// Sibling core is Unused with boot Req = max; it must not hold the
	// domain fast.
	changed, at := m.Request(c0, slow, 0)
	if !changed {
		t.Fatal("single in-use core's slow vote should win")
	}
	d.Commit(at)
	if d.Freq() != slow {
		t.Fatalf("domain at %v, want %v", d.Freq(), slow)
	}
}

func TestRequestUnsupportedPanics(t *testing.T) {
	m := NewMachine(SystemA())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported frequency")
		}
	}()
	m.Request(m.Cores[0], 5*units.GHz, 0)
}

func TestCoreStateString(t *testing.T) {
	want := map[CoreState]string{Unused: "unused", IdleHalt: "idle", Spin: "spin", Busy: "busy"}
	for st, s := range want {
		if st.String() != s {
			t.Fatalf("state %d prints %q", st, st.String())
		}
	}
}
