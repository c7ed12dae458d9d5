package cluster

import (
	"math/rand"
	"testing"

	"hermes/internal/core"
)

// fakeView is a canned PlacementView for exercising placers without a
// running cluster.
type fakeView struct {
	loads []int
	idle  int   // lowest idle index, -1 for none
	dead  []int // crashed machine indices (nil = whole fleet alive)
}

func (f fakeView) Machines() int  { return len(f.loads) }
func (f fakeView) Load(m int) int { return f.loads[m] }
func (f fakeView) Alive(m int) bool {
	for _, d := range f.dead {
		if d == m {
			return false
		}
	}
	return true
}
func (f fakeView) IdleMachine() (int, bool) {
	if f.idle < 0 {
		return 0, false
	}
	return f.idle, true
}

func TestParseRoundTrip(t *testing.T) {
	for _, name := range Known() {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("Parse(%q).String() = %q", name, p.String())
		}
		if _, err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) not valid: %v", name, err)
		}
	}
	p, err := Parse("p4c")
	if err != nil || p.Kind != "pkc" || p.Choices != 4 {
		t.Fatalf("Parse(p4c) = %+v, %v", p, err)
	}
	for _, bad := range []string{"", "p0c", "pxc", "rr", "least-loaded"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// FuzzParse: Parse never panics, and a policy it accepts renders to a
// name that parses back to the same policy and validates. The seeds
// (the catalogue's names and near misses) run under plain go test.
func FuzzParse(f *testing.F) {
	for _, s := range append(Known(), "p1c", "p3c", "p64c", "p0c", "p-1c", "p+2c", "p01c", "pc", "", "rr") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		q, err := Parse(p.String())
		if err != nil || q != p {
			t.Fatalf("Parse(%q) = %+v renders %q, which parses to %+v, %v", s, p, p.String(), q, err)
		}
		if _, err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) = %+v does not validate: %v", s, p, err)
		}
	})
}

func TestValidateDefaults(t *testing.T) {
	p, err := Policy{Kind: "pkc"}.Validate()
	if err != nil || p.Choices != 2 {
		t.Fatalf("pkc defaults: %+v, %v", p, err)
	}
	if g, err := (Policy{Kind: "gossip"}).Validate(); err != nil || g != (Policy{Kind: "gossip"}) {
		t.Fatalf("gossip validates to %+v, %v", g, err)
	}
	if _, err := (Policy{Kind: "spray"}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestJSQPlacer(t *testing.T) {
	v := fakeView{loads: []int{3, 1, 1, 2}, idle: -1}
	if m := (jsqPlacer{}).Place(v, nil); m != 1 {
		t.Fatalf("jsq chose %d, want lowest-index shortest queue 1", m)
	}
}

func TestPKCPlacerPrefersIdleHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := fakeView{loads: []int{2, 0, 0, 1}, idle: 1}
	p := Policy{Kind: "pkc", Choices: 2}.Placer()
	for i := 0; i < 10; i++ {
		if m := p.Place(v, rng); m != 1 {
			t.Fatalf("p2c ignored the idle machine: chose %d", m)
		}
	}
	// Saturated fleet: samples k and joins the least loaded of them —
	// both samples landing on the heaviest machine is legal but rare,
	// so over many draws the lightest machine dominates the heaviest.
	sat := fakeView{loads: []int{5, 1, 4, 2}, idle: -1}
	counts := make([]int, len(sat.loads))
	for i := 0; i < 400; i++ {
		counts[p.Place(sat, rng)]++
	}
	if counts[1] <= counts[0] || counts[1] <= counts[2] {
		t.Fatalf("p2c did not favour the lightest machine: %v over loads %v", counts, sat.loads)
	}
}

func TestRandomPlacerCoversFleet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := fakeView{loads: make([]int, 4), idle: 0}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[(randomPlacer{}).Place(v, rng)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("random placement did not cover the fleet: %v", seen)
	}
}

// TestPlacersSkipDeadMachines pins the failure-aware contract: no
// family ever routes to a machine whose Alive is false while any live
// machine remains.
func TestPlacersSkipDeadMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := fakeView{loads: []int{0, 9, 1, 2}, idle: -1, dead: []int{0, 2}}
	if m := (jsqPlacer{}).Place(v, nil); m != 3 {
		t.Fatalf("jsq chose %d, want live shortest queue 3", m)
	}
	for i := 0; i < 200; i++ {
		if m := (randomPlacer{}).Place(v, rng); m == 0 || m == 2 {
			t.Fatalf("random placed on dead machine %d", m)
		}
		if m := (pkcPlacer{k: 2}).Place(v, rng); m == 0 || m == 2 {
			t.Fatalf("p2c placed on dead machine %d", m)
		}
	}
	// All samples dead every draw is possible with k=1; the fallback
	// must still find a live machine.
	mostlyDead := fakeView{loads: []int{4, 7}, idle: -1, dead: []int{0}}
	for i := 0; i < 50; i++ {
		if m := (pkcPlacer{k: 1}).Place(mostlyDead, rng); m != 1 {
			t.Fatalf("p1c fallback chose dead machine %d", m)
		}
	}
}

// TestPlacerSatisfiesCoreInterface pins that every family materialises
// a core.Placement.
func TestPlacerSatisfiesCoreInterface(t *testing.T) {
	for _, name := range Known() {
		p, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		var _ core.Placement = p.Placer()
	}
}
