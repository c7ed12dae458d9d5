package sweep

import (
	"encoding/json"
	"testing"
	"time"

	"hermes"
	"hermes/internal/workload"
)

// TestClusterSweepDeterministicArtifact is the cluster acceptance pin:
// two runs of the same (machines, placement, seed, trace) grid yield
// byte-identical JSON artifacts, over every placement policy.
func TestClusterSweepDeterministicArtifact(t *testing.T) {
	cfg := ClusterConfig{
		Workload: tinySpec(),
		Mode:     hermes.Unified,
		Policies: []hermes.Placement{hermes.PlacementRandom(), hermes.PlacementJSQ(),
			hermes.PlacementPowerOfChoices(2), hermes.PlacementGossip()},
		Machines: []int{2, 3},
		RatesRPS: []float64{400},
		Window:   30 * time.Millisecond,
		Seed:     7,
		Workers:  2,
	}
	a, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("cluster sweep artifact not byte-identical across identical runs")
	}
	if len(a.Curves) != 8 {
		t.Fatalf("grid shape: %d curves, want 4 policies × 2 machine counts", len(a.Curves))
	}
	fleets := map[string]int{}
	for _, c := range a.Curves {
		fleets[c.Policy]++
		for _, p := range c.Points {
			if p.Completed == 0 || p.Errors != 0 {
				t.Fatalf("%s ×%d: completed %d, errors %d", c.Policy, c.Machines, p.Completed, p.Errors)
			}
			if len(p.PerMachine) != c.Machines {
				t.Fatalf("%s ×%d: %d per-machine rows", c.Policy, c.Machines, len(p.PerMachine))
			}
		}
	}
	for _, want := range []string{"random", "jsq", "p2c", "gossip"} {
		if fleets[want] != 2 {
			t.Fatalf("policy %s has %d curves, want one per fleet size: %v", want, fleets[want], fleets)
		}
	}
	if a.CSV() != b.CSV() {
		t.Fatal("cluster sweep CSV not byte-identical across identical runs")
	}
}

// TestClusterSweepPolicySeparation is the consolidation acceptance
// pin at the sweep layer: on the SAME low-rate trace over the same
// fleet, p2c with its idle-first rule leaves strictly more machines
// fully idle than load-blind random placement, and spends strictly
// fewer fleet joules per request — collisions under random queue jobs
// behind busy machines while idle ones burn their floor draw.
func TestClusterSweepPolicySeparation(t *testing.T) {
	cfg := ClusterConfig{
		Workload: workload.Spec{Kind: "ticks", N: 128, Grain: 4, Work: 200_000},
		Mode:     hermes.Unified,
		Policies: []hermes.Placement{hermes.PlacementPowerOfChoices(2), hermes.PlacementRandom()},
		Machines: []int{6},
		RatesRPS: []float64{300, 600},
		Window:   40 * time.Millisecond,
		Seed:     11,
		Workers:  2,
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("want 2 curves, got %d", len(res.Curves))
	}
	p2c, random := res.Curves[0], res.Curves[1]
	// Low rate: the idle-first rule leaves strictly more machines
	// fully parked than load-blind spreading.
	if a, b := p2c.Points[0], random.Points[0]; a.IdleMachines <= b.IdleMachines {
		t.Fatalf("p2c did not consolidate: %d idle machines vs random's %d at %g rps",
			a.IdleMachines, b.IdleMachines, a.OfferedRPS)
	}
	// At every rate on the same trace, consolidation spends fewer fleet
	// joules per request and keeps the tail shorter: random's placement
	// collisions queue jobs behind busy machines while idle ones burn
	// their floor draw, stretching both the window and the tail.
	for i := range p2c.Points {
		a, b := p2c.Points[i], random.Points[i]
		if a.Completed != b.Completed {
			t.Fatalf("policies served different traces at %g rps: %d vs %d completed",
				a.OfferedRPS, a.Completed, b.Completed)
		}
		if a.FleetJoulesPerRequest >= b.FleetJoulesPerRequest {
			t.Fatalf("p2c did not save fleet energy at %g rps: %.4f J/req vs random's %.4f",
				a.OfferedRPS, a.FleetJoulesPerRequest, b.FleetJoulesPerRequest)
		}
		if a.P99SojournMS >= b.P99SojournMS {
			t.Fatalf("p2c did not shorten the tail at %g rps: p99 %.3fms vs random's %.3fms",
				a.OfferedRPS, a.P99SojournMS, b.P99SojournMS)
		}
	}
}

// TestClusterSweepGossipMigrates: at a rate with real contention, the
// gossip tier actually moves jobs between machines, and the artifact
// records it. The rate puts a job in a machine's backlog at a 500µs
// gossip tick often enough (8 migrations at seed 5).
func TestClusterSweepGossipMigrates(t *testing.T) {
	cfg := ClusterConfig{
		Workload: tinySpec(),
		Mode:     hermes.Unified,
		Policies: []hermes.Placement{hermes.PlacementGossip()},
		Machines: []int{3},
		RatesRPS: []float64{6000},
		Window:   30 * time.Millisecond,
		Seed:     5,
		Workers:  2,
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Curves[0].Points[0]
	if pt.Errors != 0 || pt.Completed != pt.Arrivals {
		t.Fatalf("gossip lost jobs: %d arrivals, %d completed, %d errors", pt.Arrivals, pt.Completed, pt.Errors)
	}
	if pt.Migrated == 0 {
		t.Fatal("gossip never migrated a job at a contended rate")
	}
	var perMachine int64
	for _, m := range pt.PerMachine {
		perMachine += m.Migrated
	}
	if perMachine != pt.Migrated {
		t.Fatalf("migration ledger inconsistent: point %d, per-machine sum %d", pt.Migrated, perMachine)
	}
}

// TestClusterSweepRejects covers the grid validation surface.
func TestClusterSweepRejects(t *testing.T) {
	base := ClusterConfig{
		Workload: tinySpec(),
		Mode:     hermes.Unified,
		Policies: []hermes.Placement{hermes.PlacementJSQ()},
		Machines: []int{2},
		RatesRPS: []float64{100},
		Window:   10 * time.Millisecond,
	}
	bad := base
	bad.Policies = nil
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("no policies accepted")
	}
	bad = base
	bad.Machines = []int{0}
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("zero machines accepted")
	}
	bad = base
	bad.RatesRPS = []float64{-1}
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("negative rate accepted")
	}
	bad = base
	bad.Window = 0
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("zero window accepted")
	}
	bad = base
	bad.Policies = []hermes.Placement{{Kind: "spray"}}
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
