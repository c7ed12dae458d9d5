package hermes_test

import (
	"context"
	"fmt"
	"testing"

	"hermes"
)

// chaosFaults staggers a crash on each of two machines with staggered
// rejoins, so whichever machine a policy favours, some job is evicted
// mid-flight and must recover on the other.
func chaosFaults() []hermes.FaultEvent {
	return []hermes.FaultEvent{
		{At: 50 * hermes.Microsecond, Machine: 0, Kind: hermes.FaultCrash},
		{At: 120 * hermes.Microsecond, Machine: 1, Kind: hermes.FaultCrash},
		{At: 400 * hermes.Microsecond, Machine: 0, Kind: hermes.FaultRejoin},
		{At: 2 * hermes.Millisecond, Machine: 1, Kind: hermes.FaultRejoin},
	}
}

// runChaosTrace drives a two-machine fleet through the chaos plan
// under the given placement policy and returns the per-job report
// strings plus the fleet ledger.
func runChaosTrace(t *testing.T, p hermes.Placement) ([]string, hermes.ClusterStats) {
	t.Helper()
	c, err := hermes.NewCluster(
		hermes.WithMachines(2),
		hermes.WithPlacement(p),
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(2),
		hermes.WithMode(hermes.Unified),
		hermes.WithSeed(31),
		hermes.WithFaults(chaosFaults()...),
	)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := leafWorkload(32)
	var arrivals []hermes.Arrival
	for i := 0; i < 6; i++ {
		arrivals = append(arrivals, hermes.Arrival{At: hermes.Time(i) * 30 * hermes.Microsecond, Task: root})
	}
	jobs, err := c.SubmitTrace(context.Background(), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i, j := range jobs {
		rep, err := j.Wait()
		if err != nil {
			t.Fatalf("%s: job %d not recovered: %v", p, i+1, err)
		}
		out = append(out, fmt.Sprintf("%+v", rep))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return out, c.ClusterStats()
}

// TestClusterFaultRecoveryAllPolicies is the public recovery contract:
// under every placement policy, crashing both machines mid-trace
// evicts work, yet every job completes, nothing is lost under the
// default budget, and the availability ledger records the episode.
func TestClusterFaultRecoveryAllPolicies(t *testing.T) {
	for _, p := range []hermes.Placement{
		hermes.PlacementRandom(),
		hermes.PlacementJSQ(),
		hermes.PlacementPowerOfChoices(2),
		hermes.PlacementGossip(),
	} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			reports, st := runChaosTrace(t, p)
			if st.Completed != int64(len(reports)) || st.Lost != 0 {
				t.Fatalf("completed %d, lost %d of %d jobs", st.Completed, st.Lost, len(reports))
			}
			if st.Crashes != 2 || st.Rejoins != 2 {
				t.Fatalf("ledger crashes=%d rejoins=%d, want 2/2", st.Crashes, st.Rejoins)
			}
			if st.Retries == 0 {
				t.Fatal("both machines crashed mid-trace yet no job retried")
			}
			if st.Goodput != 1 {
				t.Fatalf("goodput %g with nothing lost", st.Goodput)
			}
			if len(st.Downtime) != 2 || st.Downtime[0] <= 0 || st.Downtime[1] <= 0 {
				t.Fatalf("downtime ledger %v, want both machines down for a while", st.Downtime)
			}
		})
	}
}

// TestClusterFaultDeterminism: same options, seed, trace and fault
// plan ⇒ byte-identical per-job reports and fleet stats through the
// public API.
func TestClusterFaultDeterminism(t *testing.T) {
	repA, stA := runChaosTrace(t, hermes.PlacementPowerOfChoices(2))
	repB, stB := runChaosTrace(t, hermes.PlacementPowerOfChoices(2))
	for i := range repA {
		if repA[i] != repB[i] {
			t.Fatalf("job %d diverged under faults:\n%s\nvs\n%s", i+1, repA[i], repB[i])
		}
	}
	if a, b := fmt.Sprintf("%+v", stA), fmt.Sprintf("%+v", stB); a != b {
		t.Fatalf("fleet stats diverged under faults:\n%s\nvs\n%s", a, b)
	}
}

// TestFaultOptionFencing: a fault plan must fit the fleet. (Which
// backend accepts WithFaults is TestCapabilityMatrix.)
func TestFaultOptionFencing(t *testing.T) {
	if _, err := hermes.NewCluster(
		hermes.WithMachines(2),
		hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2),
		hermes.WithFaults(hermes.FaultEvent{At: 1, Machine: 7, Kind: hermes.FaultCrash}),
	); err == nil {
		t.Fatal("NewCluster accepted a fault aimed past the fleet")
	}
}
