package hermes

import (
	"fmt"

	"hermes/internal/cluster"
	"hermes/internal/core"
)

// Placement describes how a Sim Runtime routes arriving jobs across its
// machines: a named policy family plus parameters. Values are plain
// data (JSON-serialisable), so sweep configs can carry them; build
// them with the Placement* constructors or ParsePlacement.
type Placement = cluster.Policy

// ParsePlacement maps a placement-policy name onto its Placement:
// "random", "jsq", "p2c" (or any "p<k>c"), "gossip" — the one parser
// for every CLI flag.
func ParsePlacement(s string) (Placement, error) { return cluster.Parse(s) }

// PlacementRandom places each job on a uniformly random machine —
// load-blind, the spreading baseline.
func PlacementRandom() Placement { return Placement{Kind: "random"} }

// PlacementJSQ is join-shortest-queue: each job joins the machine with
// the fewest jobs in its system, ties to the lowest index.
func PlacementJSQ() Placement { return Placement{Kind: "jsq"} }

// PlacementPowerOfChoices is power-of-k-choices with an idle-first
// rule: while any live machine is fully idle the job goes to the
// lowest-indexed idle one (consolidating load so higher-indexed
// machines stay parked in the lowest DVFS tier); once the fleet is
// saturated, k sampled machines compete and the least loaded wins.
// k = 2 is the classic p2c.
func PlacementPowerOfChoices(k int) Placement {
	return Placement{Kind: "pkc", Choices: k}
}

// PlacementGossip keeps placement load-blind (random) and balances via
// gossip instead: every 500µs, idle machines pull half the unstarted
// backlog of the most-loaded peer as seen through queue views refreshed
// an interval ago — realistically stale information.
func PlacementGossip() Placement { return Placement{Kind: "gossip"} }

// ClusterStats is the fleet-wide aggregate (Runtime.ClusterStats): one
// MachineStats per machine (all snapshotted at the same instant, idle
// machines' floor draw included), placement and migration counts, and
// the fleet energy total.
type ClusterStats = core.ClusterStats

// Cluster is a Runtime: on the Sim backend every Runtime is a fleet of
// n independent simulated machines multiplexed inside one
// discrete-event engine behind a placement tier, and n = 1 is the
// default. The name remains for code that builds fleets.
type Cluster = Runtime

// NewCluster is New on the Sim backend: WithMachines sets the fleet
// size (default 1), WithPlacement the routing policy (default
// power-of-two-choices), and machine options (WithWorkers, WithMode,
// WithSpec, WithSeed, …) apply to every machine. The Native backend has
// no fleet — WithBackend(Native) is an error wrapping ErrSimOnly.
func NewCluster(opts ...Option) (*Cluster, error) {
	r, err := New(opts...)
	if err == nil && r.backend != Sim {
		r.Close()
		return nil, fmt.Errorf("%w: NewCluster builds a simulated fleet (got backend %v)", ErrSimOnly, r.backend)
	}
	return r, err
}

// Machines returns the fleet size: 1 unless the Runtime was built on
// the Sim backend WithMachines.
func (r *Runtime) Machines() int {
	if r.backend != Sim {
		return 1
	}
	return r.sim.eng.Machines()
}

// Placement returns the routing policy a Sim Runtime's fleet was built
// with (with one machine every policy places alike); the zero Placement
// on Native.
func (r *Runtime) Placement() Placement { return r.policy }

// ClusterStats returns the fleet aggregate. On Sim it runs through the
// last job completion, every machine snapshotted at the same virtual
// instant, so energy comparisons across policies charge idle machines
// over equal windows; a call before Close is answered between engine
// events. On Native it is the one machine's ledger since New, live up
// to the call and frozen at Close.
func (r *Runtime) ClusterStats() ClusterStats {
	if r.native != nil {
		return r.native.Stats()
	}
	return r.sim.eng.Stats()
}

// EngineStats returns how many events a Sim Runtime's engine dispatched,
// how many of them resumed a coroutine and how many were a worker's
// steal probes. After Close; zeros on Native.
func (r *Runtime) EngineStats() (events, resumes, probes uint64) {
	if r.backend != Sim {
		return 0, 0, 0
	}
	return r.sim.eng.EngineStats()
}
