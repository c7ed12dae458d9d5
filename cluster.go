package hermes

import (
	"context"
	"fmt"

	"hermes/internal/cluster"
	"hermes/internal/core"
	"hermes/internal/obs"
)

// Placement describes how a Cluster routes arriving jobs across its
// machines: a named policy family plus parameters. Values are plain
// data (JSON-serialisable), so sweep configs can carry them; build
// them with the Placement* constructors or ParsePlacement.
type Placement = cluster.Policy

// ParsePlacement maps a placement-policy name onto its Placement:
// "random", "jsq", "p2c" (or any "p<k>c"), "gossip" — the one parser
// for every CLI flag.
func ParsePlacement(s string) (Placement, error) { return cluster.Parse(s) }

// PlacementNames lists the canonical policy names ParsePlacement
// accepts, for CLI help text and validation.
func PlacementNames() []string { return cluster.Known() }

// PlacementRandom places each job on a uniformly random machine —
// load-blind, the spreading baseline.
func PlacementRandom() Placement { return Placement{Kind: "random"} }

// PlacementJSQ is join-shortest-queue: each job joins the machine with
// the fewest jobs in its system, ties to the lowest index.
func PlacementJSQ() Placement { return Placement{Kind: "jsq"} }

// PlacementPowerOfChoices is power-of-k-choices backed by the
// cluster's idle-machine heap: while any machine is fully idle the job
// goes to the lowest-indexed idle one (consolidating load so
// higher-indexed machines stay parked in the lowest DVFS tier); once
// the fleet is saturated, k sampled machines compete and the least
// loaded wins. k = 2 is the classic p2c.
func PlacementPowerOfChoices(k int) Placement {
	return Placement{Kind: "pkc", Choices: k}
}

// PlacementGossip keeps placement load-blind (random) and balances via
// gossip instead: every interval, idle machines pull a batch of
// unstarted jobs from the most-loaded peer as seen through queue views
// refreshed at least staleness ago — realistically stale information.
// interval <= 0 selects the default; staleness 0 defaults to the
// interval; batch 0 pulls half the victim's visible backlog.
func PlacementGossip(interval, staleness Time, batch int) Placement {
	p := Placement{Kind: "gossip", Interval: interval, Staleness: staleness, Batch: batch}
	if p.Interval <= 0 {
		p.Interval = cluster.DefaultGossipInterval
	}
	return p
}

// ClusterStats is the fleet-wide aggregate through the cluster's last
// job completion: one MachineStats per machine (all snapshotted at the
// same virtual instant, idle machines' floor draw included), placement
// and migration counts, and the fleet energy total.
type ClusterStats = core.ClusterStats

// Cluster is a multi-machine virtual-time scheduler: n independent
// simulated machines multiplexed inside one discrete-event engine,
// fed by a placement tier. It serves the same job stream API as a
// Runtime (Submit, SubmitTrace) with the same determinism contract —
// a fixed option set, seed and arrival trace reproduce byte-identical
// per-job Reports, per-machine MachineStats and fleet totals — and is
// Sim-only: there is no native multi-machine executor.
//
// Construct with NewCluster(WithMachines(n), WithPlacement(p), plus
// any machine options: WithWorkers, WithMode, WithSpec, WithSeed, …).
type Cluster struct {
	inner    *core.Cluster
	cfg      Config
	machines int
	policy   Placement
	sink     *obs.Async
	drv      simDriver
}

// NewCluster builds a multi-machine cluster from functional options.
// Machine options (WithWorkers, WithMode, WithSpec, WithSeed, …) apply
// to every machine; WithMachines sets the fleet size (default 1) and
// WithPlacement the routing policy (default power-of-two-choices).
// The Native backend has no fleet — WithBackend(Native) is an error.
func NewCluster(opts ...Option) (*Cluster, error) {
	s, err := gather(opts)
	if err != nil {
		return nil, err
	}
	if s.backend != Sim {
		return nil, fmt.Errorf("hermes: NewCluster needs the Sim backend (got %v)", s.backend)
	}
	machines := s.machines
	if machines == 0 {
		machines = 1
	}
	policy := PlacementPowerOfChoices(2)
	if s.placement != nil {
		policy = *s.placement
	}
	policy, err = policy.Validate()
	if err != nil {
		return nil, err
	}
	sink, err := s.startSink()
	if err != nil {
		return nil, err
	}
	interval, staleness, batch := policy.GossipParams()
	ccfg := core.ClusterConfig{
		Machines:        machines,
		Machine:         s.cfg,
		Placement:       policy.Placer(),
		GossipInterval:  interval,
		GossipStaleness: staleness,
		GossipBatch:     batch,
		Faults:          s.faults,
		RetryBudget:     s.retryBudget,
		RetryBackoff:    s.retryBackoff,
	}
	inner, err := core.NewCluster(ccfg)
	if err != nil {
		if sink != nil {
			sink.Close()
		}
		return nil, err
	}
	return &Cluster{
		inner:    inner,
		cfg:      inner.Config().Machine,
		machines: machines,
		policy:   policy,
		sink:     sink,
		drv:      simDriver{eng: inner},
	}, nil
}

// Config returns the validated per-machine configuration every machine
// in the fleet runs with.
func (c *Cluster) Config() Config { return c.cfg }

// Machines returns the fleet size.
func (c *Cluster) Machines() int { return c.machines }

// Placement returns the routing policy the cluster was built with.
func (c *Cluster) Placement() Placement { return c.policy }

// Submit enqueues root as a new job arriving at the engine's current
// virtual time; the placement tier picks its machine at that instant.
// Job.Wait returns the per-job Report. Options stamp per-job
// attributes (WithClass), exactly as on a Runtime; every machine's
// intake applies the cluster's dispatch policy (WithDispatch) to the
// classes it sees.
func (c *Cluster) Submit(ctx context.Context, root Task, opts ...SubmitOption) (*Job, error) {
	class, err := submitClass(opts)
	if err != nil {
		return nil, err
	}
	return c.drv.Submit(ctx, root, class)
}

// SubmitTrace schedules a whole batch of jobs at explicit virtual
// arrival times, atomically, and returns their handles in trace order
// — the reproducible open-system entry point, exactly as on a Runtime
// but across the fleet: each arrival is routed by the placement policy
// at its virtual instant. ctx cancels every job in the trace.
func (c *Cluster) SubmitTrace(ctx context.Context, arrivals []Arrival) ([]*Job, error) {
	return c.drv.submit(ctx, arrivals)
}

// Run submits root and waits for its report.
func (c *Cluster) Run(ctx context.Context, root Task) (Report, error) {
	j, err := c.Submit(ctx, root)
	if err != nil {
		return Report{}, err
	}
	return j.Wait()
}

// ClusterStats returns the fleet aggregate through the cluster's last
// job completion — every machine snapshotted at the same virtual
// instant, so energy comparisons across policies charge idle machines
// over equal windows. It blocks until the engine has stopped: call it
// after Close.
func (c *Cluster) ClusterStats() ClusterStats { return c.inner.Stats() }

// Close rejects further submissions, completes every submitted job,
// and stops the engine; with WithAsyncObserver it then drains the sink.
// Safe to call more than once.
func (c *Cluster) Close() error {
	err := c.drv.Close()
	if c.sink != nil {
		c.sink.Close()
	}
	return err
}
