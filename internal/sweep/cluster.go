package sweep

import (
	"fmt"
	"strings"
	"time"

	"hermes"
	"hermes/internal/fault"
	"hermes/internal/trace"
	"hermes/internal/workload"
)

// ClusterConfig describes a cluster sweep: a (placement policy ×
// machine count × arrival rate) grid under one workload and tempo
// mode. Every (rate, trial) cell replays the SAME seeded trace through
// every policy and fleet size, so curves differ only by placement —
// the experiment the fleet-consolidation claim rests on.
type ClusterConfig struct {
	Workload workload.Spec
	// Trace names the arrival process from the internal/trace registry
	// ("" = poisson).
	Trace string
	// Faults names the fault plans from the internal/fault registry to
	// sweep over ("" or "none" = fault-free). Empty means a single
	// fault-free pass — the pre-chaos artifact, byte for byte.
	Faults   []string
	Mode     hermes.Mode
	Policies []hermes.Placement
	Machines []int // fleet sizes; ascending preferred
	RatesRPS []float64
	Window   time.Duration
	Seed     int64
	Trials   int
	Workers  int // per machine; 0 = backend default
	// Dispatch names the intake dispatch policy every machine runs
	// ("" or "fifo" = arrival order, "priority", "edf").
	Dispatch string
	// PreemptQuantum caps uninterrupted execution under a ranked
	// dispatch policy (0 = jobs run to completion once started).
	PreemptQuantum time.Duration
	// Log, when non-nil, receives one progress line per completed point.
	Log func(string)
}

// MachinePoint is one machine's share of a grid point, summed over
// trials — the per-machine consolidation picture: which machines the
// policy actually woke, how much energy each drew, and how often one
// stayed entirely idle.
type MachinePoint struct {
	Machine  int   `json:"machine"`
	Placed   int64 `json:"placed"`
	Migrated int64 `json:"migrated"`
	Tasks    int64 `json:"tasks"`
	Steals   int64 `json:"steals"`
	// EnergyJ is the machine's integrated draw over the fleet window
	// (idle floor included); BusyFrac its busy core-time over
	// workers × elapsed.
	EnergyJ  float64 `json:"energy_j"`
	BusyFrac float64 `json:"busy_frac"`
	// IdleTrials counts trials in which this machine executed no task
	// at all — parked in the lowest DVFS tier for the whole run.
	IdleTrials int `json:"idle_trials"`
}

// ClusterPoint is the measured outcome of one (policy, machines, rate)
// grid point, pooled over trials.
type ClusterPoint struct {
	OfferedRPS float64 `json:"offered_rps"`
	latency

	// FleetJoulesPerRequest divides the WHOLE fleet's energy — idle
	// machines' floor draw included, every machine charged over the
	// same virtual window — by completed jobs: the quantity placement
	// policies compete on.
	FleetJoulesPerRequest float64 `json:"fleet_joules_per_request"`
	FleetAvgPowerW        float64 `json:"fleet_avg_power_w"`
	StealsPerRequest      float64 `json:"steals_per_request"`
	Migrated              int64   `json:"migrated"`
	// IdleMachines counts (machine, trial) pairs where the machine ran
	// no task: Trials × Machines at zero load, 0 when every machine
	// woke in every trial.
	IdleMachines int64 `json:"idle_machines"`

	// Availability ledger, summed over trials. All zero (and omitted
	// from JSON) on fault-free points, so pre-chaos artifacts keep
	// their byte-exact shape. Availability is completed over
	// completed+lost; DowntimeS total machine-seconds of crash
	// downtime across the fleet.
	Crashes      int64   `json:"crashes,omitempty"`
	Rejoins      int64   `json:"rejoins,omitempty"`
	Retries      int64   `json:"retries,omitempty"`
	Lost         int64   `json:"lost,omitempty"`
	Availability float64 `json:"availability,omitempty"`
	DowntimeS    float64 `json:"downtime_s,omitempty"`

	PerMachine []MachinePoint `json:"per_machine"`
	// Tiers is fleet-wide DVFS residency (share of busy core-time per
	// frequency), fastest first.
	Tiers []Tier `json:"tiers"`

	// Classes breaks the point down per service class when the trace
	// is mixed; absent (omitted from JSON) for unclassed traces, so
	// single-class artifacts keep their byte-exact shape.
	Classes []ClassPoint `json:"classes,omitempty"`
}

// ClusterCurve is one (policy, machines) combination's curve over the
// rate grid.
type ClusterCurve struct {
	Policy   string `json:"policy"`
	Machines int    `json:"machines"`
	// Faults is the curve's fault plan, normalized so the fault-free
	// default stays "" (byte-stable pre-chaos artifacts).
	Faults        string  `json:"faults,omitempty"`
	UnloadedP50MS float64 `json:"unloaded_p50_ms"`
	// KneeRPS is null when no knee resolved (single-rate grid, no
	// crossing); KneeReason says why — same semantics as Curve.
	KneeRPS    *float64       `json:"knee_rps"`
	KneeReason string         `json:"knee_reason,omitempty"`
	Points     []ClusterPoint `json:"points"`
}

// Knee returns the curve's resolved knee rate, reporting false when
// knee detection could not resolve one (KneeRPS is null).
func (c ClusterCurve) Knee() (float64, bool) { return kneeOf(c.KneeRPS) }

// ClusterResult is the cluster sweep artifact: one curve per (policy,
// machine count), policy-major. Deterministic for a fixed config.
type ClusterResult struct {
	Workload workload.Spec `json:"workload"`
	// Trace is the arrival process, normalized so the default poisson
	// process stays "" (byte-stable poisson-era artifacts).
	Trace    string    `json:"trace,omitempty"`
	Mode     string    `json:"mode"`
	Policies []string  `json:"policies"`
	Machines []int     `json:"machines"`
	RatesRPS []float64 `json:"rates_rps"`
	WindowS  float64   `json:"window_s"`
	Seed     int64     `json:"seed"`
	Trials   int       `json:"trials"`
	// Workers is the pool width each machine simulated: the backend's
	// default when ClusterConfig.Workers is 0.
	Workers    int     `json:"workers"`
	KneeFactor float64 `json:"knee_factor"`
	// FaultPlans lists the swept fault plans by registered name; nil
	// when the sweep was entirely fault-free (pre-chaos artifact shape).
	FaultPlans []string `json:"fault_plans,omitempty"`
	// Dispatch is the intake policy, normalized so the default FIFO
	// stays "" — pre-dispatch artifacts keep their byte-exact shape.
	// PreemptQuantumMS is the ranked-dispatch quantum, 0 (omitted) when
	// jobs run to completion.
	Dispatch         string         `json:"dispatch,omitempty"`
	PreemptQuantumMS float64        `json:"preempt_quantum_ms,omitempty"`
	Curves           []ClusterCurve `json:"curves"`
}

// clusterPoint renders one (plan, policy, machines, rate) grid point
// from its fold.
func (f *fold) clusterPoint(fl fleet, rps float64) ClusterPoint {
	pt := ClusterPoint{
		OfferedRPS: rps,
		latency:    f.latency(),
		// The WHOLE fleet's energy over completed jobs, not the jobs'
		// attributed share: idle machines' floor draw is what placement
		// policies compete on.
		FleetJoulesPerRequest: f.perCompleted(f.fleetJ),
		FleetAvgPowerW:        f.avgPowerW(),
		StealsPerRequest:      f.perCompleted(float64(f.steals)),
		Migrated:              f.migrated,
		IdleMachines:          f.idleMachines,
		Crashes:               f.crashes,
		Rejoins:               f.rejoins,
		Retries:               f.retries,
		PerMachine:            f.perMachine,
		Tiers:                 f.tiers(),
		Classes:               f.classPoints(),
	}
	// BusyFrac accumulated one share per trial; average them.
	for m := range pt.PerMachine {
		pt.PerMachine[m].BusyFrac /= float64(f.trials)
	}
	// Availability and downtime only appear on chaos points: a
	// fault-free point's availability is trivially 1 and writing it
	// would reshape the pre-chaos artifact.
	if fault.Canonical(fl.plan) != "" {
		pt.Lost = f.lost
		pt.DowntimeS = f.downtime.Seconds()
		if pt.Completed+f.lost > 0 {
			pt.Availability = float64(pt.Completed) / float64(pt.Completed+f.lost)
		}
	}
	return pt
}

// RunCluster executes the whole (policy × machines × rate) grid and
// assembles the artifact.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	g, err := grid{
		workload: cfg.Workload, trace: cfg.Trace, rates: cfg.RatesRPS, window: cfg.Window,
		seed: cfg.Seed, trials: cfg.Trials, workers: cfg.Workers,
		dispatch: cfg.Dispatch, quantum: cfg.PreemptQuantum,
		log: cfg.Log,
	}.validate()
	if err != nil {
		return ClusterResult{}, err
	}
	plans := cfg.Faults
	if len(plans) == 0 {
		plans = []string{""}
	}
	var planNames []string
	chaos := false
	for _, plan := range plans {
		p, err := fault.Resolve(plan)
		if err != nil {
			return ClusterResult{}, err
		}
		planNames = append(planNames, p.Name)
		if fault.Canonical(plan) != "" {
			chaos = true
		}
	}
	if len(cfg.Policies) == 0 {
		return ClusterResult{}, fmt.Errorf("sweep: no placement policies given")
	}
	if len(cfg.Machines) == 0 {
		return ClusterResult{}, fmt.Errorf("sweep: no machine counts given")
	}
	for _, n := range cfg.Machines {
		if n < 1 {
			return ClusterResult{}, fmt.Errorf("sweep: machine counts must be positive, got %d", n)
		}
	}
	res := ClusterResult{
		Workload:         g.workload,
		Trace:            trace.Canonical(g.trace),
		Mode:             cfg.Mode.String(),
		Machines:         append([]int(nil), cfg.Machines...),
		RatesRPS:         g.rates,
		WindowS:          g.window.Seconds(),
		Seed:             g.seed,
		Trials:           g.trials,
		KneeFactor:       DefaultKneeFactor,
		Dispatch:         g.canonicalDispatch(),
		PreemptQuantumMS: g.quantumMS(),
	}
	if chaos {
		res.FaultPlans = planNames
	}
	// Plans outermost: every fault plan replays the full (policy ×
	// machines × rate) grid over the SAME seeded traces, so curves
	// differ only by injected faults.
	for planIdx, plan := range plans {
		for _, p := range cfg.Policies {
			v, err := p.Validate()
			if err != nil {
				return ClusterResult{}, err
			}
			if planIdx == 0 {
				res.Policies = append(res.Policies, v.String())
			}
			for _, machines := range cfg.Machines {
				fl := fleet{mode: cfg.Mode, machines: machines, policy: &v, plan: plan}
				curve := ClusterCurve{Policy: v.String(), Machines: machines, Faults: fault.Canonical(plan)}
				var p99s []float64
				for _, rate := range g.rates {
					f, err := g.point(fl, rate)
					if err != nil {
						return ClusterResult{}, fmt.Errorf("sweep: %s ×%d @ %g rps (faults %q): %w", v, machines, rate, plan, err)
					}
					pt := f.clusterPoint(fl, rate)
					res.Workers = f.workers
					curve.Points = append(curve.Points, pt)
					p99s = append(p99s, pt.P99SojournMS)
					if g.log != nil {
						line := fmt.Sprintf("cluster %s ×%d @ %g rps: p50=%.3fms p99=%.3fms fleetJ/req=%.4f idle=%d migr=%d",
							v, machines, rate, pt.P50SojournMS, pt.P99SojournMS,
							pt.FleetJoulesPerRequest, pt.IdleMachines, pt.Migrated)
						if curve.Faults != "" {
							line += fmt.Sprintf(" [%s: crashes=%d retries=%d lost=%d avail=%.4f]",
								curve.Faults, pt.Crashes, pt.Retries, pt.Lost, pt.Availability)
						}
						g.log(line)
					}
				}
				curve.UnloadedP50MS = curve.Points[0].P50SojournMS
				curve.KneeRPS, curve.KneeReason = DetectKnee(g.rates, p99s, curve.UnloadedP50MS, DefaultKneeFactor)
				res.Curves = append(res.Curves, curve)
			}
		}
	}
	return res, nil
}

// CSV renders the cluster sweep flat, one row per (policy, machines,
// rate) point, with per-machine consolidation packed as
// machine:placed:migrated:energy tuples.
func (r ClusterResult) CSV() string {
	var b strings.Builder
	b.WriteString("policy,machines,faults,offered_rps," + latencyCSVHeader +
		"fleet_joules_per_request,fleet_avg_power_w,steals_per_request,migrated,idle_machines," +
		"crashes,rejoins,retries,lost,availability,downtime_s,knee_rps,per_machine\n")
	for _, c := range r.Curves {
		faults := c.Faults
		if faults == "" {
			faults = "none"
		}
		for _, p := range c.Points {
			per := make([]string, len(p.PerMachine))
			for i, m := range p.PerMachine {
				per[i] = fmt.Sprintf("%d:%d:%d:%.6f", m.Machine, m.Placed, m.Migrated, m.EnergyJ)
			}
			// Fault-free points never set Availability (keeps the JSON
			// artifact byte-stable); in the flat CSV render it as the 1
			// it trivially is.
			avail := p.Availability
			if c.Faults == "" && p.Completed > 0 {
				avail = 1
			}
			fmt.Fprintf(&b, "%s,%d,%s,%g,%s,%.8f,%.6f,%.6f,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%s,%s\n",
				c.Policy, c.Machines, faults, p.OfferedRPS, p.latencyCSV(),
				p.FleetJoulesPerRequest, p.FleetAvgPowerW, p.StealsPerRequest, p.Migrated, p.IdleMachines,
				p.Crashes, p.Rejoins, p.Retries, p.Lost, avail, p.DowntimeS, kneeCSV(c.KneeRPS),
				strings.Join(per, ";"))
		}
	}
	return b.String()
}

// ClassCSV renders the per-class breakdown flat, one row per
// (policy, machines, rate, class). Empty string when the result has no
// class rows.
func (r ClusterResult) ClassCSV() string {
	var b strings.Builder
	for _, c := range r.Curves {
		for _, p := range c.Points {
			classRows(&b, fmt.Sprintf("%s,%d,%g", c.Policy, c.Machines, p.OfferedRPS), p.Classes)
		}
	}
	if b.Len() == 0 {
		return ""
	}
	return "policy,machines,offered_rps," + classCSVHeader + b.String()
}

// String renders the cluster sweep as one compact table per curve,
// with a mixed trace's per-class rows under each point.
func (r ClusterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster sweep: %s, mode=%s, window=%.3gs, seed=%d, trials=%d, workers/machine=%d\n",
		r.Workload, r.Mode, r.WindowS, r.Seed, r.Trials, r.Workers)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "policy %s × %d machines", c.Policy, c.Machines)
		if c.Faults != "" {
			fmt.Fprintf(&b, " [faults %s]", c.Faults)
		}
		fmt.Fprintf(&b, " %s\n", kneeNote(c.UnloadedP50MS, c.KneeRPS, r.KneeFactor, r.RatesRPS))
		b.WriteString("  rps      p50ms    p99ms    queue99  fleetJ/req avgW     idle  migr  peak\n")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %-8g %-8.3f %-8.3f %-8.3f %-10.4f %-8.2f %-5d %-5d %d\n",
				p.OfferedRPS, p.P50SojournMS, p.P99SojournMS, p.P99QueueMS,
				p.FleetJoulesPerRequest, p.FleetAvgPowerW, p.IdleMachines, p.Migrated, p.PeakInflight)
			classTable(&b, p.Classes)
		}
	}
	return b.String()
}
