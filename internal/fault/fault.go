// Package fault is the registry of named, seeded fault plans — the
// chaos counterpart of internal/trace's arrival processes. A plan
// compiles, for a given (seed, fleet size, window), into a sorted
// schedule of core.FaultEvents that the cluster's fault daemon replays
// on the shared virtual timeline; the same (config, seed, trace, plan)
// therefore yields byte-identical outcomes, crashes included.
package fault

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"hermes/internal/core"
	"hermes/internal/units"
)

// Salt is the PCG stream constant every fault plan draws from. It is
// deliberately distinct from trace.Salt so a plan's draws never
// correlate with the arrival schedule generated from the same seed.
const Salt = 0xc2b2ae3d27d4eb4f

// Default is the plan name an empty -faults entry (or config field)
// resolves to. Artifacts normalize it to "" (see Canonical) so the
// fault-free JSON shape is preserved byte-for-byte.
const Default = "none"

// Plan is one registered fault plan.
type Plan struct {
	// Name is the registry key (-faults flag value).
	Name string
	// Desc is a one-line description.
	Desc string
	// Gen draws the fault schedule for a fleet of machines over
	// (0, horizon] from rng. It must consume rng deterministically —
	// the schedule is a function of (seed, machines, horizon) alone.
	// Compile sorts the result, so generation order is free.
	Gen func(rng *rand.Rand, machines int, horizon units.Time) []core.FaultEvent
}

// Lookup finds a registered plan by name.
func Lookup(name string) (Plan, bool) {
	for _, p := range plans {
		if p.Name == name {
			return p, true
		}
	}
	return Plan{}, false
}

// Names lists the registered plan names in table order.
func Names() []string {
	out := make([]string, len(plans))
	for i, p := range plans {
		out[i] = p.Name
	}
	return out
}

// Resolve maps a user-supplied plan name ("" = Default) to its
// registered Plan, rejecting unknown names with the registered list.
func Resolve(name string) (Plan, error) {
	if name == "" {
		name = Default
	}
	p, ok := Lookup(name)
	if !ok {
		return Plan{}, fmt.Errorf("fault: unknown fault plan %q (registered: %v)", name, Names())
	}
	return p, nil
}

// Canonical returns the artifact form of a plan name: the default
// (fault-free) plan collapses to "" so pre-chaos artifacts keep their
// byte-exact shape; any other name passes through.
func Canonical(name string) string {
	if name == Default {
		return ""
	}
	return name
}

// Compile resolves a plan and generates its deterministic fault
// schedule for one seed, sorted by (At, Machine) — ready for
// ClusterConfig.Faults or hermes.WithFaults.
func Compile(name string, seed int64, machines int, horizon units.Time) ([]core.FaultEvent, error) {
	p, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	if machines < 1 {
		return nil, fmt.Errorf("fault: plan %q needs at least one machine, got %d", p.Name, machines)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("fault: plan %q needs a positive horizon, got %v", p.Name, horizon)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), Salt))
	evs := p.Gen(rng, machines, horizon)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		return evs[i].Machine < evs[j].Machine
	})
	return evs, nil
}

// scale returns fraction f of the horizon as a virtual time.
func scale(horizon units.Time, f float64) units.Time {
	return units.Time(float64(horizon) * f)
}

// quarter returns max(1, n/4) — the victim count of the crash and
// failslow plans.
func quarter(n int) int {
	k := n / 4
	if k < 1 {
		k = 1
	}
	return k
}

// plans is the ordered table of fault plans, read-only after package
// initialization. Names are unique and every entry has a Gen
// (TestRegistryNames).
var plans = []Plan{
	{
		Name: "none",
		Desc: "no injected faults — the availability baseline",
		Gen: func(*rand.Rand, int, units.Time) []core.FaultEvent {
			return nil
		},
	},
	{
		Name: "crash",
		Desc: "fail-stop: ~¼ of the fleet crashes mid-window; most victims rejoin after a drawn downtime",
		Gen: func(rng *rand.Rand, machines int, horizon units.Time) []core.FaultEvent {
			var evs []core.FaultEvent
			for _, m := range rng.Perm(machines)[:quarter(machines)] {
				at := scale(horizon, 0.2+0.4*rng.Float64())
				evs = append(evs, core.FaultEvent{At: at, Machine: m, Kind: core.FaultCrash})
				// A single-machine fleet always rejoins — a permanent
				// total outage would just lose the whole tail of the
				// trace; larger fleets lose a victim for good 25% of the
				// time.
				if machines == 1 || rng.Float64() < 0.75 {
					down := scale(horizon, 0.1+0.2*rng.Float64())
					evs = append(evs, core.FaultEvent{At: at + down, Machine: m, Kind: core.FaultRejoin})
				}
			}
			return evs
		},
	},
	{
		Name: "failslow",
		Desc: "stragglers: ~¼ of the fleet runs slow for a long window — lowest-tier pinned, or work inflated 1.5–3×",
		Gen: func(rng *rand.Rand, machines int, horizon units.Time) []core.FaultEvent {
			var evs []core.FaultEvent
			for _, m := range rng.Perm(machines)[:quarter(machines)] {
				at := scale(horizon, 0.2+0.3*rng.Float64())
				dur := scale(horizon, 0.3+0.2*rng.Float64())
				factor := 0.0 // tier pin
				if rng.Float64() < 0.5 {
					factor = 1.5 + 1.5*rng.Float64()
				}
				evs = append(evs,
					core.FaultEvent{At: at, Machine: m, Kind: core.FaultSlow, Factor: factor},
					core.FaultEvent{At: at + dur, Machine: m, Kind: core.FaultRecover})
			}
			return evs
		},
	},
	{
		Name: "blip",
		Desc: "transient stalls: ~½ of the fleet suffers a short 25× slowdown window",
		Gen: func(rng *rand.Rand, machines int, horizon units.Time) []core.FaultEvent {
			k := machines / 2
			if k < 1 {
				k = 1
			}
			var evs []core.FaultEvent
			for _, m := range rng.Perm(machines)[:k] {
				at := scale(horizon, 0.1+0.7*rng.Float64())
				dur := scale(horizon, 0.02+0.03*rng.Float64())
				evs = append(evs,
					core.FaultEvent{At: at, Machine: m, Kind: core.FaultSlow, Factor: 25},
					core.FaultEvent{At: at + dur, Machine: m, Kind: core.FaultRecover})
			}
			return evs
		},
	},
}
