package cluster

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"hermes/internal/core"
)

// Policy describes one placement policy by name and parameters.
type Policy struct {
	// Kind is the policy family: "random", "jsq", "pkc" or "gossip".
	Kind string `json:"kind"`
	// Choices is k for the "pkc" family (2 = the classic
	// power-of-two-choices); ignored otherwise.
	Choices int `json:"choices,omitempty"`
}

// Known lists the canonical policy names a CLI should advertise.
func Known() []string { return []string{"random", "jsq", "p2c", "gossip"} }

// Parse maps a policy name onto a Policy: "random", "jsq", "p2c" (or
// any "p<k>c", e.g. "p3c"), and "gossip". The result is validated.
func Parse(s string) (Policy, error) {
	switch s {
	case "random", "jsq", "gossip":
		return Policy{Kind: s}, nil
	}
	if rest, ok := strings.CutPrefix(s, "p"); ok {
		if digits, ok := strings.CutSuffix(rest, "c"); ok {
			if k, err := strconv.Atoi(digits); err == nil && k >= 1 {
				return Policy{Kind: "pkc", Choices: k}, nil
			}
		}
	}
	return Policy{}, fmt.Errorf("cluster: unknown placement policy %q (want one of %s)",
		s, strings.Join(Known(), ", "))
}

// String renders the canonical name Parse accepts.
func (p Policy) String() string {
	if p.Kind == "pkc" {
		k := p.Choices
		if k == 0 {
			k = 2
		}
		return fmt.Sprintf("p%dc", k)
	}
	return p.Kind
}

// Validate fills family defaults and rejects unknown kinds or
// nonsensical parameters.
func (p Policy) Validate() (Policy, error) {
	switch p.Kind {
	case "random", "jsq", "gossip":
	case "pkc":
		if p.Choices == 0 {
			p.Choices = 2
		}
		if p.Choices < 1 {
			return p, fmt.Errorf("cluster: pkc needs at least one choice, got %d", p.Choices)
		}
	default:
		return p, fmt.Errorf("cluster: unknown placement policy kind %q", p.Kind)
	}
	return p, nil
}

// Placer materialises the core.Placement behind the policy. The
// "gossip" family places load-blind (random) — balancing is the gossip
// tier's job (core.ClusterConfig.Gossip).
func (p Policy) Placer() core.Placement {
	switch p.Kind {
	case "jsq":
		return jsqPlacer{}
	case "pkc":
		k := p.Choices
		if k == 0 {
			k = 2
		}
		return pkcPlacer{k: k}
	default: // "random", "gossip"
		return randomPlacer{}
	}
}

// randomPlacer is uniform random, load-blind: the spreading baseline
// consolidating policies are measured against. Dead machines are
// skipped by scanning forward from the draw, so the stream stays
// byte-identical to the fault-free run (one draw per placement).
type randomPlacer struct{}

func (randomPlacer) Place(v core.PlacementView, rng *rand.Rand) int {
	n := v.Machines()
	m := rng.Intn(n)
	for i := 0; i < n; i++ {
		if c := (m + i) % n; v.Alive(c) {
			return c
		}
	}
	return m // whole fleet down; the cluster defers or loses the job
}

// jsqPlacer is join-shortest-queue over exact instantaneous loads,
// ties to the lowest live machine index.
type jsqPlacer struct{}

func (jsqPlacer) Place(v core.PlacementView, _ *rand.Rand) int {
	best, load := -1, 0
	for m := 0; m < v.Machines(); m++ {
		if !v.Alive(m) {
			continue
		}
		if l := v.Load(m); best < 0 || l < load {
			best, load = m, l
		}
	}
	if best < 0 {
		return 0 // whole fleet down; the cluster defers or loses the job
	}
	return best
}

// pkcPlacer is power-of-k-choices backed by the cluster's idle-machine
// scan: while any machine is idle, take the lowest-indexed one (this
// is what consolidates — higher-indexed machines stay parked in the
// lowest DVFS tier); once the fleet is saturated, sample k machines
// and join the least loaded, ties to the lowest sampled index. The rng
// only advances when sampling actually happens, keeping the stream
// deterministic per (trace, seed); dead samples are discarded but
// still drawn (k draws either way), so enabling faults never shifts
// the fault-free stream. If every sample is dead, fall back to the
// lowest-indexed live machine.
type pkcPlacer struct{ k int }

func (p pkcPlacer) Place(v core.PlacementView, rng *rand.Rand) int {
	if m, ok := v.IdleMachine(); ok {
		return m
	}
	n := v.Machines()
	best, load := -1, 0
	for i := 0; i < p.k; i++ {
		m := rng.Intn(n)
		if !v.Alive(m) {
			continue
		}
		if l := v.Load(m); best < 0 || l < load || (l == load && m < best) {
			best, load = m, l
		}
	}
	if best < 0 {
		for m := 0; m < n; m++ {
			if v.Alive(m) {
				return m
			}
		}
		return 0 // whole fleet down; the cluster defers or loses the job
	}
	return best
}
