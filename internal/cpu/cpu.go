// Package cpu models the processors the paper evaluates on: multi-core
// CPUs whose cores are grouped into clock domains (two cores per
// domain on both AMD Piledriver and Bulldozer), with per-domain DVFS
// that takes effect after a transition latency in the tens of
// microseconds.
//
// The package is passive: it holds state and answers queries. The
// scheduler decides when transitions commit and what their
// consequences are (re-rating in-flight work, energy integration).
package cpu

import (
	"fmt"

	"hermes/internal/units"
)

// OperatingPoint pairs a supported core frequency with the voltage the
// hardware applies at that frequency. Dynamic power scales with V²·f,
// so the voltage column is what makes low frequencies profitable.
type OperatingPoint struct {
	F          units.Freq
	MilliVolts int
}

// Spec is the immutable description of a machine model.
type Spec struct {
	Name           string
	Cores          int
	CoresPerDomain int
	Packages       int
	// Points lists supported operating points in descending frequency
	// order (fastest first), matching the paper's f1 > f2 > … > fn.
	Points []OperatingPoint
	// DVFSLatency is the time between requesting a frequency change
	// and the domain running at the new frequency.
	DVFSLatency units.Time
}

// Domains reports the number of independent clock domains.
func (s *Spec) Domains() int { return s.Cores / s.CoresPerDomain }

// MaxFreq returns the fastest supported frequency.
func (s *Spec) MaxFreq() units.Freq { return s.Points[0].F }

// MinFreq returns the slowest supported frequency.
func (s *Spec) MinFreq() units.Freq { return s.Points[len(s.Points)-1].F }

// Freqs returns the supported frequencies, fastest first.
func (s *Spec) Freqs() []units.Freq {
	out := make([]units.Freq, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.F
	}
	return out
}

// Voltage returns the supply voltage (millivolts) at frequency f.
// It panics if f is not a supported operating point: requesting an
// unsupported frequency is a runtime bug, not an input error.
func (s *Spec) Voltage(f units.Freq) int {
	for _, p := range s.Points {
		if p.F == f {
			return p.MilliVolts
		}
	}
	panic(fmt.Sprintf("cpu: %s does not support %v", s.Name, f))
}

// Supports reports whether f is one of the spec's operating points.
func (s *Spec) Supports(f units.Freq) bool { return s.Point(f) >= 0 }

// Point returns the index of f in Points, or -1 if f is not supported.
func (s *Spec) Point(f units.Freq) int {
	for i, p := range s.Points {
		if p.F == f {
			return i
		}
	}
	return -1
}

// SystemA models the paper's System A: two 16-core AMD Opteron 6378
// (Piledriver) packages — 32 cores in 16 independent clock domains —
// supporting 1.4, 1.6, 1.9, 2.2 and 2.4 GHz. Voltages follow the
// near-linear V/f slope of the Piledriver family.
func SystemA() *Spec {
	return &Spec{
		Name:           "SystemA",
		Cores:          32,
		CoresPerDomain: 2,
		Packages:       2,
		Points: []OperatingPoint{
			{2_400_000 * units.KHz, 1300},
			{2_200_000 * units.KHz, 1238},
			{1_900_000 * units.KHz, 1144},
			{1_600_000 * units.KHz, 1050},
			{1_400_000 * units.KHz, 988},
		},
		DVFSLatency: 50 * units.Microsecond,
	}
}

// SystemB models the paper's System B: one 8-core AMD FX-8150
// (Bulldozer) — 4 clock domains — supporting 1.4, 2.1, 2.7, 3.3 and
// 3.6 GHz.
func SystemB() *Spec {
	return &Spec{
		Name:           "SystemB",
		Cores:          8,
		CoresPerDomain: 2,
		Packages:       1,
		Points: []OperatingPoint{
			{3_600_000 * units.KHz, 1412},
			{3_300_000 * units.KHz, 1350},
			{2_700_000 * units.KHz, 1238},
			{2_100_000 * units.KHz, 1125},
			{1_400_000 * units.KHz, 1000},
		},
		DVFSLatency: 50 * units.Microsecond,
	}
}

// CoreState describes what a core is doing, for power accounting.
type CoreState uint8

const (
	// Unused: no worker assigned; the core sits in a deep sleep state.
	Unused CoreState = iota
	// IdleHalt: a worker is assigned but has parked (halted) the core.
	IdleHalt
	// Spin: the worker is busy-waiting — steal attempts, yield
	// backoff. Burns most, but not all, of full dynamic power.
	Spin
	// Busy: the worker executes task work or scheduler bookkeeping.
	Busy
)

func (s CoreState) String() string {
	switch s {
	case Unused:
		return "unused"
	case IdleHalt:
		return "idle"
	case Spin:
		return "spin"
	case Busy:
		return "busy"
	}
	return "invalid"
}

// Core is one hardware core.
type Core struct {
	ID    int
	Dom   *Domain
	State CoreState
	// Req is the frequency this core's worker last requested. The
	// domain runs at the maximum request across its in-use cores
	// (hardware picks the highest vote in a shared domain).
	Req units.Freq
}

// Domain is an independent clock domain: the unit of DVFS.
type Domain struct {
	ID    int
	Cores []*Core

	cur      units.Freq
	target   units.Freq
	pending  bool
	commitAt units.Time
	// pt and targetPt index cur and target in Spec.Points.
	pt, targetPt int
}

// Freq returns the frequency the domain currently runs at.
func (d *Domain) Freq() units.Freq { return d.cur }

// Point returns the index in Spec.Points of the frequency the domain
// currently runs at.
func (d *Domain) Point() int { return d.pt }

// Pending reports whether a transition is in flight and when it lands.
func (d *Domain) Pending() (units.Freq, units.Time, bool) {
	return d.target, d.commitAt, d.pending
}

// vote returns the frequency the domain should run at: the maximum
// request among cores that are in use, or the current frequency if no
// core is in use (idle domains hold their setting, per the paper's
// idle-worker policy).
func (d *Domain) vote() units.Freq {
	var best units.Freq
	for _, c := range d.Cores {
		if c.State != Unused && c.Req > best {
			best = c.Req
		}
	}
	if best == 0 {
		return d.cur
	}
	return best
}

// Machine is a runtime instance of a Spec.
type Machine struct {
	Spec    *Spec
	Domains []*Domain
	Cores   []*Core
}

// NewMachine instantiates spec with every core Unused and every domain
// at the maximum frequency (Linux performance governor boot state).
func NewMachine(spec *Spec) *Machine {
	m := &Machine{Spec: spec}
	nd := spec.Domains()
	m.Domains = make([]*Domain, nd)
	m.Cores = make([]*Core, spec.Cores)
	for i := range m.Domains {
		m.Domains[i] = &Domain{ID: i, cur: spec.MaxFreq()} // pt 0: MaxFreq is Points[0]
	}
	for i := range m.Cores {
		d := m.Domains[i/spec.CoresPerDomain]
		c := &Core{ID: i, Dom: d, State: Unused, Req: spec.MaxFreq()}
		d.Cores = append(d.Cores, c)
		m.Cores[i] = c
	}
	return m
}

// DistinctDomainCores returns n cores on n distinct clock domains (the
// first core of each domain), reproducing the paper's placement rule
// that avoids DVFS interference between workers. It panics if the
// machine has fewer domains than n.
func (m *Machine) DistinctDomainCores(n int) []*Core {
	if n > len(m.Domains) {
		panic(fmt.Sprintf("cpu: %s has %d domains, cannot place %d workers on distinct domains",
			m.Spec.Name, len(m.Domains), n))
	}
	cores := make([]*Core, n)
	for i := 0; i < n; i++ {
		cores[i] = m.Domains[i].Cores[0]
	}
	return cores
}

// Request records core c's vote for frequency f and recomputes the
// domain target. If the effective target differs from both the current
// frequency and any in-flight transition target, a new transition is
// started, committing at now + DVFSLatency; the returned commitAt is
// then valid and changed is true. A request that re-targets the
// current frequency cancels any in-flight transition.
func (m *Machine) Request(c *Core, f units.Freq, now units.Time) (changed bool, commitAt units.Time) {
	if !m.Spec.Supports(f) {
		panic(fmt.Sprintf("cpu: request for unsupported frequency %v on %s", f, m.Spec.Name))
	}
	c.Req = f
	d := c.Dom
	want := d.vote()
	if want == d.cur {
		d.pending = false
		return false, 0
	}
	if d.pending && d.target == want {
		return false, 0 // already heading there
	}
	d.pending = true
	d.target, d.targetPt = want, m.Spec.Point(want)
	d.commitAt = now + m.Spec.DVFSLatency
	return true, d.commitAt
}

// Commit applies the in-flight transition on d if one is due at or
// before now. It reports whether the domain's effective frequency
// changed. Commit events can be stale (superseded by later requests);
// stale commits are no-ops.
func (d *Domain) Commit(now units.Time) bool {
	if !d.pending || now < d.commitAt {
		return false
	}
	d.pending = false
	if d.target == d.cur {
		return false
	}
	d.cur, d.pt = d.target, d.targetPt
	return true
}
