// Package power models CPU power draw as a function of each core's
// activity state and operating point, replacing the paper's physical
// current meter on the 12 V CPU supply lines.
//
// The model is the textbook CMOS decomposition the DVFS literature the
// paper cites relies on:
//
//	P_core = activity · C_eff · V² · f  +  k_leak · V     (dynamic + leakage)
//	P_pkg  = P_uncore · packages + Σ P_core
//
// Constants are calibrated once per system from the public TDP
// envelopes of the Opteron 6378 (115 W, 16 cores) and FX-8150 (125 W,
// 8 cores) and then held fixed across every experiment; the
// reproduction targets the *shape* of the paper's results, not
// absolute wattage.
package power

import (
	"fmt"

	"hermes/internal/cpu"
	"hermes/internal/units"
)

// Params are the calibration constants of the power model.
type Params struct {
	// CeffNF is the effective switched capacitance per core in
	// nanofarads: dynamic watts = CeffNF·1e-9 · V² · f(Hz).
	CeffNF float64
	// LeakWPerV is per-core leakage in watts per volt of supply.
	LeakWPerV float64
	// SpinFactor scales dynamic power while a core busy-waits
	// (steal loops, yield backoff): no memory traffic, stalled
	// pipeline, but the clock still toggles.
	SpinFactor float64
	// IdleResidualW is the dynamic residue of a halted (C1) core;
	// leakage still applies because voltage is held.
	IdleResidualW float64
	// UnusedW is the draw of a power-gated core with no worker.
	UnusedW float64
	// UncoreW is the constant per-package draw: memory controller,
	// L3, interconnect.
	UncoreW float64
}

// DefaultParams returns the calibrated constants for one of the two
// modeled systems.
func DefaultParams(spec *cpu.Spec) Params {
	switch spec.Name {
	case "SystemA":
		// Opteron 6378: ~5.5 W dynamic per core at 2.4 GHz/1.3 V.
		return Params{
			CeffNF:        1.36,
			LeakWPerV:     1.20,
			SpinFactor:    0.70,
			IdleResidualW: 0.25,
			UnusedW:       0.10,
			UncoreW:       19.0,
		}
	case "SystemB":
		// FX-8150: ~11 W dynamic per core at 3.6 GHz/1.412 V.
		return Params{
			CeffNF:        1.53,
			LeakWPerV:     1.50,
			SpinFactor:    0.70,
			IdleResidualW: 0.30,
			UnusedW:       0.15,
			UncoreW:       14.0,
		}
	default:
		panic(fmt.Sprintf("power: no calibration for system %q", spec.Name))
	}
}

// Model computes power for a machine spec.
type Model struct {
	Spec *cpu.Spec
	P    Params

	// watts caches CoreWatts by operating point (index into
	// Spec.Points) and core state, for MachineWatts.
	watts [][cpu.Busy + 1]float64
}

// NewModel builds a model with the default calibration for spec.
func NewModel(spec *cpu.Spec) *Model {
	m := &Model{Spec: spec, P: DefaultParams(spec)}
	m.watts = make([][cpu.Busy + 1]float64, len(spec.Points))
	for i, p := range spec.Points {
		for st := cpu.Unused; st <= cpu.Busy; st++ {
			m.watts[i][st] = m.CoreWatts(st, p.F)
		}
	}
	return m
}

// CoreWatts returns the draw of a single core in state st running at
// frequency f.
func (m *Model) CoreWatts(st cpu.CoreState, f units.Freq) float64 {
	if st == cpu.Unused {
		return m.P.UnusedW
	}
	v := float64(m.Spec.Voltage(f)) / 1000.0
	leak := m.P.LeakWPerV * v
	switch st {
	case cpu.IdleHalt:
		return leak + m.P.IdleResidualW
	case cpu.Spin:
		return leak + m.P.SpinFactor*m.dyn(v, f)
	case cpu.Busy:
		return leak + m.dyn(v, f)
	}
	panic("power: invalid core state")
}

func (m *Model) dyn(v float64, f units.Freq) float64 {
	hz := float64(f) * 1000.0 // kHz → Hz
	return m.P.CeffNF * 1e-9 * v * v * hz
}

// MachineWatts returns the instantaneous draw of the whole machine:
// every core at its domain's current operating point, plus uncore. It
// reads CoreWatts from the table NewModel built, so the sum is
// bit-identical to calling CoreWatts per core.
func (m *Model) MachineWatts(mach *cpu.Machine) float64 {
	w := m.P.UncoreW * float64(m.Spec.Packages)
	for _, c := range mach.Cores {
		w += m.watts[c.Dom.Point()][c.State]
	}
	return w
}
