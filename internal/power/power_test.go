package power

import (
	"math"
	"math/rand"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/units"
)

func TestCoreWattsOrdering(t *testing.T) {
	// For any operating point: busy > spin > idle > unused.
	for _, spec := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
		m := NewModel(spec)
		for _, p := range spec.Points {
			busy := m.CoreWatts(cpu.Busy, p.F)
			spin := m.CoreWatts(cpu.Spin, p.F)
			idle := m.CoreWatts(cpu.IdleHalt, p.F)
			unused := m.CoreWatts(cpu.Unused, p.F)
			if !(busy > spin && spin > idle && idle > unused) {
				t.Fatalf("%s @%v: busy=%.2f spin=%.2f idle=%.2f unused=%.2f",
					spec.Name, p.F, busy, spin, idle, unused)
			}
		}
	}
}

func TestPowerFallsWithFrequency(t *testing.T) {
	for _, spec := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
		m := NewModel(spec)
		prev := -1.0
		// Points are fastest-first; iterate slowest-first.
		for i := len(spec.Points) - 1; i >= 0; i-- {
			w := m.CoreWatts(cpu.Busy, spec.Points[i].F)
			if w <= prev {
				t.Fatalf("%s: power not increasing with frequency at %v", spec.Name, spec.Points[i].F)
			}
			prev = w
		}
	}
}

func TestCalibrationEnvelope(t *testing.T) {
	// Full-load package power should be in the neighbourhood of the
	// real parts' TDP: Opteron 6378 is a 115 W 16-core package, the
	// FX-8150 a 125 W 8-core package. Allow generous slack — we model
	// shape, not a datasheet.
	a := NewModel(cpu.SystemA())
	perCoreA := a.CoreWatts(cpu.Busy, cpu.SystemA().MaxFreq())
	pkgA := 16*perCoreA + a.P.UncoreW
	if pkgA < 80 || pkgA > 160 {
		t.Fatalf("SystemA full-load package = %.1f W, want 80–160", pkgA)
	}

	b := NewModel(cpu.SystemB())
	perCoreB := b.CoreWatts(cpu.Busy, cpu.SystemB().MaxFreq())
	pkgB := 8*perCoreB + b.P.UncoreW
	if pkgB < 90 || pkgB > 170 {
		t.Fatalf("SystemB full-load package = %.1f W, want 90–170", pkgB)
	}
}

func TestSlowFastRatio(t *testing.T) {
	// The energy-saving headroom: a busy core at the paper's default
	// slow frequency should draw well under 70% of its full-speed
	// draw (V² scaling), otherwise no experiment can save energy.
	a := NewModel(cpu.SystemA())
	ratioA := a.CoreWatts(cpu.Busy, 1_600_000*units.KHz) / a.CoreWatts(cpu.Busy, 2_400_000*units.KHz)
	if ratioA > 0.70 || ratioA < 0.30 {
		t.Fatalf("SystemA 1.6/2.4 busy power ratio = %.2f, want 0.30–0.70", ratioA)
	}
	b := NewModel(cpu.SystemB())
	ratioB := b.CoreWatts(cpu.Busy, 2_700_000*units.KHz) / b.CoreWatts(cpu.Busy, 3_600_000*units.KHz)
	if ratioB > 0.75 || ratioB < 0.35 {
		t.Fatalf("SystemB 2.7/3.6 busy power ratio = %.2f, want 0.35–0.75", ratioB)
	}
}

func TestMachineWatts(t *testing.T) {
	spec := cpu.SystemB()
	m := NewModel(spec)
	mach := cpu.NewMachine(spec)
	idleAll := m.MachineWatts(mach) // everything unused
	wantIdle := m.P.UncoreW + 8*m.P.UnusedW
	if diff := idleAll - wantIdle; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("all-unused machine = %.3f W, want %.3f", idleAll, wantIdle)
	}
	mach.Cores[0].State = cpu.Busy
	withOne := m.MachineWatts(mach)
	delta := m.CoreWatts(cpu.Busy, spec.MaxFreq()) - m.P.UnusedW
	if diff := withOne - idleAll - delta; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("busy-core delta = %.3f, want %.3f", withOne-idleAll, delta)
	}
}

func TestDefaultParamsUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown system")
		}
	}()
	DefaultParams(&cpu.Spec{Name: "SystemZ"})
}

// TestMachineWattsMatchesCoreWatts checks the table against CoreWatts
// per core, summed in core order, bit for bit: through every state and
// committed DVFS transition, on both systems.
func TestMachineWattsMatchesCoreWatts(t *testing.T) {
	for _, spec := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
		m := NewModel(spec)
		mach := cpu.NewMachine(spec)
		rng := rand.New(rand.NewSource(1))
		now := units.Time(0)
		for step := 0; step < 2000; step++ {
			c := mach.Cores[rng.Intn(len(mach.Cores))]
			if rng.Intn(2) == 0 {
				c.State = cpu.CoreState(rng.Intn(int(cpu.Busy) + 1))
			} else {
				f := spec.Points[rng.Intn(len(spec.Points))].F
				if changed, at := mach.Request(c, f, now); changed && rng.Intn(3) > 0 {
					c.Dom.Commit(at)
				}
			}
			now += units.Microsecond
			want := m.P.UncoreW * float64(spec.Packages)
			for _, c := range mach.Cores {
				want += m.CoreWatts(c.State, c.Dom.Freq())
			}
			if got := m.MachineWatts(mach); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s step %d: MachineWatts %v, per-core CoreWatts sum %v", spec.Name, step, got, want)
			}
		}
	}
}
