package fault

import (
	"fmt"
	"testing"

	"hermes/internal/core"
	"hermes/internal/units"
)

func TestRegistryNames(t *testing.T) {
	got := Names()
	want := []string{"none", "crash", "failslow", "blip"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
		// want has no repeats, so the names are unique; a plan without a
		// Gen would compile to a nil dereference.
		if p, ok := Lookup(want[i]); !ok || p.Gen == nil {
			t.Fatalf("plan %q: found %v, Gen nil %v", want[i], ok, p.Gen == nil)
		}
	}
}

func TestResolveAndCanonical(t *testing.T) {
	p, err := Resolve("")
	if err != nil || p.Name != Default {
		t.Fatalf(`Resolve("") = %q, %v; want the %q default`, p.Name, err, Default)
	}
	if _, err := Resolve("quake"); err == nil {
		t.Fatal("unknown plan resolved")
	}
	if c := Canonical(""); c != "" {
		t.Fatalf(`Canonical("") = %q, want ""`, c)
	}
	if c := Canonical(Default); c != "" {
		t.Fatalf("Canonical(%q) = %q, want \"\" — the default plan is fault-free", Default, c)
	}
	if c := Canonical("crash"); c != "crash" {
		t.Fatalf(`Canonical("crash") = %q`, c)
	}
}

func TestCompileErrors(t *testing.T) {
	h := units.Time(30) * units.Millisecond
	if _, err := Compile("quake", 1, 4, h); err == nil {
		t.Fatal("unknown plan compiled")
	}
	if _, err := Compile("crash", 1, 0, h); err == nil {
		t.Fatal("zero machines compiled")
	}
	if _, err := Compile("crash", 1, 4, 0); err == nil {
		t.Fatal("zero horizon compiled")
	}
}

// TestCompileDeterministic: same (plan, seed, machines, horizon) ⇒
// identical schedule; a different seed moves it.
func TestCompileDeterministic(t *testing.T) {
	h := units.Time(30) * units.Millisecond
	for _, name := range Names() {
		a, err := Compile(name, 7, 8, h)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compile(name, 7, 8, h)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("plan %q not deterministic:\n%+v\nvs\n%+v", name, a, b)
		}
		if name == Default {
			if len(a) != 0 {
				t.Fatalf("plan %q injected %d events", name, len(a))
			}
			continue
		}
		if len(a) == 0 {
			t.Fatalf("plan %q injected nothing on 8 machines", name)
		}
		c, err := Compile(name, 8, 8, h)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", c) {
			t.Fatalf("plan %q ignores the seed", name)
		}
	}
}

// TestCompileWellFormed: every generated schedule passes the cluster's
// own validation — sorted, in-range machines, in-window times, sane
// factors — across a spread of seeds and fleet sizes.
func TestCompileWellFormed(t *testing.T) {
	h := units.Time(30) * units.Millisecond
	for _, name := range Names() {
		for seed := int64(0); seed < 20; seed++ {
			for _, machines := range []int{1, 2, 4, 16} {
				evs, err := Compile(name, seed, machines, h)
				if err != nil {
					t.Fatal(err)
				}
				for i, ev := range evs {
					if ev.Machine < 0 || ev.Machine >= machines {
						t.Fatalf("%s/seed=%d: event %d targets machine %d of %d", name, seed, i, ev.Machine, machines)
					}
					if ev.At <= 0 {
						t.Fatalf("%s/seed=%d: event %d at non-positive time %v", name, seed, i, ev.At)
					}
					if i > 0 && ev.At < evs[i-1].At {
						t.Fatalf("%s/seed=%d: schedule not sorted at %d", name, seed, i)
					}
					switch ev.Kind {
					case core.FaultCrash, core.FaultRejoin, core.FaultRecover:
					case core.FaultSlow:
						if ev.Factor != 0 && ev.Factor <= 1 {
							t.Fatalf("%s/seed=%d: slow factor %v", name, seed, ev.Factor)
						}
					default:
						t.Fatalf("%s/seed=%d: unknown kind %v", name, seed, ev.Kind)
					}
				}
			}
		}
	}
}

// TestCrashPlanSingleMachineRejoins: a one-machine fleet must always
// get its machine back, or the whole tail of every trace is lost.
func TestCrashPlanSingleMachineRejoins(t *testing.T) {
	h := units.Time(30) * units.Millisecond
	for seed := int64(0); seed < 50; seed++ {
		evs, err := Compile("crash", seed, 1, h)
		if err != nil {
			t.Fatal(err)
		}
		var crashes, rejoins int
		for _, ev := range evs {
			switch ev.Kind {
			case core.FaultCrash:
				crashes++
			case core.FaultRejoin:
				rejoins++
			}
		}
		if crashes == 0 || rejoins != crashes {
			t.Fatalf("seed %d: %d crashes, %d rejoins on a single machine", seed, crashes, rejoins)
		}
	}
}

// FuzzCompile: Resolve and Compile never panic over any plan name,
// seed, fleet size and horizon, and a schedule Compile returns is sorted
// by (At, Machine), starts no earlier than 0 and targets only machines
// of the fleet. Fleets are capped at 4096 machines and horizons at a day
// of virtual time, where the plans' arithmetic stays inside int64. The
// seeds (every registered plan and near misses) run under plain go test.
func FuzzCompile(f *testing.F) {
	for i, s := range append(Names(), "", "Crash", "crash,failslow", "chaos") {
		f.Add(s, int64(i), i%5, int64(30*units.Millisecond))
	}
	f.Add("crash", int64(7), 1, int64(1))
	f.Add("blip", int64(7), -1, int64(-1))
	f.Fuzz(func(t *testing.T, name string, seed int64, machines int, horizon int64) {
		machines %= 4096
		h := units.Time(horizon % int64(24*3600*units.Second))
		if _, err := Resolve(name); err != nil {
			return
		}
		evs, err := Compile(name, seed, machines, h)
		if err != nil {
			return
		}
		for i, ev := range evs {
			if ev.At < 0 || ev.Machine < 0 || ev.Machine >= machines {
				t.Fatalf("%s/seed=%d/%d machines/horizon %v: event %d %+v", name, seed, machines, h, i, ev)
			}
			if i > 0 {
				if p := evs[i-1]; p.At > ev.At || p.At == ev.At && p.Machine > ev.Machine {
					t.Fatalf("%s/seed=%d: schedule not sorted by (At, Machine) at %d", name, seed, i)
				}
			}
		}
	})
}
