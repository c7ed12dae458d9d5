package trace

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"

	"hermes/internal/units"
	"hermes/internal/wl"
)

func points(t *testing.T, name string, seed int64, rps float64, window time.Duration) []Point {
	t.Helper()
	p, err := Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := p.Points(seed, rps, window)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return pts
}

// TestResolve pins the name plumbing: "" is poisson, unknown names
// list the registered processes, Canonical collapses only the default;
// the table's names are unique and every process has a Gen.
func TestResolve(t *testing.T) {
	p, err := Resolve("")
	if err != nil || p.Name != Default {
		t.Fatalf("Resolve(\"\") = %q, %v; want %q", p.Name, err, Default)
	}
	_, err = Resolve("lognormal")
	if err == nil {
		t.Fatal("unknown process resolved")
	}
	names := Names()
	for i, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered process %q", err, name)
		}
		if p, ok := Lookup(name); name == "" || !ok || p.Gen == nil || slices.Index(names, name) != i {
			t.Errorf("process %d %q is malformed or a duplicate", i, name)
		}
	}
	if Canonical("poisson") != "" || Canonical("") != "" {
		t.Error("Canonical should collapse the default process to \"\"")
	}
	if Canonical("mmpp") != "mmpp" {
		t.Error("Canonical should pass non-default names through")
	}
}

// TestSeedDeterminism is the registry contract every process signs:
// the point sequence is a pure function of (seed, rps, window), and
// different seeds draw different schedules.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range Names() {
		a := points(t, name, 7, 200, time.Second)
		b := points(t, name, 7, 200, time.Second)
		if len(a) != len(b) {
			t.Fatalf("%s: same seed gave %d vs %d points", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at point %d: %+v vs %+v", name, i, a[i], b[i])
			}
		}
		c := points(t, name, 8, 200, time.Second)
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 drew identical schedules", name)
		}
	}
}

// TestPointBounds checks every process's schedule is well-formed:
// strictly inside (0, horizon], ascending, positively sized, and with
// an arrival count in the right ballpark for the offered rate.
func TestPointBounds(t *testing.T) {
	const (
		rps    = 500.0
		window = 2 * time.Second
	)
	horizon := units.Time(window.Nanoseconds()) * units.Nanosecond
	want := rps * window.Seconds()
	for _, name := range Names() {
		pts := points(t, name, 3, rps, window)
		prev := units.Time(0)
		for i, pt := range pts {
			if pt.At <= 0 || pt.At > horizon {
				t.Fatalf("%s: point %d at %v outside (0, %v]", name, i, pt.At, horizon)
			}
			if pt.At < prev {
				t.Fatalf("%s: point %d at %v before predecessor %v", name, i, pt.At, prev)
			}
			prev = pt.At
			if pt.Size <= 0 {
				t.Fatalf("%s: point %d has size %g", name, i, pt.Size)
			}
		}
		// Mean-rate sanity, not a distribution test: all three
		// processes target the same stationary mean, so a 2 s window at
		// 500 rps should land within a factor of ~2 of 1000 arrivals
		// even for the bursty MMPP.
		if float64(len(pts)) < want/2 || float64(len(pts)) > want*2 {
			t.Errorf("%s: %d arrivals in a window targeting %.0f", name, len(pts), want)
		}
	}
}

// TestValidation pins the shared rate/window bounds.
func TestValidation(t *testing.T) {
	p, _ := Resolve("")
	if _, err := p.Points(1, 0, time.Second); err == nil || !strings.Contains(err.Error(), "rps must be positive") {
		t.Errorf("zero rps: %v", err)
	}
	if _, err := p.Points(1, -5, time.Second); err == nil || !strings.Contains(err.Error(), "rps must be positive") {
		t.Errorf("negative rps: %v", err)
	}
	if _, err := p.Points(1, 100, 0); err == nil || !strings.Contains(err.Error(), "window must be positive") {
		t.Errorf("zero window: %v", err)
	}
	if _, err := p.Points(1, 0.001, time.Millisecond); err == nil || !strings.Contains(err.Error(), "no arrivals") {
		t.Errorf("empty schedule: %v", err)
	}
}

// TestPoissonUnitSizes pins the poisson-era artifact contract: unit
// sizes only, so Sized(1) passthrough keeps old sweeps byte-exact.
func TestPoissonUnitSizes(t *testing.T) {
	for _, pt := range points(t, "poisson", 7, 300, time.Second) {
		if pt.Size != 1 {
			t.Fatalf("poisson drew size %g", pt.Size)
		}
	}
	for _, pt := range points(t, "mmpp", 7, 300, time.Second) {
		if pt.Size != 1 {
			t.Fatalf("mmpp drew size %g", pt.Size)
		}
	}
}

// TestParetoSizes checks the bounded-Pareto size draw: within
// [x_m, cap], heavy-tailed enough that some request exceeds the mean,
// and with a sample mean near 1 so offered work tracks the poisson
// process.
func TestParetoSizes(t *testing.T) {
	pts := points(t, "pareto", 11, 1000, 4*time.Second)
	sum, over := 0.0, 0
	for _, pt := range pts {
		if pt.Size < paretoXm || pt.Size > paretoMaxSize {
			t.Fatalf("size %g outside [%g, %g]", pt.Size, paretoXm, paretoMaxSize)
		}
		if pt.Size > 1 {
			over++
		}
		sum += pt.Size
	}
	mean := sum / float64(len(pts))
	if mean < 0.7 || mean > 1.4 {
		t.Errorf("sample mean size = %g, want ≈ 1", mean)
	}
	if over == 0 {
		t.Error("no request drew above the mean — not heavy-tailed")
	}
}

// TestMMPPBursty distinguishes the modulated process from plain
// poisson: its interarrival coefficient of variation must exceed 1
// (poisson's CV), the bursts/lulls signature.
func TestMMPPBursty(t *testing.T) {
	cv := func(name string) float64 {
		pts := points(t, name, 5, 500, 10*time.Second)
		var gaps []float64
		prev := units.Time(0)
		for _, pt := range pts {
			gaps = append(gaps, float64(pt.At-prev))
			prev = pt.At
		}
		mean := 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		varsum := 0.0
		for _, g := range gaps {
			varsum += (g - mean) * (g - mean)
		}
		sd := varsum / float64(len(gaps))
		return sqrt(sd) / mean
	}
	poisson, mmpp := cv("poisson"), cv("mmpp")
	if mmpp <= poisson*1.2 {
		t.Errorf("mmpp interarrival CV %.2f not meaningfully burstier than poisson %.2f", mmpp, poisson)
	}
}

// sqrt avoids importing math for one call in a test helper.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// TestArrivalsBuildsSizedTasks checks the Arrivals bridge hands each
// point's size to the builder, one task per arrival, preserving the
// schedule's timestamps.
func TestArrivalsBuildsSizedTasks(t *testing.T) {
	p, err := Resolve("pareto")
	if err != nil {
		t.Fatal(err)
	}
	var sizes []float64
	arr, err := p.Arrivals(func(size float64) (wl.Task, error) {
		sizes = append(sizes, size)
		return func(wl.Ctx) {}, nil
	}, 1, 100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pts := points(t, "pareto", 1, 100, time.Second)
	if len(arr) != len(pts) || len(sizes) != len(pts) {
		t.Fatalf("%d arrivals / %d builds for %d points", len(arr), len(sizes), len(pts))
	}
	for i := range pts {
		if arr[i].At != pts[i].At {
			t.Fatalf("arrival %d at %v, point at %v", i, arr[i].At, pts[i].At)
		}
		if sizes[i] != pts[i].Size {
			t.Fatalf("build %d got size %g, point has %g", i, sizes[i], pts[i].Size)
		}
	}
}

// FuzzResolve: Resolve never panics; a name it accepts is a registered
// process ("" the default) whose artifact form resolves back to it, and
// whose points for any seed lie in ascending order inside (0, window].
// The seeds (every registered name and near misses) run under plain
// go test.
func FuzzResolve(f *testing.F) {
	for i, s := range append(Names(), "", "Poisson", "mmpp ", "lognormal", "mix/") {
		f.Add(s, int64(i))
	}
	f.Fuzz(func(t *testing.T, name string, seed int64) {
		p, err := Resolve(name)
		if err != nil {
			return
		}
		if want := cmp.Or(name, Default); p.Name != want || p.Gen == nil {
			t.Fatalf("Resolve(%q) = %q (generator %t), want %q", name, p.Name, p.Gen != nil, want)
		}
		if q, err := Resolve(Canonical(p.Name)); err != nil || q.Name != p.Name {
			t.Fatalf("Canonical(%q) = %q resolves to %q, %v", p.Name, Canonical(p.Name), q.Name, err)
		}
		const window = 50 * time.Millisecond
		pts, err := p.Points(seed, 400, window)
		if err != nil {
			return // too short a window for this seed's draw
		}
		horizon := units.Time(window.Nanoseconds()) * units.Nanosecond
		for i, pt := range pts {
			if pt.At <= 0 || pt.At > horizon || i > 0 && pt.At < pts[i-1].At {
				t.Fatalf("%s/seed=%d: point %d at %v, out of order or outside (0, %v]", p.Name, seed, i, pt.At, horizon)
			}
		}
	})
}
