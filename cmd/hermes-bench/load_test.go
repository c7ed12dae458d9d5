package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"hermes"
	"hermes/internal/sweep"
	"hermes/internal/trace"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// nativePoint folds completed jobs with the given sojourns, all
// arriving at time zero, into the Native run's Point.
func nativePoint(sojourns ...units.Time) sweep.Point {
	arrivals := make([]hermes.Arrival, len(sojourns))
	reports := make([]hermes.Report, len(sojourns))
	for i, s := range sojourns {
		reports[i].Sojourn = s
	}
	return sweep.Fold(100, arrivals, reports, make([]error, len(sojourns)), hermes.ClusterStats{})
}

// TestPercentileMS pins the nearest-rank sojourn percentiles the load
// summary reports: whole ranks of 1..100 ms, and 0 with no samples.
func TestPercentileMS(t *testing.T) {
	var sojourns []units.Time
	for i := 100; i >= 1; i-- {
		sojourns = append(sojourns, units.Time(i)*units.Millisecond)
	}
	sum := nativePoint(sojourns...)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50", sum.P50SojournMS, 50}, {"p95", sum.P95SojournMS, 95},
		{"p99", sum.P99SojournMS, 99}, {"max", sum.MaxSojournMS, 100},
	} {
		if c.got != c.want {
			t.Errorf("%s = %gms, want %gms", c.name, c.got, c.want)
		}
	}
	if empty := nativePoint(); empty.P50SojournMS != 0 || empty.MaxSojournMS != 0 {
		t.Errorf("empty percentiles p50=%g max=%g, want 0", empty.P50SojournMS, empty.MaxSojournMS)
	}
}

// TestPercentileMSSubMillisecond is the regression pin for the
// sub-millisecond sojourns a load summary reports: they keep their
// full resolution instead of truncating to whole milliseconds.
func TestPercentileMSSubMillisecond(t *testing.T) {
	sum := nativePoint(1500*units.Nanosecond, 2750*units.Nanosecond)
	if sum.P50SojournMS != 0.0015 {
		t.Errorf("p50 of 1500ns = %gms, want 0.0015ms", sum.P50SojournMS)
	}
	if sum.MaxSojournMS != 0.00275 {
		t.Errorf("max of 2750ns = %gms, want 0.00275ms", sum.MaxSojournMS)
	}
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := runLoad(loadOpts{RPS: 0, Duration: time.Second}); err == nil {
		t.Error("rps=0 accepted")
	}
	if _, err := runLoad(loadOpts{RPS: 10, Duration: 0}); err == nil {
		t.Error("duration=0 accepted")
	}
	if _, err := runLoad(loadOpts{RPS: 10, Duration: time.Second,
		Spec: workload.Spec{Kind: "nope"}}); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := runLoad(loadOpts{RPS: 10, Duration: time.Second,
		Spec: workload.Spec{Kind: "ticks"}, Trace: "lognormal"}); err == nil {
		t.Error("bad trace accepted")
	} else if !strings.Contains(err.Error(), "poisson") {
		t.Errorf("bad-trace error %q does not list registered processes", err)
	}
}

// TestLoadAndSweepShareOneGenerator is the single-salt pin: the load
// run and the sweep draw their arrival schedules through
// sweep.TraceArrivals, and TraceArrivals must fire exactly the
// registered internal/trace process's point sequence for one (trace,
// rps, window, seed) tuple. Before the registry, the load and sweep
// paths each kept their own copy of the PCG salt constant; this test
// fails if a second generator ever reappears behind TraceArrivals.
func TestLoadAndSweepShareOneGenerator(t *testing.T) {
	const (
		rps    = 250.0
		window = time.Second
		seed   = int64(9)
	)
	spec, err := workload.Spec{Kind: "ticks", N: 16}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range trace.Names() {
		proc, err := trace.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		// The registry's own draw.
		pts, err := proc.Points(seed, rps, window)
		if err != nil {
			t.Fatal(err)
		}
		// What runLoad and the sweep submit.
		arr, err := sweep.TraceArrivals(spec, name, rps, window, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(arr) {
			t.Fatalf("%s: the registry draws %d arrivals, TraceArrivals %d", name, len(pts), len(arr))
		}
		for i := range pts {
			if pts[i].At != arr[i].At {
				t.Fatalf("%s: arrival %d at %v in the registry, %v from TraceArrivals",
					name, i, pts[i].At, arr[i].At)
			}
		}
	}
}

// TestInprocLoadShortRun drives the full open-loop pipeline against
// an in-process runtime for one short burst and checks the summary is
// self-consistent.
func TestInprocLoadShortRun(t *testing.T) {
	sum, err := runLoad(loadOpts{
		RPS:      200,
		Duration: 500 * time.Millisecond,
		Spec:     workload.Spec{Kind: "ticks", N: 16, Work: 50_000},
		Seed:     42,
		Mode:     "unified",
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Arrivals == 0 || sum.Completed != sum.Arrivals {
		t.Fatalf("lost requests: %+v", sum)
	}
	if sum.Errors != 0 {
		t.Fatalf("unexpected failures: %+v", sum)
	}
	if sum.P50SojournMS <= 0 || sum.P99SojournMS < sum.P50SojournMS {
		t.Fatalf("implausible sojourn percentiles: %+v", sum)
	}
	if sum.JoulesPerRequest <= 0 {
		t.Fatalf("no energy attributed per request: %+v", sum)
	}
}

// TestInprocLoadReportsMachineLedger: the Native run's Point carries
// the machine ledger, average power and a DVFS residency whose tier
// shares partition the busy time.
func TestInprocLoadReportsMachineLedger(t *testing.T) {
	sum, err := runLoad(loadOpts{
		RPS:      50,
		Duration: 400 * time.Millisecond,
		Spec:     workload.Spec{Kind: "ticks"},
		Seed:     1,
		Mode:     "unified",
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.AvgPowerW <= 0 || len(sum.Tiers) == 0 {
		t.Fatalf("no machine ledger in the Point: avg_power_w %g, tiers %v", sum.AvgPowerW, sum.Tiers)
	}
	var frac float64
	for _, tier := range sum.Tiers {
		frac += tier.Frac
	}
	if math.Abs(frac-1) > 1e-9 {
		t.Fatalf("tier shares sum to %.12f, want 1: %+v", frac, sum.Tiers)
	}
}

// TestInprocLoadMixedClasses covers the per-class rows of a Native
// wall-clock run: they partition the flat totals, come in the sweep's
// class order (the latency-critical priority-1 class first) and carry
// the lc class's SLO target with an attainment in [0, 1].
func TestInprocLoadMixedClasses(t *testing.T) {
	sum, err := runLoad(loadOpts{
		RPS:      200,
		Duration: 500 * time.Millisecond,
		Spec:     workload.Spec{Kind: "ticks", N: 16, Work: 50_000},
		Trace:    "mix",
		Seed:     7,
		Mode:     "unified",
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Classes) != 2 {
		t.Fatalf("mixed trace gave %d class rows, want 2: %+v", len(sum.Classes), sum.Classes)
	}
	var arrivals, completed, errs int64
	for _, c := range sum.Classes {
		arrivals += c.Arrivals
		completed += c.Completed
		errs += c.Errors
	}
	if arrivals != sum.Arrivals || completed != sum.Completed || errs != sum.Errors {
		t.Fatalf("class rows sum to arrivals=%d completed=%d errors=%d, flat totals %d/%d/%d",
			arrivals, completed, errs, sum.Arrivals, sum.Completed, sum.Errors)
	}
	lc, batch := trace.MixLCClass(), trace.MixBatchClass()
	if c := sum.Classes[0]; c.Tenant != lc.Tenant || c.Priority != lc.Priority {
		t.Fatalf("first row is %s/%d, want the lc class first", c.Tenant, c.Priority)
	}
	if c := sum.Classes[1]; c.Tenant != batch.Tenant || c.Priority != batch.Priority {
		t.Fatalf("second row is %s/%d, want batch", c.Tenant, c.Priority)
	}
	c := sum.Classes[0]
	if c.SLOTargetMS == nil || *c.SLOTargetMS != float64(lc.SLOTarget)/float64(units.Millisecond) {
		t.Fatalf("lc row SLO target %v, want %v", c.SLOTargetMS, lc.SLOTarget)
	}
	if a := c.SLOAttainment; a == nil || *a < 0 || *a > 1 {
		t.Fatalf("lc row SLO attainment %v, want a fraction", a)
	}
}
