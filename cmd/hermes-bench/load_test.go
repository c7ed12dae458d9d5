package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"hermes/internal/sweep"
	"hermes/internal/trace"
	"hermes/internal/workload"
)

func TestPercentileMS(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i)*time.Millisecond)
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := percentileMS(sorted, c.p); got != c.want {
			t.Errorf("p%.0f = %gms, want %gms", c.p*100, got, c.want)
		}
	}
	if got := percentileMS(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
}

// TestPercentileMSSubMillisecond is the regression pin for the
// truncation bugfix: sub-millisecond sojourns — the norm for simulated
// requests — must keep nanosecond precision instead of collapsing
// through whole microseconds.
func TestPercentileMSSubMillisecond(t *testing.T) {
	sorted := []time.Duration{1500 * time.Nanosecond, 2750 * time.Nanosecond}
	if got := percentileMS(sorted, 0.5); got != 0.0015 {
		t.Errorf("p50 of 1500ns = %gms, want 0.0015ms", got)
	}
	if got := percentileMS(sorted, 1); got != 0.00275 {
		t.Errorf("max of 2750ns = %gms, want 0.00275ms", got)
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

// TestLoadBackendSelection: the -backend name is parsed, not compared
// against "sim" — a typo used to run Native and exit 0.
func TestLoadBackendSelection(t *testing.T) {
	opts := loadOpts{RPS: 50, Duration: 100 * time.Millisecond,
		Spec: workload.Spec{Kind: "ticks", N: 16, Work: 50_000}, Seed: 1, Mode: "unified", Workers: 2}
	for backend, target := range map[string]string{
		"sim":    "in-process/sim-virtual",
		"native": "in-process/native",
	} {
		opts.Backend = backend
		sum, err := runLoad(opts)
		if err != nil {
			t.Fatalf("-backend %s: %v", backend, err)
		}
		if sum.Target != target {
			t.Errorf("-backend %s ran %q, want %q", backend, sum.Target, target)
		}
	}
	opts.Backend = "bogus"
	if _, err := runLoad(opts); err == nil {
		t.Error("unknown backend accepted")
	} else if !strings.Contains(err.Error(), "sim or native") {
		t.Errorf("unknown-backend error %q does not name the valid backends", err)
	}
}

// TestLoadAndSweepShareOneGenerator is the single-salt pin: the
// wall-clock load generator and the virtual-time sweep draw their
// arrival schedules from the SAME internal/trace process, so for one
// (trace, rps, window, seed) tuple both paths fire the identical
// sequence. Before the registry, each path kept its own copy of the
// PCG salt constant; this test fails if a second generator ever
// reappears.
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
		// The wall-clock path: runLoad pre-draws proc.Points and paces
		// them against real time.
		pts, err := proc.Points(seed, rps, window)
		if err != nil {
			t.Fatal(err)
		}
		// The sweep path: TraceArrivals compiles the same schedule into
		// a virtual-time trace.
		arr, err := sweep.TraceArrivals(spec, name, rps, window, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(arr) {
			t.Fatalf("%s: load draws %d arrivals, sweep %d", name, len(pts), len(arr))
		}
		for i := range pts {
			if pts[i].At != arr[i].At {
				t.Fatalf("%s: arrival %d at %v on the load path, %v on the sweep path",
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
		Backend:  "native",
		Mode:     "unified",
		Workers:  4,
		Buffer:   1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Submitted == 0 || sum.Completed != sum.Submitted {
		t.Fatalf("lost requests: %+v", sum)
	}
	if sum.Errors != 0 || sum.Rejected != 0 {
		t.Fatalf("unexpected failures: %+v", sum)
	}
	if sum.P50SojournMS <= 0 || sum.P99SojournMS < sum.P50SojournMS {
		t.Fatalf("implausible sojourn percentiles: %+v", sum)
	}
	if sum.JoulesPerRequest <= 0 {
		t.Fatalf("no energy attributed per request: %+v", sum)
	}
	if sum.DroppedEvents != 0 {
		t.Fatalf("%d events dropped below buffer size", sum.DroppedEvents)
	}
}

// TestVirtualLoadDeterministic is the load generator's acceptance pin:
// -load -backend sim replays the seeded Poisson trace in virtual time,
// two identical runs emit byte-identical JSON summaries, and the jobs
// overlap in virtual time (peak in-flight above 1).
func TestVirtualLoadDeterministic(t *testing.T) {
	opts := loadOpts{
		RPS:      400,
		Duration: 300 * time.Millisecond, // virtual window — no wall-clock pacing
		Spec:     workload.Spec{Kind: "ticks", N: 64, Work: 100_000},
		Seed:     7,
		Backend:  "sim",
		Mode:     "unified",
		Workers:  4,
	}
	spec, err := opts.Spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	opts.Spec = spec
	a, err := runLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeded virtual runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("JSON summaries differ:\n%s\nvs\n%s", ja, jb)
	}
	if a.Target != "in-process/sim-virtual" {
		t.Fatalf("virtual mode not selected: target %q", a.Target)
	}
	if a.Submitted == 0 || a.Completed != a.Submitted || a.Errors != 0 {
		t.Fatalf("virtual run lost requests: %+v", a)
	}
	if a.PeakInflight < 2 {
		t.Fatalf("no virtual-time overlap: peak in-flight %d", a.PeakInflight)
	}
	if a.JoulesPerRequest <= 0 || a.P50SojournMS <= 0 {
		t.Fatalf("degenerate virtual summary: %+v", a)
	}
	if a.ThroughputRPS <= 0 || a.DurationS <= 0 {
		t.Fatalf("virtual summary missing throughput accounting: %+v", a)
	}
	// Summary-field consistency with the wall-clock generator: the
	// virtual path surfaces dropped-event accounting too. The shared
	// point-runner reads per-job reports synchronously, so the honest
	// value is zero — but the field must be populated, not forgotten.
	if a.DroppedEvents != 0 {
		t.Fatalf("virtual path dropped %d events through a synchronous pipeline", a.DroppedEvents)
	}
}
