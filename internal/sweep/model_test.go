package sweep

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hermes"
	"hermes/internal/units"
	"hermes/internal/workload"
)

func f64(v float64) *float64 { return &v }

// modelResult builds a minimal two-mode artifact for model tests:
// baseline knees at 200 rps, unified at 400, and unified is cheaper
// per request at low rates.
func modelResult() Result {
	rates := []float64{50, 100, 200, 400}
	mk := func(mode string, joules []float64, knee *float64, reason string) Curve {
		c := Curve{Mode: mode, UnloadedP50MS: 2, KneeRPS: knee, KneeReason: reason}
		for i, r := range rates {
			c.Points = append(c.Points, Point{OfferedRPS: r, JoulesPerRequest: joules[i]})
		}
		return c
	}
	return Result{
		Workload:   workload.Spec{Kind: "ticks"},
		RatesRPS:   rates,
		KneeFactor: 5,
		Curves: []Curve{
			mk("baseline", []float64{0.5, 0.5, 0.6, 0.9}, f64(200), ""),
			mk("unified", []float64{0.3, 0.35, 0.7, 1.0}, f64(400), ""),
		},
	}
}

func TestModelLookups(t *testing.T) {
	m, err := ModelFromResult(modelResult())
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := m.Knee("baseline"); !ok || k != 200 {
		t.Fatalf("baseline knee = %g, %v; want 200, true", k, ok)
	}
	if _, ok := m.Knee("nope"); ok {
		t.Fatal("knee for unknown mode should report !ok")
	}
	if got := m.KneeLatencyMS("unified"); got != 10 {
		t.Fatalf("knee latency = %g, want 10 (5 × 2ms)", got)
	}
	// Interpolation: halfway between 100 and 200 for unified.
	if j, ok := m.JoulesPerRequestAt("unified", 150); !ok || math.Abs(j-0.525) > 1e-9 {
		t.Fatalf("J/req at 150 = %g, %v; want 0.525", j, ok)
	}
	// Clamp below and above the grid.
	if j, _ := m.JoulesPerRequestAt("baseline", 1); j != 0.5 {
		t.Fatalf("J/req below grid = %g, want 0.5", j)
	}
	if j, _ := m.JoulesPerRequestAt("baseline", 9999); j != 0.9 {
		t.Fatalf("J/req above grid = %g, want 0.9", j)
	}
}

func TestModelBestMode(t *testing.T) {
	m, err := ModelFromResult(modelResult())
	if err != nil {
		t.Fatal(err)
	}
	// At 60 rps both modes sustain; unified is cheaper (0.31 vs 0.52).
	if mode, ok := m.BestMode(60); !ok || mode != "unified" {
		t.Fatalf("best mode at 60 = %q, want unified", mode)
	}
	// At 300 rps only unified's knee (400) exceeds the load.
	if mode, _ := m.BestMode(300); mode != "unified" {
		t.Fatalf("best mode at 300 = %q, want unified", mode)
	}
	// Past every knee: the mode with the most headroom wins.
	if mode, _ := m.BestMode(1000); mode != "unified" {
		t.Fatalf("best mode at 1000 = %q, want unified", mode)
	}
}

func TestModelRejectsStaleArtifacts(t *testing.T) {
	good := modelResult()
	cases := []struct {
		name string
		mut  func(*Result)
	}{
		{"no rates", func(r *Result) { r.RatesRPS = nil }},
		{"no curves", func(r *Result) { r.Curves = nil }},
		{"point count mismatch", func(r *Result) { r.Curves[0].Points = r.Curves[0].Points[:2] }},
		{"duplicate mode", func(r *Result) { r.Curves[1].Mode = r.Curves[0].Mode }},
		{"unsorted grid", func(r *Result) { r.RatesRPS[0], r.RatesRPS[1] = r.RatesRPS[1], r.RatesRPS[0] }},
		{"zero knee factor", func(r *Result) { r.KneeFactor = 0 }},
	}
	for _, c := range cases {
		res := good
		res.RatesRPS = append([]float64(nil), good.RatesRPS...)
		res.Curves = make([]Curve, len(good.Curves))
		copy(res.Curves, good.Curves)
		c.mut(&res)
		if _, err := ModelFromResult(res); err == nil {
			t.Errorf("%s: ModelFromResult accepted a stale artifact", c.name)
		}
	}
}

func TestLoadModelRoundTrip(t *testing.T) {
	res := modelResult()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "SWEEP_sim.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Path != path {
		t.Fatalf("model path = %q, want %q", m.Path, path)
	}
	if k, ok := m.Knee("unified"); !ok || k != 400 {
		t.Fatalf("loaded knee = %g, %v; want 400", k, ok)
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("LoadModel on a missing file should error")
	}
}

func TestDetectKneeNullSemantics(t *testing.T) {
	// Single-rate grid: no slope to detect, knee must be null with the
	// single-rate reason — not a zero-value knee (the -sweep bugfix).
	k, reason := DetectKnee([]float64{100}, []float64{50}, 2, 5)
	if k != nil || reason != KneeReasonSingleRate {
		t.Fatalf("single-rate knee = %v (%q), want nil + single-rate reason", k, reason)
	}
	// No crossing inside the grid.
	k, reason = DetectKnee([]float64{50, 100}, []float64{2.1, 2.4}, 2, 5)
	if k != nil || reason != KneeReasonNoCrossing {
		t.Fatalf("no-crossing knee = %v (%q), want nil + no-crossing reason", k, reason)
	}
	// Zero baseline.
	k, reason = DetectKnee([]float64{50, 100}, []float64{0, 0}, 0, 5)
	if k != nil || reason != KneeReasonNoBaseline {
		t.Fatalf("zero-baseline knee = %v (%q), want nil + no-baseline reason", k, reason)
	}
	// Resolved knee.
	k, reason = DetectKnee([]float64{50, 100, 200}, []float64{2.1, 2.4, 30}, 2, 5)
	if k == nil || *k != 200 || reason != "" {
		t.Fatalf("resolved knee = %v (%q), want 200", k, reason)
	}
}

func TestSingleRateSweepEmitsNullKnee(t *testing.T) {
	res, err := Run(Config{
		Workload: workload.Spec{Kind: "ticks", N: 8, Grain: 4, Work: 50_000},
		Modes:    []hermes.Mode{hermes.Baseline},
		RatesRPS: []float64{100},
		Window:   50 * time.Millisecond,
		Seed:     7,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curves[0]
	if c.KneeRPS != nil {
		t.Fatalf("single-rate sweep knee = %g, want null", *c.KneeRPS)
	}
	if c.KneeReason != KneeReasonSingleRate {
		t.Fatalf("knee reason = %q, want %q", c.KneeReason, KneeReasonSingleRate)
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if v, present := raw["knee_rps"]; !present || v != nil {
		t.Fatalf("knee_rps JSON = %v, want explicit null", v)
	}
}

func TestReplayTraceDeterministic(t *testing.T) {
	spec := workload.Spec{Kind: "ticks", N: 16, Grain: 4, Work: 100_000}
	mkTrace := func() []hermes.Arrival {
		var arrivals []hermes.Arrival
		for i := 0; i < 40; i++ {
			task, _, err := spec.Task()
			if err != nil {
				t.Fatal(err)
			}
			arrivals = append(arrivals, hermes.Arrival{
				At:   units.Time(i) * 2 * units.Millisecond,
				Task: task,
			})
		}
		return arrivals
	}
	cfg := ReplayConfig{Mode: hermes.Unified, Workers: 2, Seed: 7}
	a, err := ReplayTrace(cfg, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayTrace(cfg, mkTrace())
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("replay not deterministic:\n%s\n%s", aj, bj)
	}
	if a.Completed != 40 || a.Errors != 0 {
		t.Fatalf("completed %d / errors %d, want 40 / 0", a.Completed, a.Errors)
	}
	if a.P99SojournMS <= 0 || a.JoulesPerRequest <= 0 {
		t.Fatalf("degenerate replay: %+v", a)
	}
	// Validation: empty and descending traces are rejected.
	if _, err := ReplayTrace(cfg, nil); err == nil {
		t.Fatal("empty trace should error")
	}
	tr := mkTrace()
	tr[1].At = 0
	tr[0].At = units.Millisecond
	if _, err := ReplayTrace(cfg, tr); err == nil {
		t.Fatal("descending trace should error")
	}
}

// TestReplayTraceIsTheSweepPoint: replaying a generated trace is the
// sweep's point at the same (workload, rate, window, seed, mode), field
// for field. Only OfferedRPS differs: the replay knows no target rate
// and reports arrivals over the trace's arrival span.
func TestReplayTraceIsTheSweepPoint(t *testing.T) {
	spec := workload.Spec{Kind: "ticks"}
	const (
		rps    = 150.0
		window = 2 * time.Second
		seed   = int64(7)
	)
	arrivals, err := TraceArrivals(spec, "", rps, window, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayTrace(ReplayConfig{Mode: hermes.Unified, Seed: seed}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunPoint(PointConfig{Workload: spec, Mode: hermes.Unified, RPS: rps, Window: window, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	span := arrivals[len(arrivals)-1].At - arrivals[0].At
	if offered := float64(len(arrivals)) / span.Seconds(); got.OfferedRPS != offered {
		t.Fatalf("replay offered %g rps, want arrivals over span %g", got.OfferedRPS, offered)
	}
	if want.OfferedRPS != rps {
		t.Fatalf("point offered %g rps, want the target %g", want.OfferedRPS, rps)
	}
	got.OfferedRPS = want.OfferedRPS
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay and sweep point differ:\n%+v\n%+v", got, want)
	}
}
