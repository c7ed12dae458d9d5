package control

import (
	"strings"
	"testing"
	"time"

	"hermes"
	"hermes/internal/metrics"
	"hermes/internal/sweep"
	"hermes/internal/workload"
)

func f64(v float64) *float64 { return &v }

// testModel builds a two-mode capacity model: baseline knees at 100
// rps, hermes (unified) at 200, both with a 2 ms unloaded p50 and a
// knee factor of 5 → 10 ms knee latency. Unified is cheaper per
// request everywhere.
func testModel(t *testing.T) *sweep.Model {
	t.Helper()
	rates := []float64{50, 100, 200}
	mk := func(mode string, joules []float64, knee *float64) sweep.Curve {
		c := sweep.Curve{Mode: mode, UnloadedP50MS: 2, KneeRPS: knee}
		for i, r := range rates {
			c.Points = append(c.Points, sweep.Point{OfferedRPS: r, JoulesPerRequest: joules[i]})
		}
		return c
	}
	m, err := sweep.ModelFromResult(sweep.Result{
		Workload:   workload.Spec{Kind: "ticks"},
		RatesRPS:   rates,
		KneeFactor: 5,
		Curves: []sweep.Curve{
			mk("baseline", []float64{0.5, 0.6, 0.9}, f64(100)),
			mk("hermes", []float64{0.3, 0.4, 0.7}, f64(200)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fakeSource scripts the latency signal the controller reads.
type fakeSource struct{ hist metrics.Hist }

func newFakeSource() *fakeSource {
	return &fakeSource{hist: metrics.Hist{Buckets: make([]int64, len(metrics.LatencyBuckets)+1)}}
}

func (f *fakeSource) LatencyHist() metrics.Hist {
	return metrics.Hist{
		Buckets: append([]int64(nil), f.hist.Buckets...),
		Sum:     f.hist.Sum,
		Count:   f.hist.Count,
	}
}

// addLat records n observations of sec seconds into the fake's
// cumulative histogram.
func (f *fakeSource) addLat(n int64, sec float64) {
	for i, ub := range metrics.LatencyBuckets {
		if sec <= ub {
			f.hist.Buckets[i] += n
			f.hist.Sum += sec * float64(n)
			f.hist.Count += n
			return
		}
		_ = i
	}
	f.hist.Buckets[len(metrics.LatencyBuckets)] += n
	f.hist.Sum += sec * float64(n)
	f.hist.Count += n
}

// offer drives n Admit calls and returns how many were admitted.
func offer(c *Controller, n int) int {
	admitted := 0
	for i := 0; i < n; i++ {
		if c.Admit() {
			admitted++
		}
	}
	return admitted
}

func TestDisabledWithoutModel(t *testing.T) {
	c := New(Config{Source: newFakeSource()})
	if c.Enabled() || c.State() != Disabled {
		t.Fatalf("no-model controller not disabled: %v", c.State())
	}
	if got := offer(c, 10); got != 10 {
		t.Fatalf("disabled controller shed %d requests", 10-got)
	}
	c.Tick(time.Second) // must be a no-op, not a panic
	s := c.Status()
	if s.Enabled || s.Reason == "" {
		t.Fatalf("disabled status lacks a reason: %+v", s)
	}
}

func TestDisabledForUnmodeledBootMode(t *testing.T) {
	// Boot in workpath mode: the model has no curve for it.
	c := New(Config{Model: testModel(t), Mode: hermes.WorkpathOnly, Source: newFakeSource()})
	if c.Enabled() {
		t.Fatal("controller enabled without a curve for the boot mode")
	}
	if !strings.Contains(c.Status().Reason, "workpath") {
		t.Fatalf("reason does not name the missing mode: %q", c.Status().Reason)
	}
}

func TestDisabledForUnresolvedKnee(t *testing.T) {
	m, err := sweep.ModelFromResult(sweep.Result{
		Workload:   workload.Spec{Kind: "ticks"},
		RatesRPS:   []float64{100},
		KneeFactor: 5,
		Curves: []sweep.Curve{{
			Mode:          "baseline",
			UnloadedP50MS: 2,
			KneeReason:    sweep.KneeReasonSingleRate,
			Points:        []sweep.Point{{OfferedRPS: 100}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Model: m, Mode: hermes.Baseline, Source: newFakeSource()})
	if c.Enabled() {
		t.Fatal("controller enabled on a null-knee curve")
	}
	if !strings.Contains(c.Status().Reason, "knee") {
		t.Fatalf("reason does not mention the knee: %q", c.Status().Reason)
	}
}

// TestHysteresisNoFlap scripts the exact metrics sequence of a load
// spike and pins every transition: enter needs enterTicks consecutive
// trips, exit needs exitTicks calm, and alternating signals flap
// nothing.
func TestHysteresisNoFlap(t *testing.T) {
	src := newFakeSource()
	c := New(Config{
		Model:  testModel(t),
		Mode:   hermes.Baseline, // knee 100 rps / 10 ms
		Source: src,
		// enterTicks 2, exitTicks 3, cooldownTicks 5.
	})
	if !c.Enabled() || c.State() != Normal {
		t.Fatalf("boot state = %v, want normal", c.State())
	}
	step := func(rps int, latSec float64) State {
		offer(c, rps)
		if latSec > 0 {
			src.addLat(int64(rps), latSec)
		}
		c.Tick(time.Second)
		return c.State()
	}

	// Calm traffic at half the knee.
	for i := 0; i < 3; i++ {
		if st := step(50, 0.002); st != Normal {
			t.Fatalf("calm tick %d: %v", i, st)
		}
	}
	// Alternating spike/calm never reaches enterTicks=2 in a row.
	for i := 0; i < 4; i++ {
		if st := step(150, 0.002); st != Normal {
			t.Fatalf("single spike flipped state: %v", st)
		}
		if st := step(50, 0.002); st != Normal {
			t.Fatalf("post-spike calm: %v", st)
		}
	}
	// Two consecutive over-knee ticks enter Shedding.
	if st := step(150, 0.030); st != Normal {
		t.Fatalf("first sustained trip should not yet shed: %v", st)
	}
	if st := step(150, 0.030); st != Shedding {
		t.Fatalf("second sustained trip should shed: %v", st)
	}
	if got := offer(c, 10); got != 0 {
		t.Fatalf("shedding admitted %d/10", got)
	}
	c.Tick(time.Second) // absorb the probe traffic above (10 rps, calm): calm streak 1

	// Exit needs exitTicks=3 consecutive calm ticks; the one above
	// counts, so one more keeps it Shedding and the third recovers.
	if st := step(20, 0.002); st != Shedding {
		t.Fatalf("calm streak 2 should still shed: %v", st)
	}
	if st := step(20, 0.002); st != Recovered {
		t.Fatalf("calm streak 3 should recover: %v", st)
	}
	if got := offer(c, 5); got != 5 {
		t.Fatalf("recovered shed %d/5", 5-got)
	}
	c.Tick(time.Second) // absorb probe; cooldown 1

	// A fresh sustained spike during cooldown re-enters Shedding.
	step(150, 0.030)
	if st := step(150, 0.030); st != Shedding {
		t.Fatalf("sustained spike in cooldown should re-shed: %v", st)
	}
	// Recover again, then let the full cooldown elapse back to Normal.
	for i := 0; i < 3; i++ {
		step(10, 0.002)
	}
	if st := c.State(); st != Recovered {
		t.Fatalf("after 3 calm: %v", st)
	}
	for i := 0; i < 5; i++ {
		step(10, 0.002)
	}
	if st := c.State(); st != Normal {
		t.Fatalf("after cooldown: %v", st)
	}
	s := c.Status()
	if s.Shed == 0 || s.State != "normal" {
		t.Fatalf("status inconsistent after episode: %+v", s)
	}
}

// fakeSwitcher records actuated modes.
type fakeSwitcher struct{ modes []hermes.Mode }

func (f *fakeSwitcher) SetMode(m hermes.Mode) error {
	f.modes = append(f.modes, m)
	return nil
}

func TestModeSwitchActuation(t *testing.T) {
	src := newFakeSource()
	sw := &fakeSwitcher{}
	c := New(Config{
		Model:    testModel(t),
		Mode:     hermes.Baseline,
		Source:   src,
		Switcher: sw,
	})
	// Low rate: unified ("hermes") is cheaper → switch on first tick.
	offer(c, 50)
	src.addLat(50, 0.002)
	c.Tick(time.Second)
	if len(sw.modes) != 1 || sw.modes[0] != hermes.Unified {
		t.Fatalf("switch calls = %v, want [Unified]", sw.modes)
	}
	s := c.Status()
	if s.Mode != "hermes" || s.ModeSwitches != 1 {
		t.Fatalf("status after switch: %+v", s)
	}
	// Knee bounds must now be the new mode's (200 rps).
	if s.KneeRPS != 200 {
		t.Fatalf("knee after switch = %g, want 200", s.KneeRPS)
	}
	// Hold window: no second switch for modeHoldTicks ticks even if
	// the optimum changes.
	for i := 0; i < modeHoldTicks; i++ {
		offer(c, 50)
		c.Tick(time.Second)
		if len(sw.modes) != 1 {
			t.Fatalf("switched during hold window at tick %d", i)
		}
	}
}

func TestPrometheusSeries(t *testing.T) {
	c := New(Config{Model: testModel(t), Mode: hermes.Baseline, Source: newFakeSource()})
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"hermes_control_enabled 1",
		"hermes_control_state 1",
		"hermes_control_knee_rps 100",
		"hermes_control_knee_latency_ms 10",
		"hermes_control_shed_total 0",
		"hermes_control_mode_switches_total 0",
		"hermes_control_offered_rps",
		"hermes_control_p99_ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
