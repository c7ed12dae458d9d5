package sweep

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hermes"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// tinySpec is a workload small enough that a grid point completes in
// milliseconds of wall time while still forking parallel tasks.
func tinySpec() workload.Spec {
	return workload.Spec{Kind: "ticks", N: 16, Grain: 4, Work: 50_000}
}

func TestTraceSeededAndBounded(t *testing.T) {
	spec := tinySpec()
	a, err := TraceArrivals(spec, "", 500, 100*time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceArrivals(spec, "", 500, 100*time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d arrivals", len(a), len(b))
	}
	horizon := units.Time((100 * time.Millisecond).Nanoseconds()) * units.Nanosecond
	for i := range a {
		if a[i].At != b[i].At {
			t.Fatalf("arrival %d at %v vs %v with the same seed", i, a[i].At, b[i].At)
		}
		if a[i].At <= 0 || a[i].At > horizon {
			t.Fatalf("arrival %d outside (0, window]: %v", i, a[i].At)
		}
	}
	c, err := TraceArrivals(spec, "", 500, 100*time.Millisecond, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) && c[0].At == a[0].At {
		t.Fatal("different seeds produced an identical trace")
	}
	if _, err := TraceArrivals(spec, "", 0, time.Second, 1); err == nil {
		t.Error("rps=0 accepted")
	}
	if _, err := TraceArrivals(spec, "", 100, 0, 1); err == nil {
		t.Error("window=0 accepted")
	}
}

// TestSweepDeterministicArtifact is the acceptance pin: the same
// config and seed must yield byte-identical JSON artifacts across two
// full grid runs (2 modes × 2 rates here; CI diffs a larger grid).
func TestSweepDeterministicArtifact(t *testing.T) {
	cfg := Config{
		Workload: tinySpec(),
		Modes:    []hermes.Mode{hermes.Baseline, hermes.Unified},
		RatesRPS: []float64{200, 800},
		Window:   50 * time.Millisecond,
		Seed:     7,
		Workers:  2,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("identical sweeps diverged:\n%s\nvs\n%s", ja, jb)
	}
	if len(a.Curves) != 2 {
		t.Fatalf("want 2 curves, got %d", len(a.Curves))
	}
	for _, c := range a.Curves {
		if len(c.Points) != 2 {
			t.Fatalf("mode %s: want 2 points, got %d", c.Mode, len(c.Points))
		}
		for _, p := range c.Points {
			if p.Arrivals == 0 || p.Completed != p.Arrivals || p.Errors != 0 {
				t.Fatalf("mode %s @ %g rps lost requests: %+v", c.Mode, p.OfferedRPS, p)
			}
			if p.P50SojournMS <= 0 || p.JoulesPerRequest <= 0 || p.AvgPowerW <= 0 {
				t.Fatalf("mode %s @ %g rps degenerate point: %+v", c.Mode, p.OfferedRPS, p)
			}
			if len(p.Tiers) == 0 {
				t.Fatalf("mode %s @ %g rps has no DVFS-tier residency", c.Mode, p.OfferedRPS)
			}
			var frac float64
			for _, tier := range p.Tiers {
				frac += tier.Frac
			}
			if frac < 0.999 || frac > 1.001 {
				t.Fatalf("tier residency fractions sum to %g", frac)
			}
		}
		if c.UnloadedP50MS != c.Points[0].P50SojournMS {
			t.Fatalf("unloaded p50 %g != lowest-rate p50 %g", c.UnloadedP50MS, c.Points[0].P50SojournMS)
		}
	}
	// The artifact's CSV must be derivable and non-trivial too.
	csv := a.CSV()
	if csv != b.CSV() {
		t.Fatal("CSV renderings of identical sweeps differ")
	}
	if len(csv) == 0 {
		t.Fatal("empty CSV")
	}
}

// TestSweepModeSeparation: at the same offered load, Unified must
// spend busy time below the max frequency (slow-tier residency) while
// Baseline never does — the curves are genuinely mode-separated.
func TestSweepModeSeparation(t *testing.T) {
	cfg := Config{
		Workload: workload.Spec{Kind: "fib", N: 14, Grain: 6, Work: 30_000},
		Modes:    []hermes.Mode{hermes.Baseline, hermes.Unified},
		RatesRPS: []float64{400},
		Window:   50 * time.Millisecond,
		Seed:     3,
		Workers:  4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slowFrac := func(c Curve) float64 {
		var f float64
		max := c.Points[0].Tiers[0].FreqKHz
		for _, tier := range c.Points[0].Tiers {
			if tier.FreqKHz > max {
				max = tier.FreqKHz
			}
		}
		for _, tier := range c.Points[0].Tiers {
			if tier.FreqKHz < max {
				f += tier.Frac
			}
		}
		return f
	}
	var base, uni Curve
	for _, c := range res.Curves {
		switch c.Mode {
		case "baseline":
			base = c
		case "hermes":
			uni = c
		}
	}
	if f := slowFrac(base); f != 0 {
		t.Errorf("baseline spent %.3f of busy time below max frequency", f)
	}
	if f := slowFrac(uni); f <= 0 {
		t.Error("unified shows no slow-tier residency; tempo control never engaged")
	}
}

func TestKneeSyntheticCurve(t *testing.T) {
	rates := []float64{50, 100, 200, 400}
	cases := []struct {
		name     string
		p99      []float64
		unloaded float64
		factor   float64
		want     float64
	}{
		{"hockey stick", []float64{2.1, 2.4, 3.0, 30}, 2.0, 5, 400},
		{"earlier knee", []float64{2.1, 2.4, 11, 30}, 2.0, 5, 200},
		{"no knee", []float64{2.1, 2.4, 3.0, 9.9}, 2.0, 5, 0},
		{"knee at first rate", []float64{25, 30, 40, 50}, 2.0, 5, 50},
		{"degenerate baseline", []float64{2.1, 2.4, 3.0, 30}, 0, 5, 0},
		{"tighter factor", []float64{2.1, 2.4, 3.0, 30}, 2.0, 1.4, 200},
	}
	for _, c := range cases {
		if got := Knee(rates, c.p99, c.unloaded, c.factor); got != c.want {
			t.Errorf("%s: knee = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestPeakInflightTieAndNesting(t *testing.T) {
	ms := func(x int64) units.Time { return units.Time(x) * units.Millisecond }
	cases := []struct {
		name  string
		spans []Span
		want  int64
	}{
		{"empty", nil, 0},
		{"disjoint", []Span{{ms(0), ms(1)}, {ms(2), ms(3)}}, 1},
		{"nested", []Span{{ms(0), ms(10)}, {ms(1), ms(2)}, {ms(3), ms(4)}}, 2},
		{"stacked", []Span{{ms(0), ms(10)}, {ms(1), ms(9)}, {ms(2), ms(8)}}, 3},
		// An arrival exactly at another job's completion instant counts
		// before the departure: depth 2, not 1.
		{"tie arrival first", []Span{{ms(0), ms(5)}, {ms(5), ms(9)}}, 2},
	}
	for _, c := range cases {
		if got := PeakInflight(c.spans); got != c.want {
			t.Errorf("%s: peak = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestPctMS pins the nearest-rank percentile every artifact and both
// load backends report: whole ranks of 1..100 ms, 0 for no samples,
// and sub-millisecond sojourns at full resolution instead of truncated
// through whole microseconds.
func TestPctMS(t *testing.T) {
	var sorted []units.Time
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, units.Time(i)*units.Millisecond)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := pctMS(sorted, c.p); got != c.want {
			t.Errorf("p%.0f = %gms, want %gms", c.p*100, got, c.want)
		}
	}
	if got := pctMS(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
	sub := []units.Time{1500 * units.Nanosecond, 2750 * units.Nanosecond}
	if got := pctMS(sub, 0.5); got != 0.0015 {
		t.Errorf("p50 of 1500ns = %gms, want 0.0015ms", got)
	}
	if got := pctMS(sub, 1); got != 0.00275 {
		t.Errorf("max of 2750ns = %gms, want 0.00275ms", got)
	}
}

// TestPeakInflightCountsQueuedJobs is the regression pin for the
// in-flight-depth bugfix: under a queueing-heavy trace (one worker,
// offered load far above capacity) the measured depth must count jobs
// from arrival — queued-but-unstarted included — and match an
// independent brute-force reconstruction from the per-job reports.
func TestPeakInflightCountsQueuedJobs(t *testing.T) {
	cfg := PointConfig{
		Workload: workload.Spec{Kind: "ticks", N: 64, Grain: 8, Work: 100_000},
		Mode:     hermes.Unified,
		RPS:      2000,
		Window:   50 * time.Millisecond,
		Seed:     7,
		Workers:  1,
	}
	pt, err := RunPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Errors != 0 || pt.Completed != pt.Arrivals {
		t.Fatalf("lost requests: %+v", pt)
	}
	// Independent reconstruction: replay the same seed through the
	// public API and sweep the (arrival, completion) intervals.
	arrivals, err := TraceArrivals(cfg.Workload, "", cfg.RPS, cfg.Window, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := hermes.New(
		hermes.WithBackend(hermes.Sim),
		hermes.WithMode(cfg.Mode),
		hermes.WithSeed(cfg.Seed),
		hermes.WithWorkers(cfg.Workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := rt.SubmitTrace(nil, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	reports := make([]hermes.Report, len(jobs))
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		rep, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = rep
		spans = append(spans, Span{Arrive: arrivals[i].At, Done: arrivals[i].At + rep.Sojourn})
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	want := PeakInflight(spans)
	if pt.PeakInflight != want {
		t.Fatalf("point peak in-flight %d != brute-force arrival→completion depth %d", pt.PeakInflight, want)
	}
	// Fold, the wall-clock load path's renderer, gives the same reports
	// and machine ledger the same Point as the point-runner.
	if fp := Fold(cfg.RPS, arrivals, reports, errs, rt.ClusterStats()); !reflect.DeepEqual(fp, pt) {
		t.Fatalf("Fold of the point's reports and ledger:\n%+v\nwant\n%+v", fp, pt)
	}
	// Under ~100 arrivals in the window against a single worker whose
	// service time alone exceeds the interarrival gap 5×, the backlog
	// must dominate: an executing-jobs-only count could never reach it.
	if pt.PeakInflight < pt.Arrivals/2 {
		t.Fatalf("peak in-flight %d does not reflect the queue (%d arrivals, 1 worker)", pt.PeakInflight, pt.Arrivals)
	}
	if pt.P99QueueMS <= 0 || pt.P99SojournMS <= pt.P50SojournMS {
		t.Fatalf("queueing not visible in latency percentiles: %+v", pt)
	}
}

// allocsPerJobCeiling bounds heap allocations per completed job at
// BenchmarkSweepPoint's configuration (ROADMAP 13(d)). A change that
// lowers them lowers it: the simulated scheduler allocated 122.2 per
// job (435 jobs) before tasks, blocks and Ctxs were pooled, 64.6 after,
// and 19.6 since wl.For splits through Fork2.
const allocsPerJobCeiling = 22

// TestSweepPointAllocCeiling counts mallocs around one grid point
// (after a warm-up point) and divides by its completed jobs. Counts
// vary a little across GC cycles, so this is a ceiling, not a figure.
func TestSweepPointAllocCeiling(t *testing.T) {
	g := grid{workload: workload.Spec{Kind: "ticks"}, window: time.Second, seed: 1}
	fl := fleet{mode: hermes.Unified, machines: 1}
	if _, err := g.point(fl, 400); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := g.point(fl, 400)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perJob := float64(after.Mallocs-before.Mallocs) / float64(f.completed())
	t.Logf("%.1f allocs per completed job over %d jobs", perJob, f.completed())
	if perJob > allocsPerJobCeiling {
		t.Fatalf("%.1f allocs per completed job, ceiling %d", perJob, allocsPerJobCeiling)
	}
}

// BenchmarkSweepPoint is one sim_sweep-shaped grid point — Unified,
// `ticks` defaults, 400 rps over a one-second window — with the engine's
// own counts beside the time: events per simulated job is what the
// scheduler model asks of the engine, resumes per event how many of
// those paid a coroutine switch, probes per job how many were steal
// probes (a thief's probes of empty deques fold into one event). CI
// runs it once so it cannot rot.
func BenchmarkSweepPoint(b *testing.B) {
	g := grid{workload: workload.Spec{Kind: "ticks"}, window: time.Second, seed: 1}
	var f *fold
	for i := 0; i < b.N; i++ {
		var err error
		if f, err = g.point(fleet{mode: hermes.Unified, machines: 1}, 400); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.events)/float64(f.completed()), "events/job") // the same every iteration
	b.ReportMetric(float64(f.resumes)/float64(f.events), "resumes/event")
	b.ReportMetric(float64(f.probes)/float64(f.completed()), "probes/job")
}
