package metrics

import (
	"errors"
	"io"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/obs"
	"hermes/internal/units"
)

// fakeLedger is a ledger source that answers ms and counts its reads.
func fakeLedger(ms core.MachineStats, reads *int) func() (core.MachineStats, error) {
	return func() (core.MachineStats, error) {
		*reads++
		return ms, nil
	}
}

// TestRegistryFoldsEvents: scheduler counters and machine energy come
// from the ledger source, read once per scrape; job counts, job energy
// and latency from JobSubmitted and JobDone. Observed events count for
// nothing.
func TestRegistryFoldsEvents(t *testing.T) {
	r := New()
	var reads int
	r.SetLedger(fakeLedger(core.MachineStats{
		Elapsed: 2 * units.Second, EnergyJ: 85, Steals: 2, TempoSwitches: 1, DVFSCommits: 1,
	}, &reads))
	r.JobSubmitted("fib", "", 0)
	for _, e := range []obs.Event{
		{Kind: obs.Steal, Worker: 1, Victim: 0},
		{Kind: obs.EnergySample, Power: 42.5, Energy: 1.25},
		{Kind: obs.JobDone, Job: 1, Time: 50 * units.Millisecond, Sojourn: 50 * units.Millisecond, Energy: 9},
	} {
		r.Observe(e)
	}
	if s := scrape(t, r); s["hermes_jobs_completed_total"] != 0 || s["hermes_steals_total"] != 2 ||
		s["hermes_job_latency_seconds_count"] != 0 || s["hermes_job_energy_joules_total"] != 0 {
		t.Fatalf("observed events folded into the series: %v", s)
	}
	r.JobDone(Key{Kind: "fib"}, 50*units.Millisecond, 0.75)
	s := scrape(t, r)
	if reads != 2 {
		t.Fatalf("two scrapes read the ledger %d times, want 2", reads)
	}
	if s["hermes_steals_total"] != 2 || s["hermes_tempo_switches_total"] != 1 || s["hermes_dvfs_commits_total"] != 1 {
		t.Fatalf("scheduler counters wrong: %v", s)
	}
	if s["hermes_jobs_started_total"] != 1 || s["hermes_jobs_completed_total"] != 1 || s["hermes_jobs_inflight"] != 0 {
		t.Fatalf("job counters wrong: %v", s)
	}
	// Power is the mean draw since start: 85 J over 2 s.
	if s["hermes_power_watts"] != 42.5 || s["hermes_energy_joules"] != 85 || s["hermes_job_energy_joules_total"] != 0.75 {
		t.Fatalf("energy series wrong: %v", s)
	}
	if n, sum := s["hermes_job_latency_seconds_count"], s["hermes_job_latency_seconds_sum"]; n != 1 || sum < 0.049 || sum > 0.051 {
		t.Fatalf("latency fold wrong: count=%g sum=%g", n, sum)
	}
}

// scrape renders r and reads the text back as the benchmark's client
// does, bare names summed over their labels.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return ParseText(b.String())
}

func TestLatencyHistogramBuckets(t *testing.T) {
	r := New()
	// 3 fib jobs: 2 ms, 30 ms, 2 s.
	for _, l := range []units.Time{2 * units.Millisecond, 30 * units.Millisecond, 2 * units.Second} {
		r.JobSubmitted("fib", "", 0)
		r.JobDone(Key{Kind: "fib"}, l, 0)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`hermes_job_latency_seconds_bucket{workload="fib",le="0.0025"} 1`,
		`hermes_job_latency_seconds_bucket{workload="fib",le="0.05"} 2`,
		`hermes_job_latency_seconds_bucket{workload="fib",le="2.5"} 3`,
		`hermes_job_latency_seconds_bucket{workload="fib",le="+Inf"} 3`,
		`hermes_job_latency_seconds_count{workload="fib"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
	// The bare-name fold keeps pre-label readers working.
	if vals := ParseText(text); vals["hermes_job_latency_seconds_count"] != 3 {
		t.Errorf("bare-name count fold = %g, want 3", vals["hermes_job_latency_seconds_count"])
	}
}

// TestPerKindLatencyLabels pins the per-workload breakdown: each job
// lands in its own kind's histogram and submission counter.
func TestPerKindLatencyLabels(t *testing.T) {
	r := New()
	for _, j := range []struct {
		kind    string
		sojourn units.Time
	}{{"fib", 2 * units.Millisecond}, {"matmul", 30 * units.Millisecond}, {"fib", 40 * units.Millisecond}} {
		r.JobSubmitted(j.kind, "", 0)
		r.JobDone(Key{Kind: j.kind}, j.sojourn, 0)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`hermes_jobs_submitted_total{workload="fib"} 2`,
		`hermes_jobs_submitted_total{workload="matmul"} 1`,
		`hermes_job_latency_seconds_count{workload="fib"} 2`,
		`hermes_job_latency_seconds_count{workload="matmul"} 1`,
		`hermes_job_latency_seconds_bucket{workload="fib",le="0.0025"} 1`,
		`hermes_job_latency_seconds_bucket{workload="matmul",le="0.05"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
	vals := ParseText(text)
	if vals["hermes_jobs_submitted_total"] != 3 {
		t.Errorf("bare-name submitted fold = %g, want 3", vals["hermes_jobs_submitted_total"])
	}
}

func TestWritePrometheusSeriesComplete(t *testing.T) {
	r := New()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, series := range []string{
		"hermes_steals_total", "hermes_tempo_switches_total",
		"hermes_dvfs_commits_total", "hermes_jobs_started_total",
		"hermes_jobs_completed_total", "hermes_jobs_inflight",
		"hermes_power_watts", "hermes_energy_joules",
		"hermes_job_energy_joules_total", "hermes_job_latency_seconds_sum",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("scrape missing series %s", series)
		}
	}
	// A ledger source that fails fails the scrape instead of reading 0.
	r.SetLedger(func() (core.MachineStats, error) { return core.MachineStats{}, errors.New("no ledger") })
	if err := r.WritePrometheus(io.Discard); err == nil {
		t.Error("a failing ledger source gave a scrape")
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	r := New()
	var reads int
	r.SetLedger(fakeLedger(core.MachineStats{Steals: 2, EnergyJ: 3.5}, &reads))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	vals := ParseText(b.String())
	if vals["hermes_steals_total"] != 2 {
		t.Fatalf("parsed steals = %g, want 2", vals["hermes_steals_total"])
	}
	if vals["hermes_energy_joules"] != 3.5 {
		t.Fatalf("parsed energy = %g, want 3.5", vals["hermes_energy_joules"])
	}
}

// TestParseTextLabeledSeries pins the labeled-output contract: full
// "name{labels}" keys are exposed and fold into the bare name.
func TestParseTextLabeledSeries(t *testing.T) {
	vals := ParseText("a_total{workload=\"fib\"} 2\na_total{workload=\"ticks\"} 3\nb_gauge 1.5\n")
	if vals[`a_total{workload="fib"}`] != 2 || vals[`a_total{workload="ticks"}`] != 3 {
		t.Fatalf("labeled keys wrong: %v", vals)
	}
	if vals["a_total"] != 5 {
		t.Fatalf("bare-name fold = %g, want 5", vals["a_total"])
	}
	if vals["b_gauge"] != 1.5 {
		t.Fatalf("unlabeled series = %g, want 1.5", vals["b_gauge"])
	}
}

// TestLatencyHistAndQuantile exercises the controller-facing histogram
// accessors: the all-kinds Hist, windowed differencing, and quantile
// interpolation.
func TestLatencyHistAndQuantile(t *testing.T) {
	r := New()
	for range 100 {
		// 100 jobs at 2 ms sojourn: p99 interpolates inside (1ms, 2.5ms].
		r.JobDone(Key{Kind: "fib"}, 2*units.Millisecond, 0)
	}
	h := r.LatencyHist()
	if h.Count != 100 {
		t.Fatalf("hist count = %d, want 100", h.Count)
	}
	if got := h.Buckets[bucketFor(0.002)]; got != 100 {
		t.Fatalf("2ms bucket = %d, want 100", got)
	}
	q := h.Quantile(0.99)
	if q <= 0.001 || q > 0.0025 {
		t.Fatalf("p99 = %g, want within (1ms, 2.5ms]", q)
	}

	// Window: 50 more jobs at 40 ms; the diff must only see those.
	before := h
	for range 50 {
		r.JobDone(Key{Kind: "fib"}, 40*units.Millisecond, 0)
	}
	win := r.LatencyHist().Sub(before)
	if win.Count != 50 {
		t.Fatalf("windowed count = %d, want 50", win.Count)
	}
	if q := win.Quantile(0.5); q <= 0.025 || q > 0.05 {
		t.Fatalf("windowed p50 = %g, want within (25ms, 50ms]", q)
	}

	var empty Hist
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty-hist quantile = %g, want 0", got)
	}
}

// TestSnapshotJobsSubmitted pins the scrape's submitted total: the
// started counter sums the per-kind submissions.
func TestSnapshotJobsSubmitted(t *testing.T) {
	r := New()
	r.JobSubmitted("fib", "", 0)
	r.JobSubmitted("fib", "", 0)
	r.JobSubmitted("matmul", "", 0)
	s := scrape(t, r)
	if got := s["hermes_jobs_started_total"]; got != 3 {
		t.Fatalf("hermes_jobs_started_total = %g, want 3", got)
	}
	if got := s["hermes_jobs_inflight"]; got != 3 {
		t.Fatalf("hermes_jobs_inflight = %g, want 3", got)
	}
}

// TestAddCollector verifies auxiliary series land at the end of a
// scrape.
func TestAddCollector(t *testing.T) {
	r := New()
	r.AddCollector(func(w io.Writer) error {
		_, err := io.WriteString(w, "hermes_control_state 1\n")
		return err
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(b.String(), "hermes_control_state 1\n") {
		t.Fatal("collector output missing from scrape tail")
	}
}
