package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {0.95, 10}, {0.99, 10}, {1, 10}, {0.25, 3}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
	if !reflect.DeepEqual(xs, []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}) {
		t.Error("percentile or median reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, since the acceptance rule is
// stated in terms of that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 4}, 1, 4},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 3.3, 2.8}, 2.7, 3.1},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread of 1..10 = %g, want 1", got)
	}
}

// TestMedianOfSegments checks the rule every end-to-end timing
// follows: a statistic inside each segment, then the median over the
// segments, so that one slow segment moves nothing.
func TestMedianOfSegments(t *testing.T) {
	quick := segment{ops: 100, sec: 1, cpuS: 0.5, latMS: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2}}
	stall := segment{ops: 10, sec: 1, cpuS: 0.5, latMS: []float64{50, 60, 70, 80, 90, 100, 110, 120, 130, 140}}
	o := outcome{segs: []segment{quick, quick, stall, quick, quick}, setupS: []float64{3, 1, 2}, rssMB: 7, joules: 9}
	got := o.endToEnd()
	want := map[string]float64{
		"setup_s": 2, "throughput_per_s": 100, "latency_p50_ms": 1,
		"cpu_ms_per_op": 5, "rss_mb": 7, "joules_per_op": 9,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("endToEnd = %v, want %v", got, want)
	}
	if got := o.latency(0.95); got != 2 {
		t.Errorf("latency(0.95) = %g, want 2", got)
	}
	if n := len(o.latencies()); n != 50 {
		t.Errorf("latencies pooled %d samples, want 50", n)
	}
	// A segment in which nothing completed has no latency or cost per
	// operation, and must not count as zero.
	o.segs = []segment{quick, {sec: 1}, {sec: 1}}
	if got := o.endToEnd()["latency_p50_ms"]; got != 1 {
		t.Errorf("empty segments dragged latency_p50_ms to %g", got)
	}
}

// TestCPUTickerSegments checks the cut of a window into equal stretches
// with the CPU each used.
func TestCPUTickerSegments(t *testing.T) {
	c := startCPUTicker(func() float64 { return 0 }, 3600)
	c.finish()
	c.at = []float64{10, 11, 13, 16, 20, 25, 25.5}
	segs := c.segments(5, 10, 10.4)
	wantCPU := []float64{1, 2, 3, 4, 5.5}
	for k, s := range segs {
		wantSec := 2.0
		if k == 4 {
			wantSec = 2.4
		}
		if !near(s.cpuS, wantCPU[k]) || !near(s.sec, wantSec) {
			t.Errorf("segment %d = %gs, %g CPU s; want %gs, %g", k, s.sec, s.cpuS, wantSec, wantCPU[k])
		}
	}
}

func TestScheduleSeeded(t *testing.T) {
	a, b, c := schedule(7, 400, 2), schedule(7, 400, 2), schedule(8, 400, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) != 800 {
		t.Fatalf("400 rps for 2 s scheduled %d requests, want 800", len(a))
	}
	for i, at := range a {
		if at < 0 || at >= 2 || (i > 0 && at < a[i-1]) {
			t.Fatalf("request %d due at %g: outside the window or out of order", i, at)
		}
		if seg := i / 160; at < float64(seg)*0.4 || at >= float64(seg+1)*0.4 {
			t.Fatalf("request %d due at %g is outside its fifth of the window", i, at)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100, Parent: 0, Op: 1},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1, Op: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1, Op: 1},  // overlaps a
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1, Op: 1}, // sticks out of root
		{ID: 5, Name: "leaf", Start: 12, End: 20, Parent: 2, Op: 1},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 100 - 50 - 10, 2: 30 - 8, 3: 30, 4: 30, 5: 8}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	// Properly nested spans: the self times of an operation add up to
	// its root span.
	nested := []span{
		{ID: 1, Name: "root", Start: 0, End: 100, Parent: 0, Op: 7},
		{ID: 2, Name: "a", Start: 5, End: 40, Parent: 1, Op: 7},
		{ID: 3, Name: "b", Start: 40, End: 95, Parent: 1, Op: 7},
		{ID: 4, Name: "leaf", Start: 50, End: 60, Parent: 3, Op: 7},
	}
	sum := summarize(nested)
	var total int64
	for _, ns := range sum.selfNS {
		total += ns
	}
	if total != sum.rootDur[7] || total != 100 {
		t.Errorf("self times sum to %d, root span is %d, want both 100", total, sum.rootDur[7])
	}
	if sum.selfNS["b"] != 45 {
		t.Errorf("self time of b = %d, want 45", sum.selfNS["b"])
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 0, tr.op()))
	if tr.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, "same"},
		{"slower within bound", lower, steady, scale(steady, 1.05), "same"},
		{"slower beyond bound", lower, steady, scale(steady, 1.2), "worse"},
		{"faster", lower, steady, scale(steady, 0.5), "same"},
		{"less throughput", higher, steady, scale(steady, 0.8), "worse"},
		{"more throughput", higher, steady, scale(steady, 1.3), "same"},
		{"noise hides it", lower, noisy, scale(noisy, 1.2), "unresolved"},
		{"every run better despite noise", lower, noisy, scale(noisy, 0.2), "same"},
	} {
		if got := judge(c.m, c.a, c.b).word; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestTracedPathSimulatesTheSameRuns checks that the traced path of
// each simulating workload, which makes the layers' calls itself,
// produces bit-identical simulated reports to the untraced path, which
// calls the layers' own drivers.
func TestTracedPathSimulatesTheSameRuns(t *testing.T) {
	for _, name := range []string{"paper_figs", "sim_sweep"} {
		plain, err := runners[name](slice{seed: 3, small: true, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runners[name](slice{seed: 3, small: true, setups: 1, tr: newTracer()})
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest == "" || plain.digest != traced.digest {
			t.Errorf("%s: untraced digest %q, traced %q", name, plain.digest, traced.digest)
		}
		if len(plain.violations)+len(traced.violations) > 0 {
			t.Errorf("%s: violations %v %v", name, plain.violations, traced.violations)
		}
	}
}

// TestSmokeNamesMatchSpec runs every workload at smoke size, untraced,
// and one traced run, and checks that the names each prints are the
// names BENCHMARK.json declares, both ways.
func TestSmokeNamesMatchSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts hermes-serve")
	}
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	names := func(ms []metricSpec) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		return out
	}
	check := func(workload string, trace string, declared []metricSpec) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-smoke", "-workload", workload, "-trace", trace}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s -trace %s: exit %d\n%s", workload, trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not a result: %v", workload, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
		}
		got, want := sortedKeys(res.Metrics), names(declared)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s -trace %s printed %v, BENCHMARK.json declares %v", workload, trace, got, want)
		}
		for _, m := range declared {
			if res.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", workload, m.Name, res.Metrics[m.Name].Unit, m.Unit)
			}
		}
	}
	for _, w := range workloadNames {
		check(w, "0", spec.EndToEnd)
	}
	check("serve_http", "1", spec.PerLayer)
}
