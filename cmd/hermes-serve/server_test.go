package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/metrics"
	"hermes/internal/workload"
)

// startTestServer boots the full pipeline (runtime + metrics + control
// plane + HTTP mux) behind an httptest server.
func startTestServer(t *testing.T, cfg serveConfig) (*httptest.Server, *server) {
	t.Helper()
	srv, rt, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return ts, srv
}

// newTestServer is startTestServer on the Native backend with the
// controller off.
func newTestServer(t *testing.T, maxInflight int) (*httptest.Server, *server) {
	t.Helper()
	return startTestServer(t, serveConfig{backend: "native", mode: "unified", workers: 4, maxInflight: maxInflight, jobTimeout: time.Minute})
}

// postJob submits spec and returns the job id (0 unless accepted) and
// the HTTP status; a transport or decode failure stops the test, so
// call it from the test goroutine only.
func postJob(t *testing.T, base, spec string) (int64, int) {
	t.Helper()
	id, code, err := submitJob(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	return id, code
}

// submitJob is postJob for any goroutine: it returns the failure
// instead of stopping the test.
func submitJob(base, spec string) (int64, int, error) {
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return 0, resp.StatusCode, nil
	}
	var out struct {
		ID int64 `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, resp.StatusCode, fmt.Errorf("bad accept body %q: %v", body, err)
	}
	return out.ID, resp.StatusCode, nil
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("bad body %q: %v", body, err)
		}
	}
	return resp.StatusCode
}

func waitDone(t *testing.T, base string, id int64, timeout time.Duration) jobStatusJSON {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st jobStatusJSON
		if code := getJSON(t, fmt.Sprintf("%s/jobs/%d", base, id), &st); code != http.StatusOK {
			t.Fatalf("job %d: HTTP %d", id, code)
		}
		if st.Status != "running" {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d not done after %v", id, timeout)
	return jobStatusJSON{}
}

func TestSubmitPollReport(t *testing.T) {
	ts, _ := newTestServer(t, 64)
	id, code := postJob(t, ts.URL, `{"workload":"fib","n":16}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitDone(t, ts.URL, id, 30*time.Second)
	if st.Status != "done" || st.Report == nil {
		t.Fatalf("bad final status: %+v", st)
	}
	if st.Report.Tasks == 0 || st.Report.EnergyJ <= 0 || st.SojournMS <= 0 {
		t.Fatalf("degenerate report: %+v", st.Report)
	}
	if st.Workload.Kind != "fib" || st.Workload.N != 16 {
		t.Fatalf("spec not echoed: %+v", st.Workload)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 8)
	for _, spec := range []string{
		`{"workload":"nope"}`,
		`{"workload":"fib","n":1000}`,
		`{"workload":"ticks","memfrac":7}`,
		`not json`,
		`{"workload":"fib","bogus_field":1}`,
		// The body is one object: anything after it is a client error,
		// not a second value silently dropped.
		`{"workload":"fib","n":8} trailing garbage`,
		`{"workload":"fib","n":8}{"workload":"nope"}`,
	} {
		if _, code := postJob(t, ts.URL, spec); code != http.StatusBadRequest {
			t.Errorf("submit %s: HTTP %d, want 400", spec, code)
		}
	}
	var v map[string]any
	if code := getJSON(t, ts.URL+"/jobs/99999", &v); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/jobs/abc", &v); code != http.StatusBadRequest {
		t.Errorf("bad job id: HTTP %d, want 400", code)
	}
}

func TestAdmissionControl(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	// Two slow jobs fill the in-flight window...
	long := `{"workload":"ticks","n":64,"grain":1,"work":20000000}`
	for i := 0; i < 2; i++ {
		if _, code := postJob(t, ts.URL, long); code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, code)
		}
	}
	// ...so the third must be refused, not queued.
	if _, code := postJob(t, ts.URL, long); code != http.StatusTooManyRequests {
		t.Fatalf("over-admission submit: HTTP %d, want 429", code)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, 16)
	var h struct {
		OK          bool   `json:"ok"`
		Backend     string `json:"backend"`
		MaxInflight int    `json:"max_inflight"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if !h.OK || h.Backend != "native" || h.MaxInflight != 16 {
		t.Fatalf("healthz fields wrong: %+v", h)
	}
}

// TestPeakInflightOnlyRises raises the in-flight high-water mark from
// many goroutines at once, as concurrent submitters do: each climbs its
// own interleaved ladder below top while one more offers top once,
// midway. A submitter that read the mark before top landed and stores
// its smaller value after would lower it for good, so the mark must end
// at top.
func TestPeakInflightOnlyRises(t *testing.T) {
	const climbers, top = 4, 1 << 16
	var s server
	var wg sync.WaitGroup
	for g := 0; g < climbers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; n < top; n += climbers {
				s.raisePeak(int64(n))
			}
		}(g)
	}
	for s.peak.Load() < top/2 {
		runtime.Gosched()
	}
	s.raisePeak(top)
	wg.Wait()
	if got := s.peak.Load(); got != top {
		t.Fatalf("peak in-flight %d, want the largest value offered, %d", got, top)
	}
}

// TestSustains200Inflight: the server holds >= 200 concurrently
// in-flight jobs, completes them all, and /metrics counts every one.
func TestSustains200Inflight(t *testing.T) {
	const jobs = 250
	ts, srv := newTestServer(t, 512)
	// Each job is ~40ms of accounted work: slow enough that all 250
	// are in flight together once submitted, fast enough to finish
	// the run promptly.
	spec := `{"workload":"ticks","n":32,"grain":4,"work":3000000}`

	var wg sync.WaitGroup
	ids := make([]int64, jobs)
	var rejected atomic.Int64
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, code, err := submitJob(ts.URL, spec)
			switch {
			case err != nil:
				t.Errorf("job %d: %v", i, err)
			case code == http.StatusAccepted:
				ids[i] = id
			case code == http.StatusTooManyRequests:
				rejected.Add(1)
			default:
				t.Errorf("job %d: HTTP %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow() // a failed submission has no id to wait on
	}
	if got := rejected.Load(); got != 0 {
		t.Fatalf("%d of %d jobs rejected below the max-inflight limit", got, jobs)
	}
	for _, id := range ids {
		if st := waitDone(t, ts.URL, id, 60*time.Second); st.Status != "done" {
			t.Fatalf("job %d finished %q: %s", id, st.Status, st.Error)
		}
	}

	if peak := srv.peak.Load(); peak < 200 {
		t.Fatalf("peak in-flight %d, want >= 200 (did submissions serialize?)", peak)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	vals := metrics.ParseText(string(body))
	if got := vals["hermes_jobs_completed_total"]; got < jobs {
		t.Fatalf("metrics saw %g completed jobs, want >= %d", got, jobs)
	}
	if vals["hermes_job_latency_seconds_count"] < jobs {
		t.Fatalf("latency histogram observed %g jobs, want >= %d",
			vals["hermes_job_latency_seconds_count"], jobs)
	}
}

// TestSchedulerSeriesEqualJobReports: once concurrent jobs quiesce,
// the scraped steal counter, read from the machine ledger, equals the
// steals the jobs' own reports attribute, both energy series are live,
// and every job is counted started and completed and observed in the
// latency histogram exactly once.
func TestSchedulerSeriesEqualJobReports(t *testing.T) {
	const jobs = 60
	ts, _ := newTestServer(t, 256)
	ids := make([]int64, jobs)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, code, err := submitJob(ts.URL, `{"workload":"ticks","n":16}`)
			if err != nil || code != http.StatusAccepted {
				t.Errorf("job %d: HTTP %d, %v", i, code, err)
			}
			ids[i] = id
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow() // a failed submission has no id to wait on
	}
	var steals float64
	for _, id := range ids {
		st := waitDone(t, ts.URL, id, 30*time.Second)
		if st.Status != "done" {
			t.Fatalf("job %d finished %q: %s", id, st.Status, st.Error)
		}
		steals += float64(st.Report.Steals)
	}
	want := map[string]float64{
		"hermes_jobs_completed_total":      jobs,
		"hermes_job_latency_seconds_count": jobs,
		"hermes_jobs_started_total":        jobs,
		"hermes_jobs_inflight":             0,
		"hermes_steals_total":              steals,
	}
	// A job's status turns done before its completion reaches the
	// registry, so the job series may trail the statuses briefly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		vals := metrics.ParseText(scrapeMetrics(t, ts.URL))
		exact := true
		for name, v := range want {
			exact = exact && vals[name] == v
		}
		if exact {
			if jobJ, machineJ := vals["hermes_job_energy_joules_total"], vals["hermes_energy_joules"]; jobJ <= 0 || machineJ <= 0 {
				t.Fatalf("jobs' energy %g J, the machine's %g J", jobJ, machineJ)
			}
			return
		}
		if time.Now().After(deadline) {
			got := map[string]float64{}
			for name := range want {
				got[name] = vals[name]
			}
			t.Fatalf("after %d jobs: %v, want %v", jobs, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrapeMetrics returns one /metrics body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d, %v", resp.StatusCode, err)
	}
	return string(body)
}

// TestLongPollStatus pins GET /jobs/{id}?wait: the handler holds the
// request until the job completes instead of answering "running", so
// a single request observes completion with no client-side poll loop.
func TestLongPollStatus(t *testing.T) {
	ts, _ := newTestServer(t, 8)
	// ~80ms of accounted work: long enough that an immediate status
	// read says "running".
	id, code := postJob(t, ts.URL, `{"workload":"ticks","n":32,"grain":4,"work":6000000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	var quick jobStatusJSON
	if code := getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id), &quick); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if quick.Status != "running" {
		t.Skipf("job finished before the handler could be observed running (%q)", quick.Status)
	}
	var st jobStatusJSON
	if code := getJSON(t, fmt.Sprintf("%s/jobs/%d?wait=30s", ts.URL, id), &st); code != http.StatusOK {
		t.Fatalf("long-poll: HTTP %d", code)
	}
	if st.Status != "done" {
		t.Fatalf("long-poll returned %q, want done (wait not honoured)", st.Status)
	}
	if st.Report == nil || st.Report.SojournMS <= 0 {
		t.Fatalf("long-poll result missing backend sojourn: %+v", st.Report)
	}
	// A malformed wait is a client error, not a hang.
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d?wait=nonsense", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestPrunedJobAnswers410 pins the eviction contract: a completed job
// whose record fell out of the retention window answers 410 with
// status "pruned" — distinguishable from both "no such job" (404) and
// a failure.
func TestPrunedJobAnswers410(t *testing.T) {
	ts, srv := newTestServer(t, 8)
	srv.retainDone = 2
	var ids []int64
	for i := 0; i < 4; i++ {
		id, code := postJob(t, ts.URL, `{"workload":"ticks","n":4,"grain":4,"work":100000}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		// Drive each job to completion before the next so eviction
		// order is deterministic.
		st := waitDoneOrPruned(t, ts.URL, id, 30*time.Second)
		if st.Status != "done" && st.Status != "pruned" {
			t.Fatalf("job %d finished %q", id, st.Status)
		}
		ids = append(ids, id)
	}
	// Retention 2 with 4 completions: the first job is evicted by now.
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted job: HTTP %d (%s), want 410", resp.StatusCode, body)
	}
	var st jobStatusJSON
	if err := json.Unmarshal(body, &st); err != nil || st.Status != "pruned" {
		t.Fatalf("evicted job body %q, want status pruned", body)
	}
	// Ids never issued stay 404.
	var v map[string]any
	if code := getJSON(t, ts.URL+"/jobs/99999", &v); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", code)
	}
}

// waitDoneOrPruned is waitDone tolerating eviction races (tiny
// retention windows in tests).
func waitDoneOrPruned(t *testing.T, base string, id int64, timeout time.Duration) jobStatusJSON {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d?wait=5s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st jobStatusJSON
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("job %d: bad body %q", id, body)
		}
		if resp.StatusCode == http.StatusGone || st.Status != "running" {
			return st
		}
	}
	t.Fatalf("job %d not done after %v", id, timeout)
	return jobStatusJSON{}
}

// TestServeOnSimBackend: the serving path now runs on the
// deterministic simulator too — concurrent HTTP jobs multiplex inside
// the discrete-event machine instead of serializing.
func TestServeOnSimBackend(t *testing.T) {
	ts, _ := startTestServer(t, serveConfig{backend: "sim", mode: "unified", workers: 4, maxInflight: 64, jobTimeout: time.Minute})
	var ids []int64
	for i := 0; i < 6; i++ {
		id, code := postJob(t, ts.URL, `{"workload":"fib","n":14}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids = append(ids, id)
	}
	// A scrape while the jobs run is answered by the engine between
	// events; it returns at once with the ledger so far.
	scrapeMetrics(t, ts.URL)
	for _, id := range ids {
		st := waitDoneOrPruned(t, ts.URL, id, 30*time.Second)
		if st.Status != "done" {
			t.Fatalf("sim job %d finished %q: %s", id, st.Status, st.Error)
		}
		if st.Report == nil || st.Report.SojournMS <= 0 {
			t.Fatalf("sim job %d missing virtual sojourn: %+v", id, st.Report)
		}
	}
	if j := metrics.ParseText(scrapeMetrics(t, ts.URL))["hermes_energy_joules"]; j <= 0 {
		t.Fatalf("hermes_energy_joules = %g on the running Sim server, want > 0", j)
	}
}

// TestJobTimeoutReportsDeadline: a job that outlives -job-timeout ends
// failed, and its status names the deadline. One Native worker leaves
// the deadline's timer a free P on a two-core host.
func TestJobTimeoutReportsDeadline(t *testing.T) {
	ts, _ := startTestServer(t, serveConfig{backend: "native", mode: "unified", workers: 1, maxInflight: 4, jobTimeout: 2 * time.Millisecond})
	id, code := postJob(t, ts.URL, `{"workload":"fibtree","n":32,"grain":8}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitDone(t, ts.URL, id, 30*time.Second)
	if st.Status != "failed" || !strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("job %d ended %q with %q; want failed with the deadline", id, st.Status, st.Error)
	}
}

// TestPerWorkloadMetricsLabels: the /metrics fold labels submissions
// and latency by workload kind.
func TestPerWorkloadMetricsLabels(t *testing.T) {
	ts, _ := newTestServer(t, 8)
	for _, spec := range []string{`{"workload":"fib","n":12}`, `{"workload":"ticks","n":16}`} {
		id, code := postJob(t, ts.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", spec, code)
		}
		waitDone(t, ts.URL, id, 30*time.Second)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`hermes_jobs_submitted_total{workload="fib"} 1`,
		`hermes_jobs_submitted_total{workload="ticks"} 1`,
		`hermes_job_latency_seconds_count{workload="fib"}`,
		`hermes_job_latency_seconds_count{workload="ticks"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	vals := metrics.ParseText(text)
	if vals["hermes_jobs_submitted_total"] < 2 {
		t.Errorf("bare-name submitted fold = %g, want >= 2", vals["hermes_jobs_submitted_total"])
	}
}

// requiredSeries are the /metrics series that must be present after
// jobs have run — the steal/tempo/DVFS/energy/latency observability
// surface the serving layer promises.
var requiredSeries = []string{
	"hermes_control_enabled",
	"hermes_control_state",
	"hermes_control_offered_rps",
	"hermes_control_shed_total",
	"hermes_control_mode_switches_total",
	"hermes_steals_total",
	"hermes_tempo_switches_total",
	"hermes_dvfs_commits_total",
	"hermes_energy_joules",
	"hermes_power_watts",
	"hermes_job_energy_joules_total",
	"hermes_job_latency_seconds_bucket",
	"hermes_job_latency_seconds_count",
	"hermes_jobs_completed_total",
	`hermes_jobs_submitted_total{workload="fib"}`,
	`hermes_jobs_submitted_total{workload="matmul"}`,
	`hermes_jobs_submitted_total{workload="ticks"}`,
	`hermes_job_latency_seconds_count{workload="fib"}`,
	// Class-labeled series: one ticks job per service class, each in
	// its own (workload, tenant, priority) series while the unclassed
	// ticks series above stays label-compatible with pre-tenancy
	// scrapes.
	`hermes_jobs_submitted_total{workload="ticks",tenant="batch",priority="0"}`,
	`hermes_jobs_submitted_total{workload="ticks",tenant="lc",priority="1"}`,
	`hermes_jobs_submitted_total{workload="ticks",tenant="lc",priority="2"}`,
	`hermes_job_latency_seconds_count{workload="ticks",tenant="lc",priority="1"}`,
	"hermes_control_shed_floor",
}

func TestMetricsSeriesPresent(t *testing.T) {
	ts, _ := newTestServer(t, 8)
	// One job per workload kind plus one per service class:
	// requiredSeries includes the labeled per-kind families and the
	// class-labeled (workload, tenant, priority) families.
	for _, spec := range []string{
		`{"workload":"fib","n":12}`, `{"workload":"matmul","n":24}`, `{"workload":"ticks","n":16}`,
		`{"workload":"ticks","n":16,"tenant":"batch"}`,
		`{"workload":"ticks","n":16,"tenant":"lc","priority":1}`,
		`{"workload":"ticks","n":16,"tenant":"lc","priority":2}`,
	} {
		id, _ := postJob(t, ts.URL, spec)
		waitDone(t, ts.URL, id, 30*time.Second)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, series := range requiredSeries {
		if !strings.Contains(text, series) {
			t.Errorf("scrape missing series %s", series)
		}
	}
	if j := metrics.ParseText(text)["hermes_job_energy_joules_total"]; j <= 0 {
		t.Errorf("hermes_job_energy_joules_total = %g after six jobs, want > 0", j)
	}
}

// TestWorkloadsCatalogDrivesSubmit: GET /workloads is the registry, in
// registry order, and every kind it lists runs from its defaults — the
// catalog can never drift from what POST /jobs accepts.
func TestWorkloadsCatalogDrivesSubmit(t *testing.T) {
	ts, _ := newTestServer(t, 64)
	var cat workloadsJSON
	if code := getJSON(t, ts.URL+"/workloads", &cat); code != http.StatusOK {
		t.Fatalf("/workloads: HTTP %d", code)
	}
	want := workload.Names()
	if cat.Count != len(want) || len(cat.Workloads) != len(want) {
		t.Fatalf("catalog lists %d kinds (count %d), registry has %d", len(cat.Workloads), cat.Count, len(want))
	}
	var ids []int64
	for i, e := range cat.Workloads {
		if e.Name != want[i] {
			t.Fatalf("catalog[%d] = %q, registry has %q", i, e.Name, want[i])
		}
		if e.Desc == "" {
			t.Errorf("%q has no description", e.Name)
		}
		spec := fmt.Sprintf(`{"workload":%q}`, e.Name)
		id, code := postJob(t, ts.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", spec, code)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if st := waitDone(t, ts.URL, id, 60*time.Second); st.Status != "done" {
			t.Errorf("default-spec %s job finished %q: %s", want[i], st.Status, st.Error)
		}
	}
}

// TestJobIndex covers GET /jobs: every retained record listed sorted
// by id with workload kind, status and (when done) sojourn; the
// response stays bounded by the retention window; status and limit
// filters apply.
func TestJobIndex(t *testing.T) {
	ts, srv := newTestServer(t, 8)
	srv.retainDone = 3
	var ids []int64
	for i := 0; i < 5; i++ {
		id, code := postJob(t, ts.URL, `{"workload":"ticks","n":4,"grain":4,"work":100000}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		st := waitDoneOrPruned(t, ts.URL, id, 30*time.Second)
		if st.Status != "done" && st.Status != "pruned" {
			t.Fatalf("job %d finished %q", id, st.Status)
		}
		ids = append(ids, id)
	}
	var idx jobIndexJSON
	if code := getJSON(t, ts.URL+"/jobs", &idx); code != http.StatusOK {
		t.Fatalf("index: HTTP %d", code)
	}
	// 5 completions against retention 3: the index is bounded by the
	// window, and the highest ids survive.
	if idx.Count != 3 || len(idx.Jobs) != 3 || idx.Indexed != 3 {
		t.Fatalf("index size: %+v", idx)
	}
	if idx.MaxID != ids[len(ids)-1] {
		t.Fatalf("index max_id %d, want %d", idx.MaxID, ids[len(ids)-1])
	}
	if idx.RetainDone != 3 {
		t.Fatalf("index retain_done %d, want 3", idx.RetainDone)
	}
	for i, e := range idx.Jobs {
		if i > 0 && idx.Jobs[i-1].ID >= e.ID {
			t.Fatalf("index not sorted by id: %+v", idx.Jobs)
		}
		if e.Workload != "ticks" {
			t.Errorf("job %d workload %q, want ticks", e.ID, e.Workload)
		}
		if e.Status != "done" {
			t.Errorf("job %d status %q, want done", e.ID, e.Status)
		}
		if e.SojournMS <= 0 {
			t.Errorf("job %d completed with sojourn %g", e.ID, e.SojournMS)
		}
	}

	// A running job appears with status "running" and no sojourn, and
	// the status filter separates it from the completed ones.
	slowID, code := postJob(t, ts.URL, `{"workload":"ticks","n":256,"grain":4,"work":100000000}`)
	if code != http.StatusAccepted {
		t.Fatalf("slow submit: HTTP %d", code)
	}
	var running jobIndexJSON
	if code := getJSON(t, ts.URL+"/jobs?status=running", &running); code != http.StatusOK {
		t.Fatalf("index?status=running: HTTP %d", code)
	}
	if running.Count != 1 || running.Jobs[0].ID != slowID || running.Jobs[0].SojournMS != 0 {
		t.Fatalf("running filter: %+v", running)
	}
	var done jobIndexJSON
	if code := getJSON(t, ts.URL+"/jobs?status=done", &done); code != http.StatusOK {
		t.Fatalf("index?status=done: HTTP %d", code)
	}
	if done.Count != 3 {
		t.Fatalf("done filter count %d, want 3: %+v", done.Count, done)
	}

	// limit keeps the most recent (highest-id) rows.
	var limited jobIndexJSON
	if code := getJSON(t, ts.URL+"/jobs?limit=2", &limited); code != http.StatusOK {
		t.Fatalf("index?limit=2: HTTP %d", code)
	}
	if limited.Count != 2 || limited.Jobs[1].ID != slowID {
		t.Fatalf("limit filter: %+v", limited)
	}

	// Bad filters are rejected loudly.
	var v map[string]any
	if code := getJSON(t, ts.URL+"/jobs?status=nope", &v); code != http.StatusBadRequest {
		t.Fatalf("bad status filter: HTTP %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/jobs?limit=-1", &v); code != http.StatusBadRequest {
		t.Fatalf("bad limit: HTTP %d, want 400", code)
	}
	waitDoneOrPruned(t, ts.URL, slowID, 60*time.Second)
}

// TestJobIndexWorkloadFilter covers GET /jobs?workload=: rows filter
// by workload kind, the filter composes with status and limit, and
// unknown kinds are rejected loudly.
func TestJobIndexWorkloadFilter(t *testing.T) {
	ts, srv := newTestServer(t, 8)
	srv.retainDone = 16
	submit := func(body string) int64 {
		t.Helper()
		id, code := postJob(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", body, code)
		}
		if st := waitDoneOrPruned(t, ts.URL, id, 30*time.Second); st.Status != "done" {
			t.Fatalf("job %d finished %q", id, st.Status)
		}
		return id
	}
	var tickIDs, fibIDs []int64
	for i := 0; i < 3; i++ {
		tickIDs = append(tickIDs, submit(`{"workload":"ticks","n":4,"grain":4,"work":100000}`))
	}
	for i := 0; i < 2; i++ {
		fibIDs = append(fibIDs, submit(`{"workload":"fib","n":10,"grain":4}`))
	}

	var fib jobIndexJSON
	if code := getJSON(t, ts.URL+"/jobs?workload=fib", &fib); code != http.StatusOK {
		t.Fatalf("index?workload=fib: HTTP %d", code)
	}
	if fib.Count != len(fibIDs) {
		t.Fatalf("fib filter count %d, want %d: %+v", fib.Count, len(fibIDs), fib)
	}
	for _, e := range fib.Jobs {
		if e.Workload != "fib" {
			t.Fatalf("fib filter leaked %+v", e)
		}
	}
	// Composes with status: every ticks job is done, so the pair of
	// filters returns exactly the ticks set.
	var done jobIndexJSON
	if code := getJSON(t, ts.URL+"/jobs?workload=ticks&status=done", &done); code != http.StatusOK {
		t.Fatalf("index?workload=ticks&status=done: HTTP %d", code)
	}
	if done.Count != len(tickIDs) {
		t.Fatalf("composed filter count %d, want %d", done.Count, len(tickIDs))
	}
	// ...and with limit, keeping the highest-id matching row.
	var limited jobIndexJSON
	if code := getJSON(t, ts.URL+"/jobs?workload=fib&limit=1", &limited); code != http.StatusOK {
		t.Fatalf("index?workload=fib&limit=1: HTTP %d", code)
	}
	if limited.Count != 1 || limited.Jobs[0].ID != fibIDs[len(fibIDs)-1] {
		t.Fatalf("workload+limit filter: %+v", limited)
	}
	// No matches is an empty result, not an error.
	var none jobIndexJSON
	if code := getJSON(t, ts.URL+"/jobs?workload=matmul", &none); code != http.StatusOK || none.Count != 0 {
		t.Fatalf("empty match: HTTP %d, %+v", code, none)
	}
	// Unknown kinds are a client error.
	var v map[string]any
	if code := getJSON(t, ts.URL+"/jobs?workload=bitcoin", &v); code != http.StatusBadRequest {
		t.Fatalf("bad workload filter: HTTP %d, want 400", code)
	}
}

// FuzzSubmit: POST /jobs answers any body with 202, 400, 429 or 503 —
// never another status, never a panic. Two in-flight slots and a short
// job timeout keep an accepted fuzz job from holding the machine. The
// seeds (every catalogue workload at its defaults, classed and sized
// specs, and the malformed bodies TestBadRequests pins) run under plain
// go test.
func FuzzSubmit(f *testing.F) {
	for _, name := range workload.Names() {
		f.Add(fmt.Sprintf(`{"workload":%q}`, name))
	}
	for _, s := range []string{
		`{"workload":"fib","n":8,"tenant":"lc","priority":3}`,
		`{"workload":"ticks","n":4,"grain":1,"work":1000,"memfrac":0.5}`,
		`{"workload":"fib","priority":-1}`,
		`{"workload":"nope"}`, `{"workload":"fib","n":1000}`, `not json`, ``, `{}`, `null`, `[]`,
		`{"workload":"fib","bogus_field":1}`, `{"workload":"fib","n":8} trailing garbage`,
	} {
		f.Add(s)
	}
	srv, rt, err := buildServer(serveConfig{backend: "native", mode: "unified", workers: 2, maxInflight: 2, jobTimeout: 50 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { rt.Close() })
	h := srv.handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /jobs %q: HTTP %d %s", body, rec.Code, rec.Body)
		}
	})
}
