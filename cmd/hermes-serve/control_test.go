package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes"
	"hermes/internal/control"
	"hermes/internal/sweep"
	"hermes/internal/workload"
)

// kneeResult is a synthetic sweep artifact: one flat curve per mode,
// each with its knee resolved at kneeRPS.
func kneeResult(kneeRPS float64) sweep.Result {
	res := sweep.Result{
		Workload:   workload.Spec{Kind: "ticks", N: 64},
		RatesRPS:   []float64{1, 10, 100},
		KneeFactor: 5,
	}
	for _, m := range []string{"baseline", "hermes"} {
		k := kneeRPS
		c := sweep.Curve{Mode: m, UnloadedP50MS: 1, KneeRPS: &k}
		for range res.RatesRPS {
			c.Points = append(c.Points, sweep.Point{JoulesPerRequest: 0.5})
		}
		res.Curves = append(res.Curves, c)
	}
	return res
}

// tinyKneeModel builds a capacity model whose knee is absurdly low, so
// any real traffic trips the controller.
func tinyKneeModel(t *testing.T, kneeRPS float64) *sweep.Model {
	t.Helper()
	model, err := sweep.ModelFromResult(kneeResult(kneeRPS))
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestControlBootsFromModelFile covers the -control -sweep-model <file>
// boot wiring: buildServer loads the artifact from disk and hands the
// controller a model, so /controlz reports it enabled and idle. A
// buildServer that ignored sweepModel would report it disabled.
func TestControlBootsFromModelFile(t *testing.T) {
	data, err := json.Marshal(kneeResult(10_000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, _ := startTestServer(t, serveConfig{backend: "native", mode: "unified", workers: 4,
		maxInflight: 8, jobTimeout: time.Minute, control: true, sweepModel: path})
	var st control.Status
	if code := getJSON(t, ts.URL+"/controlz", &st); code != http.StatusOK {
		t.Fatalf("/controlz: HTTP %d", code)
	}
	if !st.Enabled || st.State != "normal" || st.Shed != 0 || st.ModelPath != path {
		t.Fatalf("controller booted from %s: %+v, want enabled, normal, shed_total 0", path, st)
	}
}

// TestControlzDisabledByDefault pins the contract that /controlz always
// answers, reporting exactly why the controller is not acting.
func TestControlzDisabledByDefault(t *testing.T) {
	ts, _ := newTestServer(t, 8)
	var st control.Status
	if code := getJSON(t, ts.URL+"/controlz", &st); code != http.StatusOK {
		t.Fatalf("/controlz: HTTP %d", code)
	}
	if st.Enabled {
		t.Fatalf("controller enabled without -control: %+v", st)
	}
	if !strings.Contains(st.Reason, "-control") {
		t.Fatalf("disabled reason should mention the flag, got %q", st.Reason)
	}
	if st.State != "disabled" {
		t.Fatalf("state = %q, want disabled", st.State)
	}
}

// TestControllerShedding429 drives the controller into Shedding and
// checks the serving path refuses with the control-plane 429 — a body
// distinct from the semaphore's max-in-flight message, plus a
// Retry-After hint.
func TestControllerShedding429(t *testing.T) {
	ts, srv := newTestServer(t, 64)
	ctl := control.New(control.Config{
		Model:  tinyKneeModel(t, 1),
		Mode:   hermes.Unified,
		Source: srv.reg,
	})
	if !ctl.Enabled() {
		t.Fatalf("controller did not enable: %s", ctl.Status().Reason)
	}
	srv.ctl = ctl

	// Offer far more than the 1 rps knee across two ticks (control's enterTicks).
	for tick := 0; tick < 2; tick++ {
		for i := 0; i < 100; i++ {
			ctl.Admit()
		}
		ctl.Tick(time.Second)
	}
	if got := ctl.State(); got != control.Shedding {
		t.Fatalf("state = %v, want Shedding", got)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"workload":"fib","n":10}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit: HTTP %d, want 429", resp.StatusCode)
	}
	if !strings.Contains(string(body), "shedding") {
		t.Fatalf("shed 429 body should say shedding, got %q", body)
	}
	if strings.Contains(string(body), "in-flight") {
		t.Fatalf("shed 429 must be distinct from the semaphore message, got %q", body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if shed := ctl.Status().Shed; shed < 1 {
		t.Fatalf("shed_total = %d, want >= 1", shed)
	}
}

// TestCapacityReplayDeterministic pins the /capacity contract: 409
// before any trace exists, byte-identical JSON across repeated queries
// once it does, and 400s for malformed scale or mode.
func TestCapacityReplayDeterministic(t *testing.T) {
	ts, _ := newTestServer(t, 8)

	resp, err := http.Get(ts.URL + "/capacity")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("empty-trace /capacity: HTTP %d, want 409", resp.StatusCode)
	}

	for _, spec := range []string{
		`{"workload":"fib","n":12}`,
		`{"workload":"ticks","n":64}`,
		`{"workload":"matmul","n":16}`,
	} {
		id, code := postJob(t, ts.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", spec, code)
		}
		waitDone(t, ts.URL, id, 30*time.Second)
	}

	fetch := func(q string) ([]byte, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/capacity" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body, resp.StatusCode
	}

	b1, code := fetch("?scale=2.5")
	if code != http.StatusOK {
		t.Fatalf("/capacity: HTTP %d: %s", code, b1)
	}
	b2, _ := fetch("?scale=2.5")
	if !bytes.Equal(b1, b2) {
		t.Fatalf("capacity replay not byte-identical:\n%s\n---\n%s", b1, b2)
	}
	var out capacityJSON
	if err := json.Unmarshal(b1, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceLen != 3 || out.Prediction.Completed != 3 {
		t.Fatalf("replayed %d arrivals / completed %d, want 3/3", out.TraceLen, out.Prediction.Completed)
	}
	if out.Scale != 2.5 {
		t.Fatalf("scale = %g, want 2.5", out.Scale)
	}

	// An explicit ?mode= must change the simulated mode, not error.
	bBase, code := fetch("?scale=2.5&mode=baseline")
	if code != http.StatusOK {
		t.Fatalf("/capacity mode=baseline: HTTP %d", code)
	}
	var outBase capacityJSON
	if err := json.Unmarshal(bBase, &outBase); err != nil {
		t.Fatal(err)
	}
	if outBase.Mode != "baseline" {
		t.Fatalf("mode = %q, want baseline", outBase.Mode)
	}

	for _, q := range []string{"?scale=0", "?scale=-1", "?scale=NaN", "?scale=1e9", "?mode=warp"} {
		if _, code := fetch(q); code != http.StatusBadRequest {
			t.Fatalf("/capacity%s: HTTP %d, want 400", q, code)
		}
	}
}

// TestTraceRingConcurrentRecordAscending: submissions recorded from
// several connections at once must land in the ring in time order —
// /capacity replays the ring as an arrival trace and rejects one that
// is not ascending.
func TestTraceRingConcurrentRecordAscending(t *testing.T) {
	ts, srv := newTestServer(t, 8)
	const writers, each = 8, 100
	spec := workload.Spec{Kind: "ticks", N: 8}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				srv.trace.record(spec)
			}
		}()
	}
	wg.Wait()

	entries, total := srv.trace.snapshot()
	if total != writers*each || len(entries) != writers*each {
		t.Fatalf("ring holds %d of %d recorded, want %d", len(entries), total, writers*each)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].at < entries[i-1].at {
			t.Fatalf("entry %d at %v precedes entry %d at %v", i, entries[i].at, i-1, entries[i-1].at)
		}
	}
	resp, err := http.Get(ts.URL + "/capacity")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/capacity after concurrent submissions: HTTP %d: %s", resp.StatusCode, body)
	}
}
