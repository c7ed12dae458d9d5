package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestClassedSubmitEchoed covers the classed submit path: tenant and
// priority ride the POST body, are echoed on acceptance and in the
// job's status, and label the metrics series; unclassed submissions
// keep their pre-tenancy response shape.
func TestClassedSubmitEchoed(t *testing.T) {
	ts, _ := newTestServer(t, 8)

	id, code := postJob(t, ts.URL, `{"workload":"ticks","n":4,"grain":4,"work":100000,"tenant":"acme","priority":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("classed submit: HTTP %d", code)
	}
	st := waitDoneOrPruned(t, ts.URL, id, 30*time.Second)
	if st.Status != "done" {
		t.Fatalf("job %d finished %q", id, st.Status)
	}
	if st.Tenant != "acme" || st.Priority != 2 {
		t.Fatalf("status lost the class: tenant=%q priority=%d", st.Tenant, st.Priority)
	}

	plainID, code := postJob(t, ts.URL, `{"workload":"ticks","n":4,"grain":4,"work":100000}`)
	if code != http.StatusAccepted {
		t.Fatalf("plain submit: HTTP %d", code)
	}
	if st := waitDoneOrPruned(t, ts.URL, plainID, 30*time.Second); st.Tenant != "" || st.Priority != 0 {
		t.Fatalf("unclassed job grew a class: %+v", st)
	}

	// The class labels the metrics series alongside the workload kind.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `hermes_jobs_submitted_total{workload="ticks",tenant="acme",priority="2"} 1`
	if !strings.Contains(string(body), want) {
		t.Fatalf("metrics missing classed series %q:\n%s", want, body)
	}

	// A negative priority is rejected loudly: shedding floors count
	// upward from zero.
	if _, code := postJob(t, ts.URL, `{"workload":"ticks","n":4,"priority":-1}`); code != http.StatusBadRequest {
		t.Fatalf("negative priority: HTTP %d, want 400", code)
	}
}

// TestJobIndexTenantFilter covers GET /jobs?tenant=: rows filter by
// the service-class tenant, the filter composes with workload and
// limit, the empty value selects unclassed jobs, and an unknown
// tenant (free-form, no registry) yields an empty list rather than a
// 400.
func TestJobIndexTenantFilter(t *testing.T) {
	ts, srv := newTestServer(t, 8)
	srv.retainDone = 16
	submit := func(body string) {
		t.Helper()
		id, code := postJob(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", body, code)
		}
		if st := waitDoneOrPruned(t, ts.URL, id, 30*time.Second); st.Status != "done" {
			t.Fatalf("job %d finished %q", id, st.Status)
		}
	}
	submit(`{"workload":"ticks","n":4,"grain":4,"work":100000,"tenant":"acme"}`)
	submit(`{"workload":"ticks","n":4,"grain":4,"work":100000,"tenant":"acme","priority":1}`)
	submit(`{"workload":"fib","n":8,"grain":4,"tenant":"umbrella"}`)
	submit(`{"workload":"ticks","n":4,"grain":4,"work":100000}`)

	get := func(url string) jobIndexJSON {
		t.Helper()
		var idx jobIndexJSON
		if code := getJSON(t, url, &idx); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", url, code)
		}
		return idx
	}

	acme := get(ts.URL + "/jobs?tenant=acme")
	if acme.Count != 2 {
		t.Fatalf("tenant=acme count %d, want 2: %+v", acme.Count, acme)
	}
	for _, e := range acme.Jobs {
		if e.Tenant != "acme" {
			t.Fatalf("tenant filter leaked %+v", e)
		}
	}

	// Composes with workload and limit.
	if idx := get(ts.URL + "/jobs?tenant=acme&workload=ticks&limit=1"); idx.Count != 1 || idx.Jobs[0].Tenant != "acme" {
		t.Fatalf("composed filter: %+v", idx)
	}
	if idx := get(ts.URL + "/jobs?tenant=umbrella&workload=ticks"); idx.Count != 0 {
		t.Fatalf("disjoint composition matched rows: %+v", idx)
	}

	// The empty value means "unclassed", distinct from no filter.
	if idx := get(ts.URL + "/jobs?tenant="); idx.Count != 1 || idx.Jobs[0].Tenant != "" {
		t.Fatalf("tenant= (empty) filter: %+v", idx)
	}
	if idx := get(ts.URL + "/jobs"); idx.Count != 4 {
		t.Fatalf("unfiltered count %d, want 4", idx.Count)
	}

	// Unknown tenants are not an error: empty list, HTTP 200.
	if idx := get(ts.URL + "/jobs?tenant=nobody"); idx.Count != 0 || len(idx.Jobs) != 0 {
		t.Fatalf("unknown tenant: %+v", idx)
	}
}
