package hermes_test

import (
	"context"
	"fmt"
	"testing"

	"hermes"
)

// mixedTrace builds a deterministic classed trace: a burst of
// heavy batch jobs at t=0 followed by small latency-critical jobs
// arriving while the batch work still queues, so dispatch policies
// have something real to reorder.
func mixedTrace(batch, lc int) []hermes.Arrival {
	var arrivals []hermes.Arrival
	for i := 0; i < batch; i++ {
		root, _ := leafWorkload(192)
		arrivals = append(arrivals, hermes.Arrival{
			At:    hermes.Time(i+1) * 10 * hermes.Microsecond,
			Task:  root,
			Class: hermes.Class{Tenant: "batch"},
		})
	}
	for i := 0; i < lc; i++ {
		root, _ := leafWorkload(8)
		arrivals = append(arrivals, hermes.Arrival{
			At:   hermes.Time(i+1) * 50 * hermes.Microsecond,
			Task: root,
			Class: hermes.Class{
				Tenant: "lc", Priority: 1,
				Deadline:  2 * hermes.Millisecond,
				SLOTarget: 2 * hermes.Millisecond,
			},
		})
	}
	return arrivals
}

// dispatchOpts is the 2-worker Sim machine every dispatch test runs.
func dispatchOpts(d hermes.Dispatch, quantum hermes.Time) []hermes.Option {
	opts := []hermes.Option{
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(2),
		hermes.WithMode(hermes.Unified),
		hermes.WithSeed(42),
		hermes.WithDispatch(d),
	}
	if quantum > 0 {
		opts = append(opts, hermes.WithPreemptQuantum(quantum))
	}
	return opts
}

// traceServer is what a Runtime and a Cluster share for these tests.
type traceServer interface {
	SubmitTrace(context.Context, []hermes.Arrival) ([]*hermes.Job, error)
	Close() error
}

// replayMixed replays the mixed trace on srv, closes it and returns the
// per-job reports in trace order.
func replayMixed(t *testing.T, srv traceServer) []hermes.Report {
	t.Helper()
	handles, err := srv.SubmitTrace(context.Background(), mixedTrace(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]hermes.Report, len(handles))
	for i, j := range handles {
		r, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", j.ID(), err)
		}
		reports[i] = r
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return reports
}

// dispatchRun replays the mixed trace on a 2-worker Sim machine under
// one dispatch policy and returns the per-job reports in trace order.
func dispatchRun(t *testing.T, d hermes.Dispatch, quantum hermes.Time) []hermes.Report {
	t.Helper()
	rt, err := hermes.New(dispatchOpts(d, quantum)...)
	if err != nil {
		t.Fatal(err)
	}
	return replayMixed(t, rt)
}

// clusterDispatchRun is dispatchRun on a one-machine Cluster: every job
// lands on the same 2-worker machine, so dispatch has the same queue to
// reorder.
func clusterDispatchRun(t *testing.T, d hermes.Dispatch, quantum hermes.Time) []hermes.Report {
	t.Helper()
	c, err := hermes.NewCluster(append(dispatchOpts(d, quantum), hermes.WithMachines(1))...)
	if err != nil {
		t.Fatal(err)
	}
	return replayMixed(t, c)
}

// TestDispatchDeterministicReports is the acceptance pin for the
// dispatch seam: under EVERY policy (and with preemption on), two
// identical classed traces on identical configs yield byte-identical
// per-job reports.
func TestDispatchDeterministicReports(t *testing.T) {
	cases := []struct {
		name    string
		d       hermes.Dispatch
		quantum hermes.Time
	}{
		{"fifo", hermes.DispatchFIFO, 0},
		{"priority", hermes.DispatchPriority, 0},
		{"edf", hermes.DispatchEDF, 0},
		{"edf-preempt", hermes.DispatchEDF, 20 * hermes.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := dispatchRun(t, tc.d, tc.quantum)
			b := dispatchRun(t, tc.d, tc.quantum)
			for i := range a {
				ra, rb := fmt.Sprintf("%+v", a[i]), fmt.Sprintf("%+v", b[i])
				if ra != rb {
					t.Fatalf("job %d report diverged between identical runs:\n%s\nvs\n%s", i+1, ra, rb)
				}
			}
		})
	}
}

// TestDispatchClassEchoedInReport: the submitted class must travel
// with the job and come back in its report, on both entry points.
func TestDispatchClassEchoedInReport(t *testing.T) {
	reports := dispatchRun(t, hermes.DispatchFIFO, 0)
	for i, r := range reports {
		want := "batch"
		if i >= 6 {
			want = "lc"
		}
		if r.Class.Tenant != want {
			t.Fatalf("job %d class = %+v, want tenant %q", i+1, r.Class, want)
		}
	}

	rt, err := hermes.New(hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	root, _ := leafWorkload(8)
	class := hermes.Class{Tenant: "t9", Priority: 3}
	j, err := rt.Submit(context.Background(), root, hermes.WithClass(class))
	if err != nil {
		t.Fatal(err)
	}
	r, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.Class != class {
		t.Fatalf("Submit class = %+v, want %+v", r.Class, class)
	}
}

// lcMaxSojourn is the worst sojourn among the latency-critical jobs.
func lcMaxSojourn(reports []hermes.Report) hermes.Time {
	var max hermes.Time
	for _, r := range reports {
		if r.Class.Tenant == "lc" && r.Sojourn > max {
			max = r.Sojourn
		}
	}
	return max
}

// TestRankedDispatchReordersLatencyCritical: with batch work queued
// ahead of it, a priority-1 job must finish sooner under ranked
// dispatch than under FIFO — the policies genuinely separate.
func TestRankedDispatchReordersLatencyCritical(t *testing.T) {
	fifo := lcMaxSojourn(dispatchRun(t, hermes.DispatchFIFO, 0))
	prio := lcMaxSojourn(dispatchRun(t, hermes.DispatchPriority, 0))
	edf := lcMaxSojourn(dispatchRun(t, hermes.DispatchEDF, 0))
	if prio >= fifo {
		t.Fatalf("priority dispatch did not cut the lc tail: fifo %v vs priority %v", fifo, prio)
	}
	if edf >= fifo {
		t.Fatalf("EDF dispatch did not cut the lc tail: fifo %v vs edf %v", fifo, edf)
	}
}

// TestClusterClassEchoedInReport: a Cluster carries the submitted
// class to the machine and back, on both entry points, and rejects a
// class no layer can honor. (core.Cluster.Submit once dropped it: every
// cluster job ran unclassed.)
func TestClusterClassEchoedInReport(t *testing.T) {
	for i, r := range clusterDispatchRun(t, hermes.DispatchFIFO, 0) {
		want := "batch"
		if i >= 6 {
			want = "lc"
		}
		if r.Class.Tenant != want {
			t.Fatalf("job %d class = %+v, want tenant %q", i+1, r.Class, want)
		}
	}

	c, err := hermes.NewCluster(hermes.WithMachines(2), hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, _ := leafWorkload(8)
	class := hermes.Class{Tenant: "t9", Priority: 3}
	j, err := c.Submit(context.Background(), root, hermes.WithClass(class))
	if err != nil {
		t.Fatal(err)
	}
	r, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.Class != class {
		t.Fatalf("Submit class = %+v, want %+v", r.Class, class)
	}
	bad := []hermes.Arrival{{At: 0, Task: root, Class: hermes.Class{Deadline: -1}}}
	if _, err := c.SubmitTrace(context.Background(), bad); err == nil {
		t.Fatal("SubmitTrace accepted a negative deadline")
	}
}

// TestClusterRankedDispatchReorders: ranked dispatch on a cluster's
// machines cuts the latency-critical tail below FIFO, as it does on a
// Runtime.
func TestClusterRankedDispatchReorders(t *testing.T) {
	fifo := lcMaxSojourn(clusterDispatchRun(t, hermes.DispatchFIFO, 0))
	prio := lcMaxSojourn(clusterDispatchRun(t, hermes.DispatchPriority, 0))
	edf := lcMaxSojourn(clusterDispatchRun(t, hermes.DispatchEDF, 20*hermes.Microsecond))
	if prio >= fifo {
		t.Fatalf("priority dispatch did not cut the lc tail: fifo %v vs priority %v", fifo, prio)
	}
	if edf >= fifo {
		t.Fatalf("EDF dispatch did not cut the lc tail: fifo %v vs edf %v", fifo, edf)
	}
}

// TestNativeRejectsRankedDispatch: the Native executor's intake is
// inherently FIFO; configuring a ranked policy there must fail loudly
// at construction instead of silently ignoring classes.
func TestNativeRejectsRankedDispatch(t *testing.T) {
	_, err := hermes.New(
		hermes.WithBackend(hermes.Native),
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(2),
		hermes.WithDispatch(hermes.DispatchPriority),
	)
	if err == nil {
		t.Fatal("Native runtime accepted a ranked dispatch policy")
	}
}
