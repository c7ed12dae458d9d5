package hermes_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"hermes"
	"hermes/internal/sweep"
	"hermes/internal/workload"
)

// TestClusterServesTrace drives the public multi-machine API end to
// end: a fleet behind power-of-two-choices serves an arrival trace,
// every job reports, and the fleet ledger adds up.
func TestClusterServesTrace(t *testing.T) {
	c, err := hermes.NewCluster(
		hermes.WithMachines(4),
		hermes.WithPlacement(hermes.PlacementPowerOfChoices(2)),
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(2),
		hermes.WithMode(hermes.Unified),
		hermes.WithSeed(17),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Machines() != 4 {
		t.Fatalf("Machines() = %d, want 4", c.Machines())
	}
	root, _ := leafWorkload(32)
	var arrivals []hermes.Arrival
	for i := 0; i < 6; i++ {
		arrivals = append(arrivals, hermes.Arrival{At: hermes.Time(i) * 80 * hermes.Microsecond, Task: root})
	}
	jobs, err := c.SubmitTrace(context.Background(), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		rep, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
		if rep.Tasks == 0 || rep.EnergyJ <= 0 {
			t.Fatalf("job %d degenerate report: %+v", i+1, rep)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.ClusterStats()
	if st.Completed != int64(len(arrivals)) {
		t.Fatalf("completed %d of %d", st.Completed, len(arrivals))
	}
	if len(st.Machines) != 4 || len(st.Placed) != 4 {
		t.Fatalf("fleet shape wrong: %d machines, %d placed slots", len(st.Machines), len(st.Placed))
	}
	var placed int64
	var energy float64
	for m, ms := range st.Machines {
		if ms.Elapsed != st.Elapsed {
			t.Fatalf("machine %d window %v, fleet %v", m, ms.Elapsed, st.Elapsed)
		}
		placed += st.Placed[m]
		energy += ms.EnergyJ
	}
	if placed != st.Completed {
		t.Fatalf("placed %d jobs but completed %d", placed, st.Completed)
	}
	if energy != st.EnergyJ || st.EnergyJ <= 0 {
		t.Fatalf("fleet energy %g, machine sum %g", st.EnergyJ, energy)
	}
}

// TestClusterDeterministicReports: the public API keeps the simulator
// contract — identical options and trace give identical reports.
func TestClusterDeterministicReports(t *testing.T) {
	run := func() []string {
		c, err := hermes.NewCluster(
			hermes.WithMachines(3),
			hermes.WithPlacement(hermes.PlacementGossip()),
			hermes.WithSpec(hermes.SystemB()),
			hermes.WithWorkers(2),
			hermes.WithMode(hermes.Unified),
			hermes.WithSeed(23),
		)
		if err != nil {
			t.Fatal(err)
		}
		root, _ := leafWorkload(24)
		var arrivals []hermes.Arrival
		for i := 0; i < 5; i++ {
			arrivals = append(arrivals, hermes.Arrival{At: hermes.Time(i) * 60 * hermes.Microsecond, Task: root})
		}
		jobs, err := c.SubmitTrace(context.Background(), arrivals)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, j := range jobs {
			rep, err := j.Wait()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%+v", rep))
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d diverged between identical runs:\n%s\nvs\n%s", i+1, a[i], b[i])
		}
	}
}

// TestClusterOptionValidation: bad fleet sizes and policies fail fast,
// and the defaults are one machine behind p2c. (Which backend accepts
// which option is TestCapabilityMatrix.)
func TestClusterOptionValidation(t *testing.T) {
	if _, err := hermes.NewCluster(hermes.WithMachines(0)); err == nil {
		t.Fatal("NewCluster accepted zero machines")
	}
	if _, err := hermes.NewCluster(hermes.WithPlacement(hermes.Placement{Kind: "spray"})); err == nil {
		t.Fatal("NewCluster accepted an unknown policy kind")
	}
	if _, err := hermes.ParsePlacement("spray"); err == nil {
		t.Fatal("ParsePlacement accepted an unknown policy")
	}
	p, err := hermes.ParsePlacement("p3c")
	if err != nil || p.Choices != 3 {
		t.Fatalf("ParsePlacement(p3c) = %+v, %v", p, err)
	}
	// Defaults: a one-machine cluster with the default policy works.
	c, err := hermes.NewCluster(hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Machines() != 1 {
		t.Fatalf("default fleet size %d, want 1", c.Machines())
	}
	if got := c.Placement().String(); got != "p2c" {
		t.Fatalf("default policy %q, want p2c", got)
	}
	rep, err := c.Run(context.Background(), func(ctx hermes.Ctx) { ctx.Work(1000) })
	if err != nil || rep.Tasks == 0 {
		t.Fatalf("single-machine cluster run: %+v, %v", rep, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOneMachineClusterEqualsRuntime pins what the one Sim front door
// rests on: a Sim Runtime IS a Cluster, one machine by default. The
// same options, seed and classed trace give byte-identical reports,
// errors, observer streams and fleet ledgers through New and through
// NewCluster, in every tempo mode and under every dispatch policy, and
// on a three-machine fleet that loses a machine mid-trace. The first
// arrival lands at t = 0, before the workers' first events: whether it
// overtakes their start-up spin-down is decided by process creation
// order, the one thing two constructors could silently disagree on —
// so this is the test that fails if a second path ever grows back.
func TestOneMachineClusterEqualsRuntime(t *testing.T) {
	arrivals, err := sweep.TraceArrivals(workload.Spec{Kind: "ticks", N: 64}, "mix", 2000, 20*time.Millisecond, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 20 {
		t.Fatalf("trace too short to mean anything: %d arrivals", len(arrivals))
	}
	arrivals[0].At = 0

	dump := func(mk func(...hermes.Option) (*hermes.Runtime, error), opts []hermes.Option) (string, hermes.ClusterStats) {
		var b strings.Builder
		var events []hermes.Event
		opts = append(opts, hermes.WithObserver(hermes.ObserverFunc(func(ev hermes.Event) { events = append(events, ev) })))
		srv, err := mk(opts...)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := srv.SubmitTrace(context.Background(), arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			rep, err := j.Wait()
			fmt.Fprintf(&b, "report %d err=%v\n%#v\n", i, err, rep)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		st := srv.ClusterStats()
		fmt.Fprintf(&b, "stats %#v\n", st)
		for i, ev := range events {
			fmt.Fprintf(&b, "event %d %#v\n", i, ev)
		}
		return b.String(), st
	}
	newRuntime := func(opts ...hermes.Option) (*hermes.Runtime, error) {
		return hermes.New(append(opts, hermes.WithBackend(hermes.Sim))...)
	}
	// same fails the test where the two dumps first differ. Reports are
	// long lines: show where the differing one starts, not all of it.
	same := func(t *testing.T, rt, cl string) {
		if rt == cl {
			return
		}
		a, b := strings.Split(rt, "\n"), strings.Split(cl, "\n")
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("New and NewCluster diverge at line %d of %d/%d:\nruntime: %.400s\ncluster: %.400s",
					i, len(a), len(b), a[i], b[i])
			}
		}
		t.Fatalf("dumps agree for %d lines, then runtime has %d and cluster %d", min(len(a), len(b)), len(a), len(b))
	}
	dispatches := []struct {
		name    string
		d       hermes.Dispatch
		quantum hermes.Time
	}{
		{"fifo", hermes.DispatchFIFO, 0},
		{"priority", hermes.DispatchPriority, 0},
		{"edf-preempt", hermes.DispatchEDF, 50 * hermes.Microsecond},
	}
	for _, mode := range []hermes.Mode{hermes.Baseline, hermes.WorkpathOnly, hermes.WorkloadOnly, hermes.Unified} {
		for _, dc := range dispatches {
			t.Run(fmt.Sprintf("%v/%s", mode, dc.name), func(t *testing.T) {
				opts := func() []hermes.Option {
					o := []hermes.Option{hermes.WithWorkers(4), hermes.WithMode(mode), hermes.WithSeed(9), hermes.WithDispatch(dc.d)}
					if dc.quantum > 0 {
						o = append(o, hermes.WithPreemptQuantum(dc.quantum))
					}
					return o
				}
				rt, _ := dump(newRuntime, opts())
				cl, _ := dump(hermes.NewCluster, append(opts(), hermes.WithMachines(1)))
				same(t, rt, cl)
			})
		}
	}
	t.Run("fleet", func(t *testing.T) {
		opts := func() []hermes.Option {
			return []hermes.Option{
				hermes.WithWorkers(4), hermes.WithMode(hermes.Unified), hermes.WithSeed(9),
				hermes.WithDispatch(hermes.DispatchEDF), hermes.WithPreemptQuantum(50 * hermes.Microsecond),
				hermes.WithMachines(3), hermes.WithPlacement(hermes.PlacementJSQ()),
				hermes.WithFaults(
					hermes.FaultEvent{At: 4 * hermes.Millisecond, Machine: 0, Kind: hermes.FaultCrash},
					hermes.FaultEvent{At: 11 * hermes.Millisecond, Machine: 0, Kind: hermes.FaultRejoin}),
			}
		}
		rt, st := dump(newRuntime, opts())
		if st.Crashes != 1 || st.Retries == 0 {
			t.Fatalf("the crash evicted nothing, so this compares two fault-free runs: %+v", st)
		}
		cl, _ := dump(hermes.NewCluster, opts())
		same(t, rt, cl)
	})
}
