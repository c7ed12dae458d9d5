package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// crashConfig is the standard two-machine crash scenario: everything
// pinned to machine 0, which fail-stops mid-trace and rejoins later,
// so every in-flight job must recover onto machine 1.
func crashConfig() ClusterConfig {
	return ClusterConfig{
		Machines:  2,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: Unified, Seed: 11},
		Placement: pinPlace{0},
		Faults: []FaultEvent{
			{At: 60 * units.Microsecond, Machine: 0, Kind: FaultCrash},
			{At: 2 * units.Millisecond, Machine: 0, Kind: FaultRejoin},
		},
	}
}

// TestClusterCrashReplacesJobs is the recovery contract: a machine
// crashing mid-job evicts its work, the cluster re-places it on the
// survivor, and every job completes with its retry history recorded —
// nothing is lost under the default budget.
func TestClusterCrashReplacesJobs(t *testing.T) {
	ats := make([]units.Time, 5)
	for i := range ats {
		ats[i] = units.Time(i) * 20 * units.Microsecond
	}
	reports, errs, _, st := traceCluster(t, crashConfig(), ats, func(int) wl.Task { return poolWork(24) })
	var retried int64
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d not recovered: %v", i+1, err)
		}
		retried += reports[i].Retries
		if reports[i].Retries > 0 {
			// A retried job's placement history must span both machines:
			// first the crashed 0, finally the surviving 1.
			pl := reports[i].Placements
			if len(pl) < 2 || pl[0] != 0 || pl[len(pl)-1] != 1 {
				t.Fatalf("job %d retried with placements %v, want 0 ... 1", i+1, pl)
			}
			if reports[i].Sojourn < reports[i].Span {
				t.Fatalf("job %d sojourn %v < span %v after retry", i+1, reports[i].Sojourn, reports[i].Span)
			}
		}
	}
	if retried == 0 {
		t.Fatal("crash at 60µs mid-trace evicted no running job")
	}
	if st.Crashes != 1 || st.Rejoins != 1 {
		t.Fatalf("ledger crashes=%d rejoins=%d, want 1/1", st.Crashes, st.Rejoins)
	}
	if st.Retries != retried {
		t.Fatalf("ledger retries=%d, reports sum %d", st.Retries, retried)
	}
	if st.Lost != 0 {
		t.Fatalf("lost %d jobs under default retry budget", st.Lost)
	}
	if st.Completed != int64(len(ats)) {
		t.Fatalf("completed %d of %d", st.Completed, len(ats))
	}
	if st.Goodput != 1 {
		t.Fatalf("goodput %g with nothing lost", st.Goodput)
	}
	if len(st.Downtime) != 2 || st.Downtime[0] <= 0 || st.Downtime[1] != 0 {
		t.Fatalf("downtime ledger %v, want machine 0 down and machine 1 clean", st.Downtime)
	}
}

// TestClusterCrashDeterminism extends the reproducibility contract to
// chaos: identical (config, seed, trace, fault plan) produce
// byte-identical per-job reports and fleet stats, crashes included.
func TestClusterCrashDeterminism(t *testing.T) {
	ats := make([]units.Time, 5)
	for i := range ats {
		ats[i] = units.Time(i) * 20 * units.Microsecond
	}
	mk := func(int) wl.Task { return poolWork(24) }
	repA, errA, evA, stA := traceCluster(t, crashConfig(), ats, mk)
	repB, errB, evB, stB := traceCluster(t, crashConfig(), ats, mk)
	for i := range repA {
		if !errors.Is(errA[i], errB[i]) && !errors.Is(errB[i], errA[i]) {
			t.Fatalf("job %d errors diverged: %v vs %v", i+1, errA[i], errB[i])
		}
		a, b := fmt.Sprintf("%+v", repA[i]), fmt.Sprintf("%+v", repB[i])
		if a != b {
			t.Fatalf("job %d report diverged under faults:\n%s\nvs\n%s", i+1, a, b)
		}
	}
	if len(evA) != len(evB) {
		t.Fatalf("event streams differ in length: %d vs %d", len(evA), len(evB))
	}
	if a, b := fmt.Sprintf("%+v", stA), fmt.Sprintf("%+v", stB); a != b {
		t.Fatalf("fleet stats diverged under faults:\n%s\nvs\n%s", a, b)
	}
}

// TestClusterCrashGatesEnergy pins the fail-stop power model: the same
// trace costs measurably less fleet energy when a machine spends a long
// window dead (zero draw) than when the fleet stays up throughout.
func TestClusterCrashGatesEnergy(t *testing.T) {
	ats := []units.Time{0, 20 * units.Microsecond}
	mk := func(int) wl.Task { return poolWork(16) }
	base := crashConfig()
	base.Faults = nil
	_, errs, _, live := traceCluster(t, base, ats, mk)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fault-free job %d: %v", i+1, err)
		}
	}
	crashed := crashConfig()
	// Machine 0 dies almost immediately and stays down past the last
	// completion; machine 1 does all the work while 0 draws nothing.
	crashed.Faults = []FaultEvent{{At: 10 * units.Microsecond, Machine: 0, Kind: FaultCrash}}
	_, errs, _, dead := traceCluster(t, crashed, ats, mk)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("crash-run job %d: %v", i+1, err)
		}
	}
	if dead.Machines[0].EnergyJ >= live.Machines[0].EnergyJ {
		t.Fatalf("dead machine drew %.4f J, live one %.4f J — meter not gated",
			dead.Machines[0].EnergyJ, live.Machines[0].EnergyJ)
	}
}

// TestClusterRetryBudgetLoses: with the whole fleet down for good and
// no rejoin in the plan, jobs fail with ErrJobLost, the loss ledger
// counts them, and goodput reflects the damage.
func TestClusterRetryBudgetLoses(t *testing.T) {
	cfg := ClusterConfig{
		Machines:  1,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: Unified, Seed: 19},
		Placement: pinPlace{0},
		Faults:    []FaultEvent{{At: 30 * units.Microsecond, Machine: 0, Kind: FaultCrash}},
	}
	ats := []units.Time{0, 10 * units.Microsecond, 5 * units.Millisecond}
	reports, errs, _, st := traceCluster(t, cfg, ats, func(int) wl.Task { return poolWork(24) })
	var lost int64
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrJobLost) {
			t.Fatalf("job %d failed with %v, want ErrJobLost", i+1, err)
		}
		lost++
		if reports[i].Retries == 0 && reports[i].Tasks != 0 {
			t.Fatalf("job %d lost with inconsistent report %+v", i+1, reports[i])
		}
	}
	if lost == 0 {
		t.Fatal("single-machine crash with no rejoin lost nothing")
	}
	if st.Lost != lost {
		t.Fatalf("ledger lost=%d, %d jobs saw ErrJobLost", st.Lost, lost)
	}
	if st.Completed+st.Lost != int64(len(ats)) {
		t.Fatalf("completed %d + lost %d != submitted %d", st.Completed, st.Lost, len(ats))
	}
	if st.Goodput >= 1 {
		t.Fatalf("goodput %g after losing %d jobs", st.Goodput, lost)
	}
}

// TestClusterFailslowStretchesSpan: a work-inflation straggler fault
// makes the same job measurably slower than its fault-free twin, and a
// recover event ends the episode.
func TestClusterFailslowStretchesSpan(t *testing.T) {
	run := func(faults []FaultEvent) Report {
		cfg := ClusterConfig{
			Machines:  1,
			Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: Unified, Seed: 23},
			Placement: pinPlace{0},
			Faults:    faults,
		}
		reports, errs, _, _ := traceCluster(t, cfg, []units.Time{0}, func(int) wl.Task { return poolWork(24) })
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		return reports[0]
	}
	clean := run(nil)
	slowed := run([]FaultEvent{{At: 10 * units.Microsecond, Machine: 0, Kind: FaultSlow, Factor: 4}})
	if slowed.Span <= clean.Span {
		t.Fatalf("4× straggler span %v not above fault-free span %v", slowed.Span, clean.Span)
	}
	recovered := run([]FaultEvent{
		{At: 10 * units.Microsecond, Machine: 0, Kind: FaultSlow, Factor: 4},
		{At: 30 * units.Microsecond, Machine: 0, Kind: FaultRecover},
	})
	if recovered.Span >= slowed.Span {
		t.Fatalf("recovered span %v not below permanently-slowed span %v", recovered.Span, slowed.Span)
	}
}

// TestClusterFaultValidate covers the fault-config surface: bad
// machine indices, times, kinds and factors all fail Validate.
func TestClusterFaultValidate(t *testing.T) {
	good := ClusterConfig{
		Machines:  2,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Seed: 1},
		Placement: pinPlace{0},
		Faults:    []FaultEvent{{At: 1, Machine: 1, Kind: FaultCrash}},
	}
	if _, err := good.Validate(); err != nil {
		t.Fatalf("valid fault config rejected: %v", err)
	}
	for _, bad := range []func(*ClusterConfig){
		func(c *ClusterConfig) { c.Faults = []FaultEvent{{Machine: 2, Kind: FaultCrash}} },
		func(c *ClusterConfig) { c.Faults = []FaultEvent{{Machine: -1, Kind: FaultCrash}} },
		func(c *ClusterConfig) { c.Faults = []FaultEvent{{At: -1, Machine: 0, Kind: FaultCrash}} },
		func(c *ClusterConfig) { c.Faults = []FaultEvent{{Machine: 0, Kind: FaultKind(9)}} },
		func(c *ClusterConfig) { c.Faults = []FaultEvent{{Machine: 0, Kind: FaultSlow, Factor: 0.5}} },
	} {
		cfg := good
		bad(&cfg)
		if _, err := cfg.Validate(); err == nil {
			t.Fatalf("invalid fault config accepted: %+v", cfg)
		}
	}
	// Events are replayed sorted regardless of input order.
	shuffled := good
	shuffled.Faults = []FaultEvent{
		{At: 9, Machine: 1, Kind: FaultRejoin},
		{At: 3, Machine: 0, Kind: FaultCrash},
	}
	v, err := shuffled.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.Faults[0].At != 3 || v.Faults[1].At != 9 {
		t.Fatalf("fault plan not sorted: %+v", v.Faults)
	}
}

// panicPlace drives the engine into failRemaining mid-trace.
type panicPlace struct{ after int }

func (p *panicPlace) Place(PlacementView, *rand.Rand) int {
	if p.after--; p.after < 0 {
		panic("placement exploded")
	}
	return 0
}

// TestClusterCloseWithInflight pins failRemaining: when the engine
// dies with jobs still in flight, every outstanding job completes with
// the crash cause instead of hanging, and Close reports it.
func TestClusterCloseWithInflight(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Machines:  2,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Seed: 29},
		Placement: &panicPlace{after: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 5
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	wg.Add(jobs)
	reqs := make([]JobRequest, jobs)
	for i := range reqs {
		i := i
		reqs[i] = JobRequest{
			ID:   int64(i + 1),
			At:   units.Time(i) * 50 * units.Microsecond,
			Root: poolWork(16),
			Done: func(_ Report, err error) {
				errs[i] = err
				wg.Done()
			},
		}
	}
	if err := c.Submit(reqs...); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	var failed int
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("engine panic failed no jobs")
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close reported success after an engine panic")
	}
}
