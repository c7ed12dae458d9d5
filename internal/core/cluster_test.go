package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/obs"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// Inline placement policies for tests; the real policy set lives in
// internal/cluster.

// pinPlace sends every job to one machine.
type pinPlace struct{ m int }

func (p pinPlace) Place(PlacementView, *rand.Rand) int { return p.m }

// idleFirstPlace is the consolidating policy skeleton: lowest idle
// machine when one exists, least-loaded otherwise.
type idleFirstPlace struct{}

func (idleFirstPlace) Place(v PlacementView, _ *rand.Rand) int {
	if m, ok := v.IdleMachine(); ok {
		return m
	}
	best, load := 0, v.Load(0)
	for m := 1; m < v.Machines(); m++ {
		if l := v.Load(m); l < load {
			best, load = m, l
		}
	}
	return best
}

// randomPlace is uniform random, load-blind.
type randomPlace struct{}

func (randomPlace) Place(v PlacementView, rng *rand.Rand) int {
	return rng.Intn(v.Machines())
}

// traceCluster runs one fixed arrival trace through a fresh Cluster
// and returns per-job reports (trace order), errors, the observer
// stream and the fleet stats.
func traceCluster(t *testing.T, ccfg ClusterConfig, ats []units.Time, mk func(i int) wl.Task) ([]Report, []error, []obs.Event, ClusterStats) {
	t.Helper()
	reports, errs, events, c := runClusterTrace(t, ccfg, ats, mk)
	return reports, errs, events, c.Stats()
}

// runClusterTrace is traceCluster returning the closed Cluster itself.
func runClusterTrace(t *testing.T, ccfg ClusterConfig, ats []units.Time, mk func(i int) wl.Task) ([]Report, []error, []obs.Event, *Cluster) {
	t.Helper()
	rec := &recorder{}
	ccfg.Machine.Observer = rec
	c, err := NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]Report, len(ats))
	errs := make([]error, len(ats))
	var wg sync.WaitGroup
	wg.Add(len(ats))
	reqs := make([]JobRequest, len(ats))
	for i, at := range ats {
		i := i
		reqs[i] = JobRequest{
			ID:   int64(i + 1),
			At:   at,
			Root: mk(i),
			Done: func(r Report, err error) {
				reports[i], errs[i] = r, err
				wg.Done()
			},
		}
	}
	if err := c.Submit(reqs...); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return reports, errs, rec.events, c
}

// TestClusterTraceDeterminism is the cluster's reproducibility
// contract: identical (config, seed, trace) — gossip tier included —
// produce byte-identical per-job reports, observer streams and fleet
// stats across runs.
func TestClusterTraceDeterminism(t *testing.T) {
	ccfg := ClusterConfig{
		Machines:  3,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: Unified, Seed: 7},
		Placement: randomPlace{},
		Gossip:    true,
	}
	ats := make([]units.Time, 8)
	for i := range ats {
		ats[i] = units.Time(i) * 150 * units.Microsecond
	}
	mk := func(i int) wl.Task { return poolWork(16 + 8*(i%3)) }

	repA, errA, evA, stA := traceCluster(t, ccfg, ats, mk)
	repB, errB, evB, stB := traceCluster(t, ccfg, ats, mk)

	for i := range repA {
		if errA[i] != nil || errB[i] != nil {
			t.Fatalf("job %d errored: %v / %v", i+1, errA[i], errB[i])
		}
		a, b := fmt.Sprintf("%+v", repA[i]), fmt.Sprintf("%+v", repB[i])
		if a != b {
			t.Fatalf("job %d report diverged between identical runs:\n%s\nvs\n%s", i+1, a, b)
		}
	}
	if len(evA) != len(evB) {
		t.Fatalf("event streams differ in length: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, evA[i], evB[i])
		}
	}
	if a, b := fmt.Sprintf("%+v", stA), fmt.Sprintf("%+v", stB); a != b {
		t.Fatalf("fleet stats diverged between identical runs:\n%s\nvs\n%s", a, b)
	}
}

// TestClusterEventsStampMachine checks the observer stream is
// demultiplexable: overlapping jobs land on distinct machines under
// the idle-first policy and every job's events carry the machine the
// placement tier chose for it.
func TestClusterEventsStampMachine(t *testing.T) {
	ccfg := ClusterConfig{
		Machines:  3,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: Unified, Seed: 5},
		Placement: idleFirstPlace{},
	}
	ats := []units.Time{0, 40 * units.Microsecond, 80 * units.Microsecond}
	_, errs, events, st := traceCluster(t, ccfg, ats, func(int) wl.Task { return poolWork(32) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
	}
	// Three near-simultaneous arrivals through idle-first must wake
	// three distinct machines, in index order.
	jobMachine := map[int64]int{}
	for _, e := range events {
		if e.Kind == obs.JobStart {
			jobMachine[e.Job] = e.Machine
		}
	}
	for id := int64(1); id <= 3; id++ {
		if m, ok := jobMachine[id]; !ok || m != int(id-1) {
			t.Fatalf("job %d started on machine %d (present %v), want %d", id, m, ok, id-1)
		}
	}
	// Every event for a job's lifecycle is stamped with its machine.
	for _, e := range events {
		if e.Kind == obs.JobDone && e.Machine != jobMachine[e.Job] {
			t.Fatalf("job %d done on machine %d but started on %d", e.Job, e.Machine, jobMachine[e.Job])
		}
	}
	var placed int64
	for _, p := range st.Placed {
		placed += p
	}
	if placed != int64(len(ats)) || st.Completed != int64(len(ats)) {
		t.Fatalf("placed %d / completed %d, want %d", placed, st.Completed, len(ats))
	}
}

// TestClusterConsolidation pins the fleet-level energy claim: for the
// same arrival trace at moderate load, the consolidating idle-first
// policy leaves strictly more machines fully idle than load-blind
// random placement, and spends strictly fewer fleet joules per
// completed job — random's placement collisions queue jobs behind busy
// machines while idle ones burn their floor draw, stretching the
// measurement window.
func TestClusterConsolidation(t *testing.T) {
	base := ClusterConfig{
		Machines: 6,
		Machine:  Config{Spec: cpu.SystemB(), Workers: 2, Mode: Unified, Seed: 9},
	}
	ats := make([]units.Time, 10)
	for i := range ats {
		ats[i] = units.Time(i) * 400 * units.Microsecond
	}
	mk := func(int) wl.Task { return poolWork(24) }

	run := func(p Placement) ClusterStats {
		cfg := base
		cfg.Placement = p
		_, errs, _, st := traceCluster(t, cfg, ats, mk)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("job %d: %v", i+1, err)
			}
		}
		return st
	}
	cons := run(idleFirstPlace{})
	rand := run(randomPlace{})

	idleCount := func(st ClusterStats) int {
		n := 0
		for _, m := range st.Machines {
			if m.Tasks == 0 {
				n++
			}
		}
		return n
	}
	if ic, ir := idleCount(cons), idleCount(rand); ic <= ir {
		t.Fatalf("consolidation did not concentrate load: idle-first left %d machines untouched, random %d", ic, ir)
	}
	jc := cons.EnergyJ / float64(cons.Completed)
	jr := rand.EnergyJ / float64(rand.Completed)
	if jc >= jr {
		t.Fatalf("consolidation did not save energy: idle-first %.3f J/req, random %.3f J/req", jc, jr)
	}
}

// TestClusterGossipRebalances forces every job onto machine 0 and lets
// the gossip tier do all the balancing: idle peers pull unstarted jobs,
// every job still completes exactly once, and migrated jobs keep their
// original arrival in the sojourn.
func TestClusterGossipRebalances(t *testing.T) {
	ccfg := ClusterConfig{
		Machines:  3,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: Unified, Seed: 13},
		Placement: pinPlace{0},
		Gossip:    true,
	}
	ats := make([]units.Time, 6)
	for i := range ats {
		ats[i] = units.Time(i) * 10 * units.Microsecond
	}
	// Short jobs against the 500µs gossip tick: at poolWork(32)
	// machine 0 drains before a thief's backlog does and pulls a job
	// back, which the checks below forbid.
	reports, errs, events, st := traceCluster(t, ccfg, ats, func(int) wl.Task { return poolWork(16) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
		if reports[i].Tasks == 0 || reports[i].Sojourn < reports[i].Span {
			t.Fatalf("job %d report inconsistent after migration: %+v", i+1, reports[i])
		}
	}
	var migrated int64
	for m := 1; m < len(st.Migrated); m++ {
		migrated += st.Migrated[m]
	}
	if migrated == 0 {
		t.Fatalf("gossip never migrated a job off the pinned machine: %+v", st.Migrated)
	}
	if st.Migrated[0] != 0 {
		t.Fatalf("machine 0 was never idle yet pulled %d jobs", st.Migrated[0])
	}
	if st.Placed[1] != 0 || st.Placed[2] != 0 {
		t.Fatalf("placement leaked off the pinned machine: %+v", st.Placed)
	}
	// Migrated jobs' events move to the thief machine: some JobDone
	// carries Machine != 0.
	moved := false
	for _, e := range events {
		if e.Kind == obs.JobDone && e.Machine != 0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatalf("all completions still on machine 0 despite %d migrations", migrated)
	}
	if st.Completed != int64(len(ats)) {
		t.Fatalf("completed %d of %d jobs", st.Completed, len(ats))
	}
}

// TestClusterStatsSharedWindow checks the fleet ledger's accounting
// identity: every machine is snapshotted at the same virtual instant
// (the last completion) and the fleet total is exactly the sum of the
// per-machine energies — idle machines' floor draw included.
func TestClusterStatsSharedWindow(t *testing.T) {
	ccfg := ClusterConfig{
		Machines:  4,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: Unified, Seed: 3},
		Placement: idleFirstPlace{},
	}
	ats := []units.Time{0, 100 * units.Microsecond}
	_, errs, _, st := traceCluster(t, ccfg, ats, func(int) wl.Task { return poolWork(24) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
	}
	if st.Elapsed <= 0 {
		t.Fatalf("fleet window not frozen: %v", st.Elapsed)
	}
	var sum float64
	for m, ms := range st.Machines {
		if ms.Elapsed != st.Elapsed {
			t.Fatalf("machine %d snapshotted at %v, fleet at %v", m, ms.Elapsed, st.Elapsed)
		}
		if ms.EnergyJ <= 0 {
			t.Fatalf("machine %d reports no energy over a %v window", m, st.Elapsed)
		}
		sum += ms.EnergyJ
	}
	if sum != st.EnergyJ {
		t.Fatalf("fleet energy %g is not the sum of machine energies %g", st.EnergyJ, sum)
	}
	// Machines 2 and 3 never ran a job yet still drew their idle floor.
	if st.Machines[3].Tasks != 0 {
		t.Fatalf("low-load idle-first woke machine 3: %+v", st.Machines[3])
	}
}

// TestClusterConfigValidate covers the config surface: rejects and
// defaults.
func TestClusterConfigValidate(t *testing.T) {
	good := ClusterConfig{
		Machines:  2,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Seed: 1},
		Placement: idleFirstPlace{},
		Gossip:    true,
	}
	if _, err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Machines = 0
	if _, err := bad.Validate(); err == nil {
		t.Fatal("zero machines accepted")
	}
	bad = good
	bad.Placement = nil
	if _, err := bad.Validate(); err == nil {
		t.Fatal("nil placement accepted")
	}
	bad = good
	bad.Machine.Workers = -3
	if _, err := bad.Validate(); err == nil {
		t.Fatal("invalid machine config accepted")
	}
}

// TestClusterClosedRejects pins the submission lifecycle: Close is
// idempotent and a closed cluster rejects new jobs with ErrPoolClosed.
func TestClusterClosedRejects(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Machines:  2,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Seed: 1},
		Placement: idleFirstPlace{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	err = c.Submit(JobRequest{ID: 1, Root: poolWork(4), Done: func(Report, error) {}})
	if err != ErrPoolClosed {
		t.Fatalf("submit after close: %v, want ErrPoolClosed", err)
	}
}
