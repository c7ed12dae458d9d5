package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/obs"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// poolWork is a fork-join tree with enough spawns to provoke steals.
func poolWork(n int) wl.Task {
	return func(c wl.Ctx) {
		wl.For(c, 0, n, 2, func(c wl.Ctx, lo, hi int) {
			c.WorkMix(units.Cycles(200_000*(hi-lo)), 0.3)
		})
	}
}

// recorder collects the full observer stream; the engine is
// single-threaded so no locking is needed for sim observers, but the
// mutex keeps the harness reusable.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) Observe(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// oneMachine is what these tests call a pool: a Cluster of one machine
// behind a placement that has nothing to choose.
func oneMachine(cfg Config) (*Cluster, error) {
	return NewCluster(ClusterConfig{Machines: 1, Machine: cfg, Placement: pinPlace{}})
}

// lifetimeJ is the machine's total integrated energy through engine
// shutdown — the quantity per-job attributed energies partition. Valid
// after Close.
func lifetimeJ(c *Cluster) float64 {
	<-c.dead
	return c.ms[0].met.Energy()
}

// tracePool runs one fixed arrival trace through a fresh one-machine
// cluster and returns the per-job reports (trace order), errors and
// event stream.
func tracePool(t *testing.T, cfg Config, ats []units.Time, mk func(i int) wl.Task) ([]Report, []error, []obs.Event) {
	t.Helper()
	reports, errs, events, _ := traceClassed(t, cfg, ats, mk, func(int) Class { return Class{} })
	return reports, errs, events
}

// traceClassed is tracePool with a service class per job; it also
// returns the closed cluster, for its engine counters.
func traceClassed(t *testing.T, cfg Config, ats []units.Time, mk func(i int) wl.Task, class func(i int) Class) ([]Report, []error, []obs.Event, *Cluster) {
	t.Helper()
	rec := &recorder{}
	cfg.Observer = rec
	p, err := oneMachine(cfg)
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
			ID:    int64(i + 1),
			At:    at,
			Root:  mk(i),
			Class: class(i),
			Done: func(r Report, err error) {
				reports[i], errs[i] = r, err
				wg.Done()
			},
		}
	}
	if err := p.Submit(reqs...); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return reports, errs, rec.events, p
}

// TestPoolTraceDeterminism is the reproducibility contract of the
// multiplexed simulator: two pools given identical config, seed and
// arrival trace produce byte-identical per-job reports and identical
// observer event sequences.
func TestPoolTraceDeterminism(t *testing.T) {
	cfg := Config{Spec: cpu.SystemB(), Workers: 4, Mode: Unified, Seed: 11}
	ats := []units.Time{0, 200 * units.Microsecond, 450 * units.Microsecond,
		700 * units.Microsecond, 2 * units.Millisecond, 2100 * units.Microsecond}
	mk := func(i int) wl.Task { return poolWork(24 + 8*(i%3)) }

	repA, errA, evA := tracePool(t, cfg, ats, mk)
	repB, errB, evB := tracePool(t, cfg, ats, mk)

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
}

// TestPoolJobsOverlapInVirtualTime pins the point of the tentpole:
// two jobs arriving close together genuinely share the simulated
// machine — the observer stream shows the second starting before the
// first completes, and both executed work.
func TestPoolJobsOverlapInVirtualTime(t *testing.T) {
	cfg := Config{Spec: cpu.SystemB(), Workers: 4, Mode: Unified, Seed: 3}
	ats := []units.Time{0, 50 * units.Microsecond}
	reports, errs, events := tracePool(t, cfg, ats, func(int) wl.Task { return poolWork(64) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
		if reports[i].Span <= 0 || reports[i].Tasks == 0 {
			t.Fatalf("job %d did not execute: %+v", i+1, reports[i])
		}
	}
	idx := func(kind obs.Kind, job int64) int {
		for i, e := range events {
			if e.Kind == kind && e.Job == job {
				return i
			}
		}
		t.Fatalf("no %v event for job %d", kind, job)
		return -1
	}
	start2, done1 := idx(obs.JobStart, 2), idx(obs.JobDone, 1)
	if start2 > done1 {
		t.Fatalf("jobs serialized: job 2 started (event %d) only after job 1 finished (event %d)",
			start2, done1)
	}
	// Execution itself overlaps too: job 2 began running before job 1
	// completed in virtual time.
	done1At := events[done1].Time
	if start2At := reports[1].Sojourn - reports[1].Span; ats[1]+start2At >= done1At {
		t.Fatalf("no execution overlap: job 2 first ran at %v, job 1 done at %v",
			ats[1]+start2At, done1At)
	}
}

// TestPoolEnergyPartition mirrors the Native attribution test: two
// identical concurrent jobs partition the machine's joules — their sum
// does not double-count, and neither claims nearly the whole machine.
func TestPoolEnergyPartition(t *testing.T) {
	cfg := Config{Spec: cpu.SystemB(), Workers: 4, Seed: 1}
	ats := []units.Time{0, 10 * units.Microsecond}
	reports, errs, _ := tracePool(t, cfg, ats, func(int) wl.Task { return poolWork(96) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
	}
	r1, r2 := reports[0], reports[1]
	if r1.EnergyJ <= 0 || r2.EnergyJ <= 0 {
		t.Fatalf("jobs lost their energy: %g, %g", r1.EnergyJ, r2.EnergyJ)
	}
	// Total machine draw over the pool's life bounds the partition
	// (the pool is opened, runs the two jobs, and closes immediately).
	rec := &recorder{}
	cfg2 := cfg
	cfg2.Observer = rec
	p, err := oneMachine(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	sum := 0.0
	var mu sync.Mutex
	for i := range ats {
		if err := p.Submit(JobRequest{ID: int64(i + 1), At: ats[i], Root: poolWork(96),
			Done: func(r Report, err error) {
				mu.Lock()
				sum += r.EnergyJ
				mu.Unlock()
				wg.Done()
			}}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	total := lifetimeJ(p)
	if sum > total*1.05 {
		t.Fatalf("per-job energies double-count: sum=%.3fJ > machine total %.3fJ", sum, total)
	}
	if r1.EnergyJ > total*0.9 || r2.EnergyJ > total*0.9 {
		t.Fatalf("one job claimed nearly the whole machine: %.3fJ and %.3fJ of %.3fJ",
			r1.EnergyJ, r2.EnergyJ, total)
	}
}

// TestPoolSoloJobKeepsFullMachineEnergy: a job running alone is
// attributed nearly all of the machine's draw, idle cores included —
// nearly, see TestSoloJobShareBelowMachine.
func TestPoolSoloJobKeepsFullMachineEnergy(t *testing.T) {
	p, err := oneMachine(Config{Spec: cpu.SystemB(), Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	done := make(chan struct{})
	if err := p.Submit(JobRequest{ID: 1, At: 0, Root: poolWork(64),
		Done: func(r Report, err error) {
			if err != nil {
				t.Errorf("job failed: %v", err)
			}
			rep = r
			close(done)
		}}); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	total := lifetimeJ(p)
	if rep.EnergyJ < total*0.95 || rep.EnergyJ > total*1.001 {
		t.Fatalf("solo job energy %.4fJ out of band vs machine %.4fJ", rep.EnergyJ, total)
	}
	if rep.Sojourn != rep.Span {
		t.Fatalf("solo job queued? sojourn=%v span=%v", rep.Sojourn, rep.Span)
	}
}

// TestSoloJobShareBelowMachine pins what touch's attribution really
// does for a job alone on the machine: its EnergyJ is a share, at most
// the machine's joules over its window and not equal to them, because
// intervals in which no worker is Busy inside one of the job's tasks
// (a top-level pop's deque cost, every worker probing or parked on a
// join) are attributed to nobody. Measured here, share/machine − 1:
// baseline −0.3 %, workpath −0.8 %, workload −0.2 %, unified −5.0 %.
// "Σ per-job joules = machine joules" therefore holds only over
// instants some worker executes a job's task (ROADMAP 5(b)).
func TestSoloJobShareBelowMachine(t *testing.T) {
	for _, mode := range []Mode{Baseline, WorkpathOnly, WorkloadOnly, Unified} {
		reports, errs, _, st := traceCluster(t,
			ClusterConfig{Machines: 1, Placement: pinPlace{},
				Machine: Config{Spec: cpu.SystemB(), Workers: 4, Mode: mode, Seed: 11}},
			[]units.Time{0}, func(int) wl.Task { return poolWork(96) })
		if errs[0] != nil {
			t.Fatalf("%v: %v", mode, errs[0])
		}
		share, machine := reports[0].EnergyJ, st.Machines[0].EnergyJ
		t.Logf("%v: share %.6f J of machine %.6f J (%+.2f%%)", mode, share, machine, 100*(share/machine-1))
		if share > machine || share < 0.9*machine {
			t.Errorf("%v: solo job's share %.6f J outside [0.9, 1] × machine %.6f J", mode, share, machine)
		}
	}
}

// TestPoolSumOfEnergiesUnderLoad drives many overlapping jobs and pins
// the partition property at scale: the sum of attributed energies
// stays at or below the machine total (within rounding), and well
// above zero.
func TestPoolSumOfEnergiesUnderLoad(t *testing.T) {
	p, err := oneMachine(Config{Spec: cpu.SystemB(), Workers: 4, Mode: Unified, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 12
	var wg sync.WaitGroup
	wg.Add(jobs)
	var mu sync.Mutex
	sum := 0.0
	reqs := make([]JobRequest, jobs)
	for i := 0; i < jobs; i++ {
		reqs[i] = JobRequest{
			ID: int64(i + 1), At: units.Time(i) * 100 * units.Microsecond, Root: poolWork(48),
			Done: func(r Report, err error) {
				if err != nil {
					t.Errorf("job failed: %v", err)
				}
				mu.Lock()
				sum += r.EnergyJ
				mu.Unlock()
				wg.Done()
			},
		}
	}
	if err := p.Submit(reqs...); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	total := lifetimeJ(p)
	if sum > total*1.05 || sum < total*0.5 {
		t.Fatalf("attributed sum %.3fJ out of band vs machine %.3fJ", sum, total)
	}
}

// errCancelled is the cause the tests' cancellation hooks return.
var errCancelled = errors.New("test: cancelled")

// cancelledAt is a cancellation hook's answer: errCancelled once
// cancelled holds.
func cancelledAt(cancelled bool) error {
	if cancelled {
		return errCancelled
	}
	return nil
}

// TestPoolCancellation: a job cancelled mid-flight completes with its
// hook's error while a concurrent neighbour is untouched.
func TestPoolCancellation(t *testing.T) {
	p, err := oneMachine(Config{Spec: cpu.SystemB(), Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var flip bool
	leaves := 0
	var cancelErr, okErr error
	var okRep Report
	var wg sync.WaitGroup
	wg.Add(2)
	err = p.Submit(
		JobRequest{
			ID: 1, At: 0,
			Root: func(c wl.Ctx) {
				wl.For(c, 0, 4096, 1, func(c wl.Ctx, lo, hi int) {
					// Engine-goroutine state: the hook below reads it on
					// the same goroutine.
					leaves++
					if leaves == 3 {
						flip = true
					}
					c.Work(100_000)
				})
			},
			Cancelled: func() error { return cancelledAt(flip) },
			Done:      func(r Report, err error) { cancelErr = err; wg.Done() },
		},
		JobRequest{
			ID: 2, At: 0, Root: poolWork(32),
			Done: func(r Report, err error) { okRep, okErr = r, err; wg.Done() },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if cancelErr != errCancelled {
		t.Fatalf("cancelled job err = %v, want errCancelled", cancelErr)
	}
	if leaves >= 4096 {
		t.Fatalf("cancellation did not stop the job (%d leaves)", leaves)
	}
	if okErr != nil || okRep.Tasks == 0 {
		t.Fatalf("concurrent neighbour was hurt: err=%v tasks=%d", okErr, okRep.Tasks)
	}
}

// TestPoolPanicIsolation: a panicking task fails only its own job; a
// concurrent job and the pool itself survive.
func TestPoolPanicIsolation(t *testing.T) {
	p, err := oneMachine(Config{Spec: cpu.SystemB(), Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var boomErr, okErr error
	var okRep Report
	var wg sync.WaitGroup
	wg.Add(2)
	err = p.Submit(
		JobRequest{
			ID: 1, At: 0,
			Root: func(c wl.Ctx) {
				c.Go(
					func(wl.Ctx) { panic("boom") },
					func(c wl.Ctx) { c.Work(1_000_000) },
				)
			},
			Done: func(r Report, err error) { boomErr = err; wg.Done() },
		},
		JobRequest{
			ID: 2, At: 0, Root: poolWork(32),
			Done: func(r Report, err error) { okRep, okErr = r, err; wg.Done() },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if boomErr == nil || !strings.Contains(boomErr.Error(), "panicked") {
		t.Fatalf("panicking job err = %v", boomErr)
	}
	if okErr != nil || okRep.Tasks == 0 {
		t.Fatalf("neighbour died with the panicking job: err=%v tasks=%d", okErr, okRep.Tasks)
	}
	// The pool still serves jobs afterwards.
	done := make(chan error, 1)
	if err := p.Submit(JobRequest{ID: 3, At: -1, Root: poolWork(16),
		Done: func(r Report, err error) { done <- err }}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("job after panic: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSubmitAfterClose pins the lifecycle errors.
func TestPoolSubmitAfterClose(t *testing.T) {
	p, err := oneMachine(Config{Spec: cpu.SystemB(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	err = p.Submit(JobRequest{ID: 1, At: -1, Root: poolWork(8), Done: func(Report, error) {}})
	if err != ErrPoolClosed {
		t.Fatalf("submit after close err = %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestPoolCancelledFutureArrivalThenClose pins the shutdown path
// where the intake itself completes a job: an arrival scheduled in
// the future whose cancellation hook is already true is delivered and
// finished on the intake process during the Close drain — the pool
// must complete it with the hook's error and shut down cleanly, not
// panic or hang.
func TestPoolCancelledFutureArrivalThenClose(t *testing.T) {
	p, err := oneMachine(Config{Spec: cpu.SystemB(), Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	if err := p.Submit(JobRequest{
		ID: 1, At: 5 * units.Millisecond, Root: poolWork(8),
		Cancelled: func() error { return errCancelled },
		Done:      func(r Report, err error) { done <- err },
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if err != errCancelled {
			t.Fatalf("cancelled-at-arrival job err = %v, want errCancelled", err)
		}
	default:
		t.Fatal("job never completed")
	}
}

// TestPoolQueueingShowsInSojourn: on a single worker, two jobs
// arriving together cannot run together — the second job's sojourn
// must include the wait while the first holds the machine.
func TestPoolQueueingShowsInSojourn(t *testing.T) {
	cfg := Config{Spec: cpu.SystemB(), Workers: 1, Seed: 1}
	ats := []units.Time{0, 0}
	reports, errs, _ := tracePool(t, cfg, ats, func(int) wl.Task {
		return func(c wl.Ctx) { c.Work(10_000_000) } // ~2.8ms at 3.6GHz
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
	}
	r2 := reports[1]
	if wait := r2.Sojourn - r2.Span; wait < r2.Span/2 {
		t.Fatalf("second job shows no queueing delay: sojourn=%v span=%v", r2.Sojourn, r2.Span)
	}
}

// TestPoolMachineStats pins the machine-wide aggregate: energy is
// bounded by the meter's lifetime total, residency and DVFS-tier busy time are populated, and
// the scheduler totals cover every job the pool executed — quantities
// the overlapping per-job window deltas cannot provide by summation.
func TestPoolMachineStats(t *testing.T) {
	cfg := Config{Spec: cpu.SystemB(), Workers: 3, Mode: Unified, Seed: 5}
	p, err := oneMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 6
	var wg sync.WaitGroup
	wg.Add(jobs)
	reports := make([]Report, jobs)
	reqs := make([]JobRequest, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		reqs[i] = JobRequest{
			ID:   int64(i + 1),
			At:   units.Time(i) * 20 * units.Microsecond,
			Root: poolWork(12),
			Done: func(r Report, err error) {
				if err != nil {
					t.Errorf("job %d failed: %v", i+1, err)
				}
				reports[i] = r
				wg.Done()
			},
		}
	}
	if err := p.Submit(reqs...); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ms := p.Stats().Machines[0]
	// MachineStats freezes at the last job completion; the shutdown
	// meter keeps integrating idle draw until Close lands, so the
	// lifetime figure bounds it from above.
	if ms.EnergyJ <= 0 || ms.EnergyJ > lifetimeJ(p) {
		t.Errorf("MachineStats energy %g outside (0, lifetime %g]", ms.EnergyJ, lifetimeJ(p))
	}
	if ms.Elapsed <= 0 || ms.Busy <= 0 {
		t.Fatalf("degenerate machine stats: %+v", ms)
	}
	var lastDone units.Time
	for i, r := range reports {
		if done := reqs[i].At + r.Sojourn; done > lastDone {
			lastDone = done
		}
	}
	if ms.Elapsed != lastDone {
		t.Errorf("MachineStats elapsed %v != last completion %v", ms.Elapsed, lastDone)
	}
	if len(ms.FreqBusy) == 0 {
		t.Error("no DVFS-tier residency recorded")
	}
	var tierBusy units.Time
	for _, d := range ms.FreqBusy {
		tierBusy += d
	}
	if tierBusy != ms.Busy {
		t.Errorf("tier residency sums to %v, busy time is %v", tierBusy, ms.Busy)
	}
	var tasks, spawns, steals int64
	for _, r := range reports {
		tasks += r.Tasks
		spawns += r.Spawns
		steals += r.Steals
	}
	if ms.Tasks != tasks || ms.Spawns != spawns {
		t.Errorf("machine tasks/spawns %d/%d != per-job sums %d/%d", ms.Tasks, ms.Spawns, tasks, spawns)
	}
	if ms.Steals < steals {
		t.Errorf("machine steals %d below per-job sum %d", ms.Steals, steals)
	}
}
