package rt

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/job"
	"hermes/internal/obs"
	"hermes/internal/units"
	"hermes/internal/wl"
	"hermes/internal/workload"
)

// run executes root as a single job on a fresh pool and tears the pool
// down.
func run(cfg core.Config, root wl.Task) (core.Report, error) {
	e, err := NewExec(cfg)
	if err != nil {
		return core.Report{}, err
	}
	defer e.Close()
	j, err := e.Submit(context.Background(), root, core.Class{})
	if err != nil {
		return core.Report{}, err
	}
	return j.Wait()
}

func TestEveryTaskRunsOnce(t *testing.T) {
	const n = 400
	var counts [n]atomic.Int32
	r, err := run(core.Config{Spec: cpu.SystemB(), Workers: 4, Mode: core.Unified, Seed: 1}, func(c wl.Ctx) {
		wl.For(c, 0, n, 4, func(c wl.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
			c.Work(units.Cycles(100_000 * (hi - lo)))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("element %d ran %d times", i, got)
		}
	}
	if r.Tasks == 0 || r.Span <= 0 || r.EnergyJ <= 0 {
		t.Fatalf("bad report: %+v", r)
	}
	if r.System != "SystemB" || r.Mode != core.Unified || r.Workers != 4 {
		t.Fatalf("unified report fields wrong: %+v", r)
	}
}

func TestRealParallelism(t *testing.T) {
	// With 4 workers and plenty of independent leaves, several workers
	// must actually execute tasks (worker ids observed > 1).
	var seen [4]atomic.Int32
	_, err := run(core.Config{Spec: cpu.SystemB(), Workers: 4, Seed: 2}, func(c wl.Ctx) {
		wl.For(c, 0, 64, 1, func(c wl.Ctx, lo, hi int) {
			seen[c.Worker()].Add(1)
			c.Work(2_000_000)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	workersUsed := 0
	for i := range seen {
		if seen[i].Load() > 0 {
			workersUsed++
		}
	}
	if workersUsed < 2 {
		t.Fatalf("only %d workers executed tasks", workersUsed)
	}
}

func TestNestedBlocks(t *testing.T) {
	var leaves atomic.Int32
	var tree func(d int) wl.Task
	tree = func(d int) wl.Task {
		return func(c wl.Ctx) {
			if d == 0 {
				leaves.Add(1)
				c.Work(50_000)
				return
			}
			c.Go(tree(d-1), tree(d-1))
		}
	}
	if _, err := run(core.Config{Spec: cpu.SystemB(), Workers: 4, Mode: core.Unified, Seed: 3}, tree(7)); err != nil {
		t.Fatal(err)
	}
	if got := leaves.Load(); got != 128 {
		t.Fatalf("leaves = %d, want 128", got)
	}
}

func TestAllModesComplete(t *testing.T) {
	for _, mode := range []core.Mode{core.Baseline, core.WorkpathOnly, core.WorkloadOnly, core.Unified} {
		work := func(c wl.Ctx) {
			wl.For(c, 0, 128, 2, func(c wl.Ctx, lo, hi int) {
				c.WorkMix(units.Cycles(300_000*(hi-lo)), 0.7)
			})
		}
		r, err := run(core.Config{Spec: cpu.SystemB(), Workers: 4, Mode: mode, Seed: 4}, work)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.EnergyJ <= 0 {
			t.Fatalf("%v: no energy accounted", mode)
		}
		if mode == core.Baseline && r.TempoSwitches != 0 {
			t.Fatalf("baseline made %d tempo switches", r.TempoSwitches)
		}
		// No timing assertion: wall-clock on shared CI is not a meter.
	}
}

func TestSingleWorker(t *testing.T) {
	var ran atomic.Int32
	_, err := run(core.Config{Spec: cpu.SystemB(), Workers: 1, Mode: core.Unified, Seed: 5}, func(c wl.Ctx) {
		c.Go(
			func(wl.Ctx) { ran.Add(1) },
			func(wl.Ctx) { ran.Add(1) },
			func(wl.Ctx) { ran.Add(1) },
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran = %d, want 3", got)
	}
}

func TestWorkerValidation(t *testing.T) {
	if _, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 5}); err == nil {
		t.Fatal("expected error for too many workers")
	}
	if _, err := run(core.Config{Spec: cpu.SystemB(), Workers: 5}, func(wl.Ctx) {}); err == nil {
		t.Fatal("expected error from Run for too many workers")
	}
}

func TestMultiJobSubmission(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 4, Mode: core.Unified, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const jobs, leaves = 5, 32
	counters := make([]atomic.Int32, jobs)
	var subs []*job.Job
	for i := 0; i < jobs; i++ {
		i := i
		j, err := e.Submit(context.Background(), func(c wl.Ctx) {
			wl.For(c, 0, leaves, 1, func(c wl.Ctx, lo, hi int) {
				counters[i].Add(int32(hi - lo))
				c.Work(200_000)
			})
		}, core.Class{})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, j)
	}
	seenIDs := map[int64]bool{}
	for i, j := range subs {
		r, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if counters[i].Load() != leaves {
			t.Fatalf("job %d ran %d/%d leaves", i, counters[i].Load(), leaves)
		}
		if r.Tasks == 0 || r.Span <= 0 {
			t.Fatalf("job %d bad report: %+v", i, r)
		}
		if seenIDs[j.ID()] {
			t.Fatalf("duplicate job id %d", j.ID())
		}
		seenIDs[j.ID()] = true
	}
}

func TestJobCancellation(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 2, Mode: core.Baseline, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var ran atomic.Int32
	j, err := e.Submit(ctx, func(c wl.Ctx) {
		wl.For(c, 0, 10_000, 1, func(c wl.Ctx, lo, hi int) {
			ran.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			c.Mem(500 * units.Microsecond)
		})
	}, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job did not drain")
	}
	if _, err := j.Wait(); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10_000 {
		t.Fatalf("cancellation did not stop the job (ran %d leaves)", n)
	}
}

func TestTaskPanicFailsOnlyItsJob(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 2, Mode: core.Unified, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	bad, err := e.Submit(context.Background(), func(c wl.Ctx) {
		c.Go(
			func(wl.Ctx) { panic("boom") },
			func(c wl.Ctx) { c.Work(100_000) },
		)
	}, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	good, err := e.Submit(context.Background(), func(c wl.Ctx) {
		wl.For(c, 0, 16, 1, func(c wl.Ctx, lo, hi int) {
			ran.Add(1)
			c.Work(100_000)
		})
	}, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job err = %v", err)
	}
	if _, err := good.Wait(); err != nil {
		t.Fatalf("good job failed after neighbour panic: %v", err)
	}
	if ran.Load() != 16 {
		t.Fatalf("good job ran %d/16 leaves", ran.Load())
	}
}

func TestPreCancelledSubmit(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	j, err := e.Submit(ctx, func(wl.Ctx) { ran.Add(1) }, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	r, werr := j.Wait()
	if werr != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", werr)
	}
	if ran.Load() != 0 || r.Tasks != 0 {
		t.Fatalf("pre-cancelled job executed work (ran=%d tasks=%d)", ran.Load(), r.Tasks)
	}
}

func TestNativeDefaultWorkersClampedToHost(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want := runtime.GOMAXPROCS(0)
	if d := cpu.SystemB().Domains(); want > d {
		want = d
	}
	if got := e.Config().Workers; got != want {
		t.Fatalf("default native workers = %d, want min(GOMAXPROCS, domains) = %d", got, want)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), func(wl.Ctx) {}, core.Class{}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Submit(context.Background(), nil, core.Class{}); err != ErrClosed && err != ErrNilTask {
		t.Fatalf("nil task after close: %v", err)
	}
	// A cancelled context must not smuggle a submission past Close.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(cctx, func(wl.Ctx) {}, core.Class{}); err != ErrClosed {
		t.Fatalf("cancelled-ctx submit after close: err = %v, want ErrClosed", err)
	}
}

func TestConcurrentClose(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), func(c wl.Ctx) { c.Work(1_000_000) }, core.Class{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentJobEnergyPartition pins the worker-time-weighted
// energy attribution: concurrent jobs share the machine's modeled
// energy instead of each claiming the whole draw over its span. With
// span-delta attribution two fully-overlapping jobs would each report
// ~the machine total (sum ~2x); weighted attribution keeps the sum at
// ~1x.
func TestConcurrentJobEnergyPartition(t *testing.T) {
	e, err := NewExec(core.Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	work := func(c wl.Ctx) {
		wl.For(c, 0, 16, 1, func(c wl.Ctx, lo, hi int) {
			c.Work(50_000_000) // ~20ms at 2.4GHz per element
		})
	}
	machineStart := e.snapshot()
	j1, err := e.Submit(context.Background(), work, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := e.Submit(context.Background(), work, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	machineEnd := e.snapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if r1.EnergyJ <= 0 || r2.EnergyJ <= 0 {
		t.Fatalf("jobs lost their energy: %g, %g", r1.EnergyJ, r2.EnergyJ)
	}
	for _, r := range []core.Report{r1, r2} {
		checkRendered(t, r)
	}
	total := machineEnd.Joules - machineStart.Joules
	sum := r1.EnergyJ + r2.EnergyJ
	if sum > total*1.05 {
		t.Fatalf("per-job energies double-count: sum=%.3fJ > machine total %.3fJ", sum, total)
	}
	// The two identical overlapping jobs should also split the energy
	// roughly evenly — neither claims the whole machine.
	if r1.EnergyJ > total*0.9 || r2.EnergyJ > total*0.9 {
		t.Fatalf("one job claimed nearly the whole machine: %.3fJ and %.3fJ of %.3fJ",
			r1.EnergyJ, r2.EnergyJ, total)
	}
}

// checkRendered asserts the identities of a report rendered from the
// residency ledger: busy time summed by frequency and over workers is
// the report's busy time, and so is slow busy time over workers.
func checkRendered(t *testing.T, r core.Report) {
	t.Helper()
	var byFreq, byWorker, slowByWorker units.Time
	for _, d := range r.FreqBusy {
		byFreq += d
	}
	for _, pw := range r.PerWorker {
		byWorker += pw.Busy
		slowByWorker += pw.SlowBusy
	}
	if byFreq != r.BusyTime || byWorker != r.BusyTime || slowByWorker != r.SlowBusyTime {
		t.Fatalf("job %v: busy %v, by frequency %v, by worker %v; slow busy %v, by worker %v",
			r, r.BusyTime, byFreq, byWorker, r.SlowBusyTime, slowByWorker)
	}
}

// TestSoloJobKeepsFullMachineEnergy: a job running alone still owns
// the whole machine's draw over its span (idle cores included), as
// before the weighted attribution.
func TestSoloJobKeepsFullMachineEnergy(t *testing.T) {
	e, err := NewExec(core.Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := e.snapshot()
	j, err := e.Submit(context.Background(), func(c wl.Ctx) {
		wl.For(c, 0, 8, 1, func(c wl.Ctx, lo, hi int) {
			c.Work(50_000_000)
		})
	}, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	end := e.snapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	total := end.Joules - start.Joules
	if r.EnergyJ < total*0.80 || r.EnergyJ > total*1.01 {
		t.Fatalf("solo job energy %.3fJ out of band vs machine %.3fJ", r.EnergyJ, total)
	}
}

// TestAccountingResidencyContinuity pins the per-worker lock-free
// accounting against wall-clock continuity: over any window, each
// worker's busy+spin+idle residency must cover the window — the fold
// extends the in-flight interval to "now", so no time may leak
// between transitions.
func TestAccountingResidencyContinuity(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 4, Mode: core.Unified, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	t0 := e.nowNS()
	s0 := e.snapshot()
	j, err := e.Submit(context.Background(), func(c wl.Ctx) {
		wl.For(c, 0, 32, 1, func(c wl.Ctx, lo, hi int) {
			c.Work(20_000_000) // ~8ms at 2.4GHz
		})
	}, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	s1 := e.snapshot()
	t1 := e.nowNS()
	window := units.Time(t1-t0) * units.Nanosecond
	for i, pw := range s1.Since(&s0, e.cfg.Freqs).PerWorker {
		covered := pw.Busy + pw.Spin + pw.Idle
		// The two snapshots bracket [t0, t1] loosely (each worker is
		// folded at a slightly different instant), so allow a few
		// percent of slack in both directions.
		if covered < window*9/10 || covered > window*11/10 {
			t.Fatalf("worker %d residency %v does not cover window %v", i, covered, window)
		}
	}
}

// TestAccountingSampledEquivalence is the accounting-equivalence
// contract: an independent old-style integrator — periodically
// sampling every worker's published (state, freq) word and summing
// watts·dt, exactly how the pre-lock-free meter integrated under its
// global mutex — must agree with the exact folded energy on a solo
// job within sampling tolerance. This pins that the published words
// track the real state trajectory and that the residency matrices the
// fold integrates match them.
func TestAccountingSampledEquivalence(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 4, Mode: core.Baseline, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	stop := make(chan struct{})
	done := make(chan float64)
	start := e.snapshot()
	go func() {
		var joules float64
		last := e.nowNS()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- joules
				return
			case <-tick.C:
			}
			watts := e.baseWatts
			for _, w := range e.workers {
				st, fi, _ := unpackAcct(w.acct.word.Load())
				watts += e.watts[st-1][fi]
			}
			now := e.nowNS()
			joules += watts * float64(now-last) * 1e-9
			last = now
		}
	}()

	j, err := e.Submit(context.Background(), func(c wl.Ctx) {
		wl.For(c, 0, 16, 1, func(c wl.Ctx, lo, hi int) {
			c.Work(50_000_000) // ~20ms at 2.4GHz: dwell times >> sample period
		})
	}, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	sampled := <-done
	end := e.snapshot()

	exact := end.Joules - start.Joules
	if exact <= 0 {
		t.Fatalf("no exact energy integrated: %g", exact)
	}
	ratio := sampled / exact
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("sampled integration %.3fJ vs exact fold %.3fJ (ratio %.3f) out of tolerance",
			sampled, exact, ratio)
	}
}

// TestSpawnJoinSteadyStateZeroAlloc pins the free lists: once the
// pool is warm, a job performing tens of thousands of spawn/joins
// must allocate only its fixed per-job setup — no per-operation
// allocations anywhere in the scheduler, the tempo policy's calls
// under Unified included.
func TestSpawnJoinSteadyStateZeroAlloc(t *testing.T) {
	for _, mode := range []core.Mode{core.Baseline, core.Unified} {
		t.Run(mode.String(), func(t *testing.T) { spawnJoinSteadyStateZeroAlloc(t, mode) })
	}
}

func spawnJoinSteadyStateZeroAlloc(t *testing.T, mode core.Mode) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 2, Mode: mode, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const ops = 20_000
	pair := []wl.Task{func(wl.Ctx) {}, func(wl.Ctx) {}}
	run := func() {
		j, err := e.Submit(context.Background(), func(c wl.Ctx) {
			for i := 0; i < ops; i++ {
				c.Go(pair...)
			}
		}, core.Class{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the free lists and idle timers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	// Per-job setup (jobState, Job, snapshots, report, watch
	// goroutine) is fixed and small; 128 KiB of slack over 20k ops
	// still proves ~0 B/op on the spawn/join path itself.
	if allocated > 128<<10 {
		t.Fatalf("steady-state job allocated %d B over %d spawn/joins (%.1f B/op)",
			allocated, ops, float64(allocated)/ops)
	}
}

// TestNativeParkAndRootTake pins the tempo policy's park and root-take
// rules on the Native executor. One Unified worker with K = 1 and the
// default initial average 2 has the threshold {2}, so an empty deque
// is tier 0. A fresh pool halts at the slowest tempo before its first
// job, and so does a pool a job has drained. Each job's first switch is
// then the root-take rule's: thief procrastination shed, tier 0 from
// the empty deque, level K = 1, the middle frequency. A push past the
// threshold would switch to the fastest instead.
func TestNativeParkAndRootTake(t *testing.T) {
	freqs := []units.Freq{2_400_000 * units.KHz, 1_900_000 * units.KHz, 1_400_000 * units.KHz}
	var (
		mu       sync.Mutex
		switches []units.Freq
	)
	e, err := NewExec(core.Config{
		Spec: cpu.SystemA(), Workers: 1, Mode: core.Unified, Seed: 31, Freqs: freqs, K: 1,
		ProfilePeriod: 3600 * units.Second, // no profiler retune mid-test
		Observer: obs.Func(func(ev obs.Event) {
			if ev.Kind == obs.TempoSwitch {
				mu.Lock()
				switches = append(switches, ev.Freq)
				mu.Unlock()
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runJob := func() {
		t.Helper()
		j, err := e.Submit(context.Background(), func(c wl.Ctx) {
			c.Go(func(wl.Ctx) {}, func(wl.Ctx) {}, func(wl.Ctx) {})
		}, core.Class{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// awaitPark waits for the pool's last switch to be to the slowest
	// frequency and returns how many switches it has seen by then.
	awaitPark := func(when string) int {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			n := len(switches)
			last := units.Freq(0)
			if n > 0 {
				last = switches[n-1]
			}
			mu.Unlock()
			if last == freqs[2] {
				return n
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s, the pool's last tempo switch is %v, want the slowest %v", when, last, freqs[2])
			}
		}
	}
	for _, when := range []string{"before the first job", "after a job drained"} {
		parked := awaitPark(when)
		runJob()
		mu.Lock()
		next := append([]units.Freq(nil), switches[parked:]...)
		mu.Unlock()
		if len(next) == 0 || next[0] != freqs[1] {
			t.Fatalf("%s: the next job's tempo switches are %v, want the first at %v from the root-take rule", when, next, freqs[1])
		}
	}
}

// TestHeadWorkerSkipsShrinkLock pins MayLower's head-of-list guard on
// the Native pop path. One Unified worker never steals, so it heads the
// immediacy list throughout and Figure 5's POP check can never lower
// its tempo: afterShrink must take tempoMu zero times, exactly. Two
// workers steal from each other; the test logs the share of their
// afterShrink acquisitions that moved no tier.
func TestHeadWorkerSkipsShrinkLock(t *testing.T) {
	fib, _, err := workload.Spec{Kind: "fibtree", N: 24, Grain: 8}.Task()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: workers, Mode: core.Unified, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		for range 4 {
			j, err := e.Submit(context.Background(), fib, core.Class{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		e.Close()
		locks, idle := e.shrinkLocks, e.shrinkIdle
		if workers == 1 && locks != 0 {
			t.Fatalf("one worker: afterShrink took tempoMu %d times, want 0 (the worker heads the list)", locks)
		}
		share := 0.0
		if locks > 0 {
			share = float64(idle) / float64(locks)
		}
		t.Logf("%d workers: afterShrink took tempoMu %d times, %d (%.0f %%) moved no tier", workers, locks, idle, 100*share)
	}
}
