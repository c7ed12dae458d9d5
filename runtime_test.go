package hermes_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes"
	"hermes/internal/wl"
	"hermes/internal/workload"
)

// leafWorkload returns a root task touching n elements plus an atomic
// counter recording how many leaves actually executed.
func leafWorkload(n int) (hermes.Task, *atomic.Int64) {
	var ran atomic.Int64
	return func(c hermes.Ctx) {
		hermes.For(c, 0, n, 4, func(c hermes.Ctx, lo, hi int) {
			ran.Add(int64(hi - lo))
			c.WorkMix(hermes.Cycles(300_000*(hi-lo)), 0.5)
		})
	}, &ran
}

// TestBothBackendsOneAPI drives the same workload through the one
// Runtime API on both backends and gets a unified Report from each.
func TestBothBackendsOneAPI(t *testing.T) {
	for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
		rt, err := hermes.New(
			hermes.WithBackend(backend),
			hermes.WithSpec(hermes.SystemB()),
			hermes.WithWorkers(4),
			hermes.WithMode(hermes.Unified),
			hermes.WithSeed(42),
		)
		if err != nil {
			t.Fatalf("%v: New: %v", backend, err)
		}
		if rt.Backend() != backend {
			t.Fatalf("Backend() = %v, want %v", rt.Backend(), backend)
		}
		root, ran := leafWorkload(128)
		r, err := rt.Run(context.Background(), root)
		if err != nil {
			t.Fatalf("%v: Run: %v", backend, err)
		}
		if got := ran.Load(); got != 128 {
			t.Fatalf("%v: %d/128 leaves ran", backend, got)
		}
		if r.System != "SystemB" || r.Workers != 4 || r.Mode != hermes.Unified {
			t.Fatalf("%v: report header wrong: %+v", backend, r)
		}
		if r.Span <= 0 || r.EnergyJ <= 0 || r.Tasks == 0 {
			t.Fatalf("%v: degenerate report: span=%v energy=%v tasks=%d",
				backend, r.Span, r.EnergyJ, r.Tasks)
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("%v: Close: %v", backend, err)
		}
	}
}

// TestConcurrentSubmitsNative submits several jobs from separate
// goroutines to one Native Runtime and checks each completes with a
// correct per-job report (run under -race in CI).
func TestConcurrentSubmitsNative(t *testing.T) {
	rt, err := hermes.New(
		hermes.WithBackend(hermes.Native),
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(4),
		hermes.WithMode(hermes.Unified),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const jobs = 6
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	ids := make(chan int64, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root, ran := leafWorkload(64)
			j, err := rt.Submit(context.Background(), root)
			if err != nil {
				errs <- err
				return
			}
			r, err := j.Wait()
			if err != nil {
				errs <- err
				return
			}
			if got := ran.Load(); got != 64 {
				errs <- fmt.Errorf("job ran %d/64 leaves", got)
				return
			}
			if r.Tasks == 0 || r.Span <= 0 {
				errs <- fmt.Errorf("degenerate job report: tasks=%d span=%v", r.Tasks, r.Span)
				return
			}
			ids <- j.ID()
		}()
	}
	wg.Wait()
	close(errs)
	close(ids)
	for err := range errs {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != jobs {
		t.Fatalf("%d/%d jobs completed", len(seen), jobs)
	}
}

// TestConcurrentSubmitsSimMultiplex submits jobs concurrently to one
// Sim Runtime: they multiplex over the shared simulated machine as
// virtual-time arrivals, and each completes with a sound per-job
// report (sojourn covers execution, work is fully accounted).
// Reproducibility under concurrency is a property of fixed arrival
// traces, pinned by TestSubmitTraceDeterministic.
func TestConcurrentSubmitsSimMultiplex(t *testing.T) {
	rt, err := hermes.New(
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(4),
		hermes.WithMode(hermes.Unified),
		hermes.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const jobs = 4
	var wg sync.WaitGroup
	reports := make([]hermes.Report, jobs)
	counts := make([]*atomic.Int64, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		root, ran := leafWorkload(128)
		counts[i] = ran
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := rt.Run(context.Background(), root)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = r
		}()
	}
	wg.Wait()
	for i, r := range reports {
		if got := counts[i].Load(); got != 128 {
			t.Fatalf("job %d ran %d/128 leaves", i, got)
		}
		if r.Span <= 0 || r.Sojourn < r.Span || r.EnergyJ <= 0 || r.Tasks == 0 {
			t.Fatalf("job %d degenerate report: span=%v sojourn=%v energy=%v tasks=%d",
				i, r.Span, r.Sojourn, r.EnergyJ, r.Tasks)
		}
	}
}

// traceRun replays one fixed virtual-time arrival trace on a fresh
// Sim Runtime and returns the per-job reports plus the full observer
// event stream.
func traceRun(t *testing.T, arrivalGap hermes.Time, jobs int) ([]hermes.Report, []hermes.Event) {
	t.Helper()
	var events []hermes.Event
	rt, err := hermes.New(
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(4),
		hermes.WithMode(hermes.Unified),
		hermes.WithSeed(42),
		hermes.WithObserver(hermes.ObserverFunc(func(e hermes.Event) {
			events = append(events, e) // sim observer: single engine goroutine
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]hermes.Arrival, jobs)
	for i := range arrivals {
		root, _ := leafWorkload(96)
		arrivals[i] = hermes.Arrival{At: hermes.Time(i) * arrivalGap, Task: root}
	}
	handles, err := rt.SubmitTrace(context.Background(), arrivals)
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
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return reports, events
}

// TestSubmitTraceDeterministic is the acceptance pin for virtual-time
// multiplexing: two identical traces on identical configs produce
// byte-identical per-job reports and identical observer event
// sequences, while at least two jobs demonstrably overlap in virtual
// time (asserted on the event stream).
func TestSubmitTraceDeterministic(t *testing.T) {
	const jobs = 5
	gap := 100 * hermes.Microsecond
	repA, evA := traceRun(t, gap, jobs)
	repB, evB := traceRun(t, gap, jobs)

	for i := range repA {
		a, b := fmt.Sprintf("%+v", repA[i]), fmt.Sprintf("%+v", repB[i])
		if a != b {
			t.Fatalf("job %d report diverged between identical traces:\n%s\nvs\n%s", i+1, a, b)
		}
	}
	if len(evA) != len(evB) {
		t.Fatalf("event streams differ in length: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d diverged:\n%+v\nvs\n%+v", i, evA[i], evB[i])
		}
	}

	// Overlap: some job must start (JobStart event) while an earlier
	// job is still in the system (before its JobDone event).
	firstDone := -1
	overlap := false
	for i, e := range evA {
		switch e.Kind {
		case hermes.EventJobDone:
			if firstDone == -1 {
				firstDone = i
			}
		case hermes.EventJobStart:
			if e.Job > 1 && firstDone == -1 {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("no two jobs overlapped in virtual time; the trace serialized")
	}
	// Sojourn vs span: queueing delay is visible for late jobs under
	// contention (sojourn >= span always).
	for i, r := range repA {
		if r.Sojourn < r.Span {
			t.Fatalf("job %d sojourn %v < span %v", i+1, r.Sojourn, r.Span)
		}
	}
}

// TestSubmitTraceNativeRejected: the Native backend has no virtual
// clock; SubmitTrace must refuse rather than misbehave.
func TestSubmitTraceNativeRejected(t *testing.T) {
	rt, err := hermes.New(hermes.WithBackend(hermes.Native), hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	root, _ := leafWorkload(8)
	if _, err := rt.SubmitTrace(context.Background(), []hermes.Arrival{{At: 0, Task: root}}); err == nil {
		t.Fatal("SubmitTrace on Native accepted; want error")
	}
}

// TestCancellationSim cancels a simulator job from inside its own
// workload; the run must stop forking at spawn boundaries and the job
// must complete with the context's error.
func TestCancellationSim(t *testing.T) {
	rt, err := hermes.New(hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	j, err := rt.Submit(ctx, func(c hermes.Ctx) {
		hermes.For(c, 0, 4096, 1, func(c hermes.Ctx, lo, hi int) {
			if ran.Add(1) == 3 {
				cancel()
			}
			c.Work(100_000)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 4096 {
		t.Fatalf("cancellation did not stop the job (ran %d leaves)", n)
	}
}

// TestCancellationNative cancels a running Native job from outside.
func TestCancellationNative(t *testing.T) {
	rt, err := hermes.New(
		hermes.WithBackend(hermes.Native),
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	var ran atomic.Int64
	j, err := rt.Submit(ctx, func(c hermes.Ctx) {
		hermes.For(c, 0, 100_000, 1, func(c hermes.Ctx, lo, hi int) {
			ran.Add(1)
			once.Do(func() { close(started) })
			c.Mem(300 * hermes.Microsecond)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled native job did not drain")
	}
	if _, err := j.Wait(); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100_000 {
		t.Fatalf("cancellation did not stop the job (ran %d leaves)", n)
	}
}

// TestTimedOutSelfCheckReportsDeadline: a fibtree job whose deadline
// fires mid-tree skips spawns, so its root's self-check sees a wrong
// sum and panics. On both backends the job still ends with the
// deadline, and the panic's text is kept beside it. One worker leaves
// the deadline's timer a free P on a two-core host: a pool as wide as
// GOMAXPROCS can finish the tree before Go's scheduler gets round to
// firing the timer.
func TestTimedOutSelfCheckReportsDeadline(t *testing.T) {
	fib, _, err := workload.Spec{Kind: "fibtree", N: 32, Grain: 8}.Task()
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
		rt, err := hermes.New(hermes.WithBackend(backend), hermes.WithSpec(hermes.SystemB()),
			hermes.WithWorkers(1), hermes.WithMode(hermes.Unified))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, err = rt.Run(ctx, fib)
		cancel()
		rt.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: err = %v, want context.DeadlineExceeded", backend, err)
		}
		if err != context.DeadlineExceeded && !strings.Contains(err.Error(), "want 2178309") {
			t.Fatalf("%v: err = %v, want the deadline alone or joined with the self-check's panic", backend, err)
		}
	}
}

// TestPanicJoinsItsForks: a task whose own inline call panics joins
// the block it forked before its job fails, on both backends. On one
// worker the enclosing join used to pop the orphaned sibling, find it
// not runnable and park for good. On two, a sibling that a thief runs
// ends before Wait returns, and one nobody took is skipped.
func TestPanicJoinsItsForks(t *testing.T) {
	nop := func(hermes.Ctx) {}
	for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
		rt, err := hermes.New(hermes.WithBackend(backend), hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		j, err := rt.Submit(context.Background(), func(c hermes.Ctx) {
			c.Go(nop, func(c hermes.Ctx) { c.Go(func(hermes.Ctx) { panic("boom") }, nop) }, nop)
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(time.Second):
			t.Fatalf("%v, one worker: the panicking job did not end within 1 s", backend)
		}
		if _, err := j.Wait(); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("%v, one worker: err = %v, want the panic", backend, err)
		}
		rt.Close()

		rt, err = hermes.New(hermes.WithBackend(backend), hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		var started, ended atomic.Int32
		_, err = rt.Run(context.Background(), func(c hermes.Ctx) {
			c.Go(nop, func(c hermes.Ctx) {
				c.Go(func(c hermes.Ctx) {
					if backend == hermes.Native {
						// Let the other worker steal the sibling first.
						for t0 := time.Now(); started.Load() == 0 && time.Since(t0) < time.Second; {
							runtime.Gosched()
						}
					} else {
						c.Mem(hermes.Millisecond)
					}
					panic("boom")
				}, func(c hermes.Ctx) {
					started.Add(1)
					c.Mem(2 * hermes.Millisecond)
					c.Go() // Sim: simulate the Mem before ended moves
					ended.Add(1)
				})
			}, nop)
		})
		if s, e := started.Load(), ended.Load(); s != e {
			t.Fatalf("%v, two workers: Wait returned with %d sibling(s) started and %d ended", backend, s, e)
		}
		rt.Close()
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("%v, two workers: err = %v, want the panic", backend, err)
		}
	}
}

// cancelAt wraps a job's Ctx so that the job's k-th spawn cancels it:
// the cancellation lands mid-run, wherever the workload then is.
type cancelAt struct {
	hermes.Ctx
	left   *atomic.Int64
	cancel context.CancelFunc
}

func (c cancelAt) spawn() {
	if c.left.Add(-1) == 0 {
		c.cancel()
		c.Mem(hermes.Second) // Native: cut short once the cancellation lands
	}
}

func (c cancelAt) Go(tasks ...hermes.Task) {
	c.spawn()
	wrapped := make([]hermes.Task, len(tasks))
	for i, t := range tasks {
		wrapped[i] = func(x hermes.Ctx) { t(cancelAt{x, c.left, c.cancel}) }
	}
	c.Ctx.Go(wrapped...)
}

func (c cancelAt) Fork2(f wl.Body, a0, a1, b0, b1 int) (int, int) {
	c.spawn()
	return c.Ctx.Fork2(func(x hermes.Ctx, a, b int) int {
		return f(cancelAt{x, c.left, c.cancel}, a, b)
	}, a0, a1, b0, b1)
}

// TestCancelledSelfCheckEndsWithCause: every catalog workload that
// checks itself, cancelled at its third spawn, ends with the
// cancellation's cause on both backends, whatever its self-check then
// makes of the skipped work. Native runs one worker, so the
// cancellation's goroutine gets a free P on a two-core host.
func TestCancelledSelfCheckEndsWithCause(t *testing.T) {
	for _, kind := range []string{"fibtree", "knn", "ray", "sort", "compare", "hull"} {
		task, _, err := workload.Spec{Kind: kind}.Task()
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
			rt, err := hermes.New(hermes.WithBackend(backend), hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var left atomic.Int64
			left.Store(3)
			_, err = rt.Run(ctx, func(c hermes.Ctx) { task(cancelAt{c, &left, cancel}) })
			cancel()
			rt.Close()
			if left.Load() > 0 {
				t.Fatalf("%s on %v: the job spawned fewer than 3 times", kind, backend)
			}
			if !errors.Is(err, ctx.Err()) {
				t.Fatalf("%s on %v: err = %v, want %v", kind, backend, err, ctx.Err())
			}
		}
	}
}

// TestInterruptedPanicKeepsBoth: a job that is cancelled, skips a
// spawn and then panics reports ctx's error joined with the panic, on
// both backends; the panic is not lost and does not hide the
// cancellation.
func TestInterruptedPanicKeepsBoth(t *testing.T) {
	for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
		rt, err := hermes.New(hermes.WithBackend(backend), hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, err = rt.Run(ctx, func(c hermes.Ctx) {
			cancel()
			c.Mem(hermes.Second) // Native: cut short once the cancellation lands
			c.Go(func(hermes.Ctx) {}, func(hermes.Ctx) {})
			panic("self-check failed")
		})
		rt.Close()
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "self-check failed") {
			t.Fatalf("%v: err = %v, want context.Canceled joined with the panic", backend, err)
		}
	}
}

// TestPreCancelledReport: a job whose context fired before Submit never
// runs, and both backends still complete it with a report that names
// the system, workers, mode and class it was submitted under.
func TestPreCancelledReport(t *testing.T) {
	class := hermes.Class{Tenant: "lc", Priority: 1}
	for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
		t.Run(backend.String(), func(t *testing.T) {
			rt, err := hermes.New(
				hermes.WithBackend(backend),
				hermes.WithSpec(hermes.SystemB()),
				hermes.WithWorkers(2),
				hermes.WithMode(hermes.Unified),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var ran atomic.Int64
			j, err := rt.Submit(ctx, func(hermes.Ctx) { ran.Add(1) }, hermes.WithClass(class))
			if err != nil {
				t.Fatal(err)
			}
			r, err := j.Wait()
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ran.Load() != 0 || r.Tasks != 0 {
				t.Fatalf("pre-cancelled job ran (ran=%d tasks=%d)", ran.Load(), r.Tasks)
			}
			if r.System != "SystemB" || r.Workers != 2 || r.Mode != hermes.Unified || r.Class != class {
				t.Fatalf("report header: system %q, workers %d, mode %v, class %+v; want SystemB, 2, unified, %+v",
					r.System, r.Workers, r.Mode, r.Class, class)
			}
		})
	}
}

// TestOptionAndConfigErrors checks that every former configuration
// panic surfaces as an error through the option API. The mode, dispatch
// and quantum options store their value as given; Config.Validate
// rejects it on either backend. The frequency ladder's checks are
// core's (TestValidateRejects): no option sets a ladder.
func TestOptionAndConfigErrors(t *testing.T) {
	native := hermes.WithBackend(hermes.Native)
	cases := []struct {
		name string
		opts []hermes.Option
		want string
	}{
		{"too many workers", []hermes.Option{
			hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(99),
		}, "workers not supported"},
		{"zero workers", []hermes.Option{hermes.WithWorkers(0)}, "must be positive"},
		{"nil spec", []hermes.Option{hermes.WithSpec(nil)}, "nil machine spec"},
		{"unknown backend", []hermes.Option{hermes.WithBackend(hermes.Backend(9))}, "unknown backend"},
		{"invalid mode", []hermes.Option{hermes.WithMode(hermes.Mode(9))}, "invalid mode"},
		{"invalid mode on Native", []hermes.Option{native, hermes.WithMode(hermes.Mode(9))}, "invalid mode"},
		{"invalid dispatch", []hermes.Option{hermes.WithDispatch(hermes.Dispatch(9))}, "invalid dispatch"},
		{"invalid dispatch on Native", []hermes.Option{native, hermes.WithDispatch(hermes.Dispatch(9))}, "invalid dispatch"},
		{"negative quantum", []hermes.Option{hermes.WithPreemptQuantum(-1)}, "must not be negative"},
		{"negative quantum on Native", []hermes.Option{native, hermes.WithPreemptQuantum(-1)}, "must not be negative"},
	}
	for _, tc := range cases {
		rt, err := hermes.New(tc.opts...)
		if err == nil {
			rt.Close()
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSubmitErrors covers the boundary errors of a live Runtime.
func TestSubmitErrors(t *testing.T) {
	for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
		rt, err := hermes.New(hermes.WithBackend(backend), hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Submit(context.Background(), nil); err != hermes.ErrNilTask {
			t.Fatalf("%v: nil task err = %v", backend, err)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Submit(context.Background(), func(hermes.Ctx) {}); err != hermes.ErrClosed {
			t.Fatalf("%v: submit-after-close err = %v", backend, err)
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("%v: double close: %v", backend, err)
		}
	}
}

// TestObserverStream checks the Observer hook delivers scheduler
// events on the simulator backend: job lifecycle, steals, tempo
// switches and energy samples for a Unified run.
func TestObserverStream(t *testing.T) {
	counts := map[hermes.EventKind]int{}
	var mu sync.Mutex
	rt, err := hermes.New(
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(4),
		hermes.WithMode(hermes.Unified),
		hermes.WithSeed(3),
		hermes.WithObserver(hermes.ObserverFunc(func(e hermes.Event) {
			mu.Lock()
			counts[e.Kind]++
			mu.Unlock()
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := leafWorkload(512)
	r, err := rt.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if counts[hermes.EventJobStart] != 1 || counts[hermes.EventJobDone] != 1 {
		t.Fatalf("job lifecycle events: %+v", counts)
	}
	if int64(counts[hermes.EventSteal]) != r.Steals {
		t.Fatalf("observed %d steals, report says %d", counts[hermes.EventSteal], r.Steals)
	}
	if int64(counts[hermes.EventTempoSwitch]) != r.TempoSwitches {
		t.Fatalf("observed %d tempo switches, report says %d", counts[hermes.EventTempoSwitch], r.TempoSwitches)
	}
	if len(r.Samples) > 0 && counts[hermes.EventEnergySample] == 0 {
		t.Fatalf("no energy samples observed (report has %d)", len(r.Samples))
	}
}

// TestTaskPanicSimBackend pins the panic contract on the simulator: a
// panicking task body fails its own job (error from Wait) without
// crashing the process, matching the Native backend.
func TestTaskPanicSimBackend(t *testing.T) {
	rt, err := hermes.New(hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, perr := rt.Run(context.Background(), func(c hermes.Ctx) {
		c.Go(
			func(hermes.Ctx) { panic("boom") },
			func(c hermes.Ctx) { c.Work(1_000_000) },
		)
	})
	if perr == nil || !strings.Contains(perr.Error(), "panicked") {
		t.Fatalf("sim panicking job err = %v", perr)
	}
	// The runtime must still serve jobs afterwards.
	root, ran := leafWorkload(32)
	if _, err := rt.Run(context.Background(), root); err != nil {
		t.Fatalf("job after panic: %v", err)
	}
	if ran.Load() != 32 {
		t.Fatalf("job after panic ran %d/32 leaves", ran.Load())
	}
}

// TestLateCancelReportsSuccess: a context cancelled only after the
// job's work completed must not turn a successful report into an
// error.
func TestLateCancelReportsSuccess(t *testing.T) {
	for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
		rt, err := hermes.New(hermes.WithBackend(backend), hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		j, err := rt.Submit(ctx, func(c hermes.Ctx) { c.Work(1_000_000) })
		if err != nil {
			t.Fatal(err)
		}
		if _, werr := j.Wait(); werr != nil {
			t.Fatalf("%v: job failed: %v", backend, werr)
		}
		cancel() // after completion: result must be unaffected
		if _, werr := j.Wait(); werr != nil {
			t.Fatalf("%v: late cancel changed result: %v", backend, werr)
		}
		rt.Close()
	}
}

// TestRunWrapperCompat pins the legacy one-shot API: existing
// hermes.Run call sites keep compiling and running unchanged.
func TestRunWrapperCompat(t *testing.T) {
	r := hermes.Run(hermes.Config{Spec: hermes.SystemB(), Workers: 2, Seed: 1},
		func(c hermes.Ctx) { c.Work(1_000_000) })
	if r.Span <= 0 || r.EnergyJ <= 0 {
		t.Fatalf("legacy Run degenerate report: %+v", r)
	}
}

// TestAsyncObserverSlowConsumerDoesNotBlockScheduler pins the point
// of WithAsyncObserver: a pathologically slow event consumer must not
// stretch job latency, because workers enqueue without waiting.
func TestAsyncObserverSlowConsumerDoesNotBlockScheduler(t *testing.T) {
	var seen atomic.Int64
	slow := hermes.ObserverFunc(func(hermes.Event) {
		seen.Add(1)
		time.Sleep(10 * time.Millisecond)
	})
	rt, err := hermes.New(
		hermes.WithBackend(hermes.Native),
		hermes.WithMode(hermes.Unified),
		hermes.WithWorkers(4),
		hermes.WithAsyncObserver(slow, 64),
	)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// A steal-heavy spawn tree: emits far more events than the slow
	// consumer could absorb synchronously in the latency bound.
	_, err = rt.Run(context.Background(), func(c hermes.Ctx) {
		hermes.For(c, 0, 256, 2, func(c hermes.Ctx, lo, hi int) {
			c.Work(hermes.Cycles(100_000 * (hi - lo)))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// The job itself is ~11ms of accounted work over 4 workers. Give
	// a wide margin for CI, but stay far under what synchronous
	// delivery of even 100 events at 10ms would cost (1s+).
	if elapsed > 800*time.Millisecond {
		t.Fatalf("job took %v behind a slow observer; scheduler is being blocked", elapsed)
	}
	go rt.Close() // draining 64 buffered slow events takes ~640ms; don't serialize the suite on it
	if seen.Load() == 0 {
		t.Fatal("no events reached the slow consumer")
	}
}

// TestAsyncObserverCompleteStreamBelowBufferSize: with a buffer sized
// for the run, the async pipeline must lose nothing — every job's
// lifecycle framing arrives, and EventsDropped stays 0.
func TestAsyncObserverCompleteStreamBelowBufferSize(t *testing.T) {
	var starts, dones atomic.Int64
	counting := hermes.ObserverFunc(func(e hermes.Event) {
		switch e.Kind {
		case hermes.EventJobStart:
			starts.Add(1)
		case hermes.EventJobDone:
			dones.Add(1)
		}
	})
	rt, err := hermes.New(
		hermes.WithBackend(hermes.Native),
		hermes.WithWorkers(4),
		hermes.WithAsyncObserver(counting, 1<<16),
	)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 40
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Run(context.Background(), func(c hermes.Ctx) {
				hermes.For(c, 0, 32, 4, func(c hermes.Ctx, lo, hi int) {
					c.Work(hermes.Cycles(50_000 * (hi - lo)))
				})
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rt.EventsDropped(); got != 0 {
		t.Fatalf("%d events dropped below buffer size", got)
	}
	if starts.Load() != jobs || dones.Load() != jobs {
		t.Fatalf("lifecycle framing incomplete: %d starts, %d dones, want %d each",
			starts.Load(), dones.Load(), jobs)
	}
}

// TestAsyncObserverDropsAreCounted: with a tiny buffer and a wedged
// consumer, the runtime reports loss instead of hiding it.
func TestAsyncObserverDropsAreCounted(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	wedged := hermes.ObserverFunc(func(hermes.Event) { <-block })
	rt, err := hermes.New(
		hermes.WithBackend(hermes.Native),
		hermes.WithMode(hermes.Unified),
		hermes.WithWorkers(4),
		hermes.WithAsyncObserver(wedged, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer once.Do(func() { close(block) })
	// Every job emits JobStart and JobDone whatever the schedule (steals
	// and tempo switches are not guaranteed: one worker may run a whole
	// job), so a few jobs must overflow one held event plus two slots.
	for i := 0; i < 8 && rt.EventsDropped() == 0; i++ {
		if _, err := rt.Run(context.Background(), func(c hermes.Ctx) {
			c.Work(hermes.Cycles(20_000))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if rt.EventsDropped() == 0 {
		t.Fatal("wedged 2-slot observer dropped nothing; drop accounting is broken")
	}
	once.Do(func() { close(block) })
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestObserverOptionsMutuallyExclusive: the sync and async observer
// options cannot be combined, and a nil async observer is rejected.
func TestObserverOptionsMutuallyExclusive(t *testing.T) {
	o := hermes.ObserverFunc(func(hermes.Event) {})
	if _, err := hermes.New(hermes.WithObserver(o), hermes.WithAsyncObserver(o, 16)); err == nil {
		t.Fatal("WithObserver + WithAsyncObserver accepted; want error")
	}
	if _, err := hermes.New(hermes.WithAsyncObserver(nil, 16)); err == nil {
		t.Fatal("nil async observer accepted; want error")
	}
}

// TestMachineStats: the Sim backend surfaces machine-lifetime totals
// after Close; so does Native, and its ledger obeys the laws below.
func TestMachineStats(t *testing.T) {
	rt, err := hermes.New(hermes.WithSpec(hermes.SystemB()), hermes.WithWorkers(2), hermes.WithMode(hermes.Unified))
	if err != nil {
		t.Fatal(err)
	}
	root, _ := leafWorkload(32)
	var arrivals []hermes.Arrival
	for i := 0; i < 4; i++ {
		arrivals = append(arrivals, hermes.Arrival{At: hermes.Time(i) * 50 * hermes.Microsecond, Task: root})
	}
	jobs, err := rt.SubmitTrace(context.Background(), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	var jobJ float64
	for _, j := range jobs {
		rep, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		jobJ += rep.EnergyJ
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	ms, err := rt.MachineStats()
	if err != nil {
		t.Fatal(err)
	}
	if ms.EnergyJ <= 0 || ms.Busy <= 0 || len(ms.FreqBusy) == 0 {
		t.Fatalf("degenerate machine stats: %+v", ms)
	}
	if ms.EnergyJ < jobJ-1e-9 {
		t.Errorf("machine energy %g below per-job attribution sum %g", ms.EnergyJ, jobJ)
	}

	testNativeLedger(t)
}

// testNativeLedger takes two MachineStats reads around a batch of
// fibtree jobs on a two-worker Unified Native runtime: the residency
// between them sums to workers × elapsed up to the time each read took
// (each worker's cell is folded a moment before Elapsed is read), the
// jobs' attributed energy fits inside the machine's and their steals
// are the machine's. The jobs run one at a time, so their windows are
// disjoint and each takes at most its window's energy. After Close
// the ledger is frozen. A second reader polls it throughout.
func testNativeLedger(t *testing.T) {
	rt, err := hermes.New(hermes.WithBackend(hermes.Native), hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(2), hermes.WithMode(hermes.Unified))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fib, _, err := workload.Spec{Kind: "fibtree", N: 24, Grain: 10}.Task()
	if err != nil {
		t.Fatal(err)
	}
	read := func() (hermes.MachineStats, hermes.Time) {
		start := time.Now()
		ms, err := rt.MachineStats()
		if err != nil {
			t.Fatal(err)
		}
		return ms, hermes.Time(time.Since(start).Nanoseconds()) * (hermes.Microsecond / 1000)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rt.ClusterStats()
			}
		}
	}()
	before, took0 := read()
	var jobJ float64
	var steals int64
	for range 8 {
		rep, err := rt.Run(context.Background(), fib)
		if err != nil {
			t.Fatal(err)
		}
		jobJ += rep.EnergyJ
		steals += rep.Steals
	}
	after, took1 := read()
	res := (after.Busy + after.Spin + after.Idle) - (before.Busy + before.Spin + before.Idle)
	if gap := 2*(after.Elapsed-before.Elapsed) - res; gap < -2*took0 || gap > 2*took1 {
		t.Errorf("residency %v over %v elapsed on 2 workers: off by %v, reads took %v and %v",
			res, after.Elapsed-before.Elapsed, gap, took0, took1)
	}
	if machineJ := after.EnergyJ - before.EnergyJ; jobJ <= 0 || jobJ > machineJ {
		t.Errorf("jobs' energy %g J against the machine's %g J", jobJ, machineJ)
	}
	if d := after.Steals - before.Steals; d != steals {
		t.Errorf("machine steals rose by %d, the jobs' reports attribute %d", d, steals)
	}
	if d := after.Tasks - before.Tasks; d <= 0 {
		t.Errorf("machine tasks rose by %d over eight jobs", d)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if a, b := rt.ClusterStats(), rt.ClusterStats(); !reflect.DeepEqual(a, b) {
		t.Errorf("ledger moved after Close:\n%+v\n%+v", a, b)
	}
}

// TestSetModeNative switches tempo mode on a live Native pool: jobs
// before, across and after the switch all complete, reports reflect
// the mode they ran under, and Config tracks the live mode.
func TestSetModeNative(t *testing.T) {
	rt, err := hermes.New(
		hermes.WithBackend(hermes.Native),
		hermes.WithWorkers(4),
		hermes.WithMode(hermes.Baseline),
		hermes.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	root, _ := leafWorkload(64)
	if r, err := rt.Run(context.Background(), root); err != nil || r.Mode != hermes.Baseline {
		t.Fatalf("pre-switch run: mode=%v err=%v", r.Mode, err)
	}

	// Switch under load: a job submitted before the switch keeps
	// running while the mode changes beneath it.
	before, _ := rt.Submit(context.Background(), root)
	if err := rt.SetMode(hermes.Unified); err != nil {
		t.Fatalf("SetMode(Unified): %v", err)
	}
	if _, err := before.Wait(); err != nil {
		t.Fatalf("job spanning the switch failed: %v", err)
	}
	if got := rt.Config().Mode; got != hermes.Unified {
		t.Fatalf("Config().Mode = %v after switch, want Unified", got)
	}
	if r, err := rt.Run(context.Background(), root); err != nil || r.Mode != hermes.Unified {
		t.Fatalf("post-switch run: mode=%v err=%v", r.Mode, err)
	}

	// Idempotent and reversible.
	if err := rt.SetMode(hermes.Unified); err != nil {
		t.Fatalf("no-op SetMode: %v", err)
	}
	if err := rt.SetMode(hermes.Baseline); err != nil {
		t.Fatalf("SetMode back to Baseline: %v", err)
	}
	if r, err := rt.Run(context.Background(), root); err != nil || r.Mode != hermes.Baseline {
		t.Fatalf("post-revert run: mode=%v err=%v", r.Mode, err)
	}
}

// TestSetModeSimRejected pins the Sim sentinel: the deterministic
// backend cannot change configuration mid-run.
func TestSetModeSimRejected(t *testing.T) {
	rt, err := hermes.New(hermes.WithBackend(hermes.Sim))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	err = rt.SetMode(hermes.Unified)
	if !errors.Is(err, hermes.ErrModeSwitchUnavailable) {
		t.Fatalf("Sim SetMode err = %v, want ErrModeSwitchUnavailable", err)
	}
}
