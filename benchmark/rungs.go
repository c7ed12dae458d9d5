package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"hermes"
	"hermes/internal/cluster"
	"hermes/internal/core"
	"hermes/internal/deque"
	"hermes/internal/metrics"
	"hermes/internal/obs"
	"hermes/internal/sim"
	"hermes/internal/sweep"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// The rungs time one layer at a time through its public functions, on
// inputs small enough that all of them fit in a few seconds of every
// traced run. They do not depend on the selected workload. Each writes
// its metrics into l; a rung whose layer breaks a promise returns an
// error, which fails the run.

// scaled shrinks a rung's operation count for the smoke mode.
func scaled(n int, small bool) int {
	if small {
		return max(n/50, 1)
	}
	return n
}

// medianOf runs fn reps times and returns the median of its results.
func medianOf(reps int, fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rungDeque times both deques from the owner's side (push then pop),
// from a thief's side (steal from a filled deque, nobody else around),
// and with an owner and one thief at work together.
func rungDeque(l map[string]float64, small bool) {
	impls := []struct {
		name string
		mk   func() deque.Queue[*int]
	}{
		{"the", func() deque.Queue[*int] { return deque.New[*int](64) }},
		{"chaselev", func() deque.Queue[*int] { return deque.NewChaseLev[int](64) }},
	}
	ops := scaled(1_000_000, small)
	fill := scaled(200_000, small)
	v := 42
	for _, impl := range impls {
		l["deque."+impl.name+"_pushpop_ns"] = medianOf(5, func() float64 {
			d := impl.mk()
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				d.Push(&v)
				d.Pop()
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(ops)
		})
		l["deque."+impl.name+"_steal_ns"] = medianOf(5, func() float64 {
			d := impl.mk()
			for i := 0; i < fill; i++ {
				d.Push(&v)
			}
			t0 := time.Now()
			for i := 0; i < fill; i++ {
				d.Steal()
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(fill)
		})
		// Contended: the owner's push/pop cycles per second while one
		// thief hammers the head from another goroutine.
		d := impl.mk()
		var stop atomic.Bool
		thiefDone := make(chan struct{})
		go func() {
			defer close(thiefDone)
			for !stop.Load() {
				d.Steal()
			}
		}()
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			d.Push(&v)
			d.Pop()
		}
		el := time.Since(t0).Seconds()
		stop.Store(true)
		<-thiefDone
		l["deque."+impl.name+"_contended_ops_per_s"] = float64(ops) / el
		if impl.name == "chaselev" {
			_, _, steals, failed := d.Stats()
			if steals+failed > 0 {
				l["deque.steal_success_ratio"] = float64(steals) / float64(steals+failed)
			}
		}
	}
}

// rungRT times the Native pool's hot path and its job intake on an
// otherwise idle two-worker pool.
func rungRT(l map[string]float64, seed int64, small bool) error {
	rt, err := newNativePool(seed)
	if err != nil {
		return err
	}
	defer rt.Close()
	run := func(task hermes.Task) error {
		j, err := rt.Submit(context.Background(), task)
		if err != nil {
			return err
		}
		_, err = j.Wait()
		return err
	}
	spawnJoin := func(ops int) (sec float64, allocs uint64, err error) {
		task, _, err := workload.Spec{Kind: "spawnjoin", N: ops}.Task()
		if err != nil {
			return 0, 0, err
		}
		m0, t0 := mallocs(), time.Now()
		err = run(task)
		return time.Since(t0).Seconds(), mallocs() - m0, err
	}
	// Two job sizes: the difference in allocations over the difference
	// in operations is the per-operation rate with the fixed per-job
	// set-up cancelled out. The steady state promises none.
	lo, hi := scaled(100_000, small), scaled(1_000_000, small)
	if _, _, err := spawnJoin(lo); err != nil { // warm the free lists
		return err
	}
	_, aLo, err := spawnJoin(lo)
	if err != nil {
		return err
	}
	sec, aHi, err := spawnJoin(hi)
	if err != nil {
		return err
	}
	l["rt.spawnjoin_ns_per_op"] = sec * 1e9 / float64(hi)
	perOp := (float64(aHi) - float64(aLo)) / float64(hi-lo)
	l["rt.spawnjoin_allocs_per_op"] = max(perOp, 0)
	if perOp >= 0.01 {
		return fmt.Errorf("rt: spawn/join steady state allocates %.4f objects per operation, want 0", perOp)
	}

	trivial := func(hermes.Ctx) {}
	n := scaled(20_000, small)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := run(trivial); err != nil {
			return err
		}
	}
	l["rt.roundtrip_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)

	// The same trivial job after 5 ms of quiet, when both workers have
	// gone to sleep: the wake-up every request at low load pays.
	var wake []float64
	for i := 0; i < scaled(50, small)+2; i++ {
		time.Sleep(5 * time.Millisecond)
		t0 := time.Now()
		if err := run(trivial); err != nil {
			return err
		}
		wake = append(wake, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	l["rt.idle_wake_us"] = median(wake)
	return nil
}

// rungSim drives the event engine directly with processes that do
// nothing but sleep, so the event count is known by construction: one
// start event per process plus one per sleep.
func rungSim(l map[string]float64, small bool) {
	sleeps := scaled(200_000, small)
	drive := func(procs int) (nsPerEvent, allocsPerEvent float64) {
		per := sleeps / procs
		eng := sim.NewEngine()
		for p := 0; p < procs; p++ {
			period := units.Time(p+1) * units.Microsecond
			eng.Go(fmt.Sprintf("sleeper-%d", p), func(pr *sim.Proc) {
				for i := 0; i < per; i++ {
					pr.Sleep(period)
				}
			})
		}
		events := float64(procs * (per + 1))
		m0, t0 := mallocs(), time.Now()
		eng.Run()
		return float64(time.Since(t0).Nanoseconds()) / events, float64(mallocs()-m0) / events
	}
	// One process is the self-wake case: the parking process owns the
	// next event every time.
	l["sim.ns_per_event_1proc"], _ = drive(1)
	l["sim.ns_per_event_16proc"], l["sim.allocs_per_event"] = drive(16)
}

// rungCore times the single-root driver on a flat synthetic job.
func rungCore(l map[string]float64, seed int64, small bool) error {
	spec := workload.Spec{Kind: "ticks", N: scaled(4096, small)}
	var rates []float64
	for i := 0; i < 3; i++ {
		task, _, err := spec.Task()
		if err != nil {
			return err
		}
		var rep core.Report
		t0 := time.Now()
		if err := safely(func() { rep = core.Run(core.Config{Mode: core.Unified, Seed: seed}, task) }); err != nil {
			return fmt.Errorf("core.Run: %w", err)
		}
		rates = append(rates, float64(rep.Tasks)/time.Since(t0).Seconds())
	}
	l["core.run_tasks_per_s"] = median(rates)
	return nil
}

// fleetView is a fixed load picture for timing placement decisions:
// every machine alive and loaded, so no policy can short-cut through
// the idle index.
type fleetView []int

func (v fleetView) Machines() int            { return len(v) }
func (v fleetView) Load(m int) int           { return v[m] }
func (v fleetView) IdleMachine() (int, bool) { return 0, false }
func (v fleetView) Alive(int) bool           { return true }

// rungCluster times one placement decision per policy and fleet size.
func rungCluster(l map[string]float64, seed int64, small bool) error {
	n := scaled(500_000, small)
	for _, name := range []string{"p2c", "jsq"} {
		pol, err := cluster.Parse(name)
		if err != nil {
			return err
		}
		placer := pol.Placer()
		for _, machines := range []int{4, 64} {
			rng := rand.New(rand.NewSource(seed))
			view := make(fleetView, machines)
			for m := range view {
				view[m] = 1 + rng.Intn(8)
			}
			sink := 0
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += placer.Place(view, rng)
			}
			l[fmt.Sprintf("cluster.place_ns_%s_m%d", name, machines)] =
				float64(time.Since(t0).Nanoseconds()) / float64(n)
			if sink < 0 {
				return fmt.Errorf("cluster: negative placement")
			}
		}
	}
	return nil
}

// rungInputs times what turns a request into work: drawing an arrival
// trace (800 rps × 2 s, as a sweep point does) and compiling a
// workload spec into a task (as every POST /jobs does).
func rungInputs(l map[string]float64, seed int64, small bool) error {
	for _, proc := range []string{"poisson", "mix"} {
		var us []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			arr, err := sweep.TraceArrivals(simSpec, proc, 800, 2*time.Second, seed+int64(i))
			if err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(arr)))
		}
		l["trace.gen_us_per_arrival_"+proc] = median(us)
	}
	n := scaled(100_000, small)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := (workload.Spec{Kind: "fibtree"}).Task(); err != nil {
			return err
		}
	}
	l["workload.build_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return nil
}

// rungObs times the producer's side of the async observer, then runs
// the native_forkjoin loop twice for a short while — bare, and with
// the observer hermes-serve attaches — to see what observing costs.
func rungObs(l map[string]float64, seed int64, small bool) error {
	n := scaled(500_000, small)
	a := obs.NewAsync(metrics.New(), 1<<16)
	ev := obs.Event{Kind: obs.Steal, Worker: 0, Victim: 1}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a.Observe(ev)
	}
	l["obs.async_observe_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	a.Close()

	seconds := 1.5
	if small {
		seconds = 0.1
	}
	spec := fjSpec(small)
	rate := func(extra ...hermes.Option) (float64, uint64, error) {
		rt, err := newNativePool(seed, extra...)
		if err != nil {
			return 0, 0, err
		}
		defer rt.Close()
		if _, errs := closedLoop(rt, spec, nil, func(n int) bool { return n >= fjWarmJobs }); len(errs) > 0 {
			return 0, 0, errs[0]
		}
		t0 := time.Now()
		jobs, errs := closedLoop(rt, spec, nil, func(int) bool { return time.Since(t0).Seconds() >= seconds })
		if len(errs) > 0 {
			return 0, 0, errs[0]
		}
		return float64(len(jobs)) / time.Since(t0).Seconds(), rt.EventsDropped(), nil
	}
	bare, _, err := rate()
	if err != nil {
		return err
	}
	observed, dropped, err := rate(hermes.WithAsyncObserver(metrics.New(), 1<<16))
	if err != nil {
		return err
	}
	l["obs.tax_pct"] = 100 * (bare - observed) / bare
	l["obs.dropped_events"] = float64(dropped)
	return nil
}

// rungSpans times the benchmark's own tracer, the cost the traced run
// adds at every boundary.
func rungSpans(small bool) (nsPerSpan float64) {
	n := scaled(200_000, small)
	tr := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("probe", 0, 0))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// runRungs runs every rung.
func runRungs(l map[string]float64, seed int64, small bool) error {
	rungDeque(l, small)
	if err := rungRT(l, seed, small); err != nil {
		return err
	}
	rungSim(l, small)
	if err := rungCore(l, seed, small); err != nil {
		return err
	}
	if err := rungCluster(l, seed, small); err != nil {
		return err
	}
	if err := rungInputs(l, seed, small); err != nil {
		return err
	}
	return rungObs(l, seed, small)
}
