package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hermes"
	"hermes/internal/workload"
)

// native_forkjoin is a closed loop of two clients on a two-worker
// Native pool in unified mode. Each client builds a `fibtree` task
// (fib(30) as a spawn tree with serial cutoff 8: about 75 k tasks and
// 12 ms, checked against the sequential reference inside the task),
// submits it and waits for it. The leaves are trivial, so the time is
// spawn, pop, steal and join in internal/rt and internal/deque plus
// per-job accounting and the intake; two jobs at once exercise
// cross-job stealing. An operation is one job.
const (
	fjWorkers   = 2
	fjClients   = 2
	fjWarmJobs  = 20 // per client, before the window
	fjSegments  = 5
	fjFibN      = 30
	fjFibNSmall = 20
	fjGrain     = 8
)

func fjSpec(small bool) workload.Spec {
	n := fjFibN
	if small {
		n = fjFibNSmall
	}
	return workload.Spec{Kind: "fibtree", N: n, Grain: fjGrain}
}

// newNativePool builds the pool every Native slice and rung runs on.
func newNativePool(seed int64, extra ...hermes.Option) (*hermes.Runtime, error) {
	opts := append([]hermes.Option{
		hermes.WithBackend(hermes.Native),
		hermes.WithWorkers(fjWorkers),
		hermes.WithMode(hermes.Unified),
		hermes.WithSeed(seed),
	}, extra...)
	return hermes.New(opts...)
}

// jobSample is one completed job of a closed-loop window.
type jobSample struct {
	doneS float64 // completion, seconds from the window's start
	latMS float64 // Submit → Wait
	rep   hermes.Report
}

// closedLoop runs fjClients clients against rt, each looping build →
// Submit → Wait until stop reports true (checked between jobs), and
// returns the completed jobs. A failed job is returned in errs.
func closedLoop(rt *hermes.Runtime, spec workload.Spec, tr *tracer, stop func(done int) bool) (jobs []jobSample, errs []error) {
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		start = time.Now()
	)
	for c := 0; c < fjClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop(n); n++ {
				op := tr.op()
				root := tr.begin("native.job", 0, op)
				t0 := time.Now()
				s := tr.begin("workload.build", root, op)
				task, _, err := spec.Task()
				tr.end(s)
				var rep hermes.Report
				if err == nil {
					s = tr.begin("rt.submit", root, op)
					var j *hermes.Job
					j, err = rt.Submit(context.Background(), task)
					tr.end(s)
					if err == nil {
						s = tr.begin("rt.wait", root, op)
						rep, err = j.Wait()
						tr.end(s)
					}
				}
				end := time.Now()
				tr.end(root)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					jobs = append(jobs, jobSample{
						doneS: end.Sub(start).Seconds(),
						latMS: float64(end.Sub(t0).Nanoseconds()) / 1e6,
						rep:   rep,
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, errs
}

func runNativeForkJoin(sl slice) (outcome, error) {
	o := outcome{layer: map[string]float64{}}
	spec := fjSpec(sl.small)

	// Set-up: start the pool and run the warm-up jobs, which fill the
	// workers' task and block free lists and settle the tempo profile.
	var rt *hermes.Runtime
	err := timeSetups(sl.setups, &o, func() error {
		var err error
		if rt, err = newNativePool(sl.seed); err != nil {
			return err
		}
		_, errs := closedLoop(rt, spec, nil, func(n int) bool { return n >= fjWarmJobs })
		if len(errs) > 0 {
			rt.Close()
			return fmt.Errorf("native_forkjoin warm-up: %w", errs[0])
		}
		return nil
	}, func() { rt.Close() })
	if err != nil {
		return o, err
	}
	defer rt.Close()

	rss := startRSSSampler(0)
	defer rss.finish()
	cpu := startCPUTicker(selfCPUSeconds, sl.seconds/fjSegments)
	defer cpu.finish()
	start := time.Now()
	jobs, errs := closedLoop(rt, spec, sl.tr, func(int) bool {
		return time.Since(start).Seconds() >= sl.seconds
	})
	window := time.Since(start).Seconds()
	o.segs = cpu.segments(fjSegments, sl.seconds, window)
	o.rssMB = rss.mean()

	o.attempted = len(jobs) + len(errs)
	o.failed = len(errs)
	for _, err := range errs {
		o.violate("native_forkjoin job: %v", err)
	}
	if len(jobs) == 0 {
		return o, fmt.Errorf("native_forkjoin: no job completed")
	}
	var (
		joules, busy, spin          float64
		tasks, steals, failedSteals int64
		queueMS, spanMS             []float64
	)
	for _, j := range jobs {
		seg := &o.segs[min(int(j.doneS/sl.seconds*fjSegments), fjSegments-1)]
		seg.ops++
		seg.latMS = append(seg.latMS, j.latMS)
		joules += j.rep.EnergyJ
		tasks += j.rep.Tasks
		steals += j.rep.Steals
		failedSteals += j.rep.FailedSteals
		busy += j.rep.BusyTime.Seconds()
		spin += j.rep.SpinTime.Seconds()
		queueMS = append(queueMS, (j.rep.Sojourn-j.rep.Span).Seconds()*1e3)
		spanMS = append(spanMS, j.rep.Span.Seconds()*1e3)
	}
	o.joules = joules / float64(len(jobs))

	o.layer["rt.tasks_per_s"] = float64(tasks) / window
	o.layer["rt.steals_per_job"] = float64(steals) / float64(len(jobs))
	if attempts := steals + failedSteals; attempts > 0 {
		o.layer["rt.failed_steal_ratio"] = float64(failedSteals) / float64(attempts)
	}
	o.layer["rt.queue_ms_p50"] = median(queueMS)
	o.layer["rt.span_ms_p50"] = median(spanMS)
	if busy+spin > 0 {
		o.layer["rt.spin_frac"] = spin / (busy + spin)
	}
	return o, nil
}
