package rt

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/workload"
)

// BenchmarkForkJoin is native_forkjoin's closed loop at a smaller
// tree: two submitters each submit a fibtree N24 grain 8 job and wait
// for it, on two Unified workers, until b.N jobs have run. An op is a
// job; jobs/s and tasks/s are over the measured loop. It is the loop
// to profile the Native owner path with:
//
//	go test -run '^$' -bench ForkJoin -benchtime 5s -cpuprofile cpu.out ./internal/rt
func BenchmarkForkJoin(b *testing.B) {
	const submitters = 2
	root, _, err := workload.Spec{Kind: "fibtree", N: 24, Grain: 8}.Task()
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewExec(core.Config{Workers: 2, Mode: core.Unified, Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	runJob := func() (core.Report, error) {
		j, err := e.Submit(context.Background(), root, core.Class{})
		if err != nil {
			return core.Report{}, err
		}
		return j.Wait()
	}
	for range 4 { // warm the free lists and idle timers
		if _, err := runJob(); err != nil {
			b.Fatal(err)
		}
	}
	var left, tasks atomic.Int64
	left.Store(int64(b.N))
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				r, err := runJob()
				if err != nil {
					errs <- err
					return
				}
				tasks.Add(r.Tasks)
			}
		}()
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/el, "jobs/s")
	b.ReportMetric(float64(tasks.Load())/el, "tasks/s")
}
