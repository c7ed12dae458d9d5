package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"hermes"
	"hermes/internal/sweep"
	"hermes/internal/trace"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// loadOpts parameterizes one open-loop wall-clock load run.
type loadOpts struct {
	RPS      float64
	Duration time.Duration
	Spec     workload.Spec
	// Trace names the arrival process from the internal/trace registry
	// ("" = poisson).
	Trace string
	Seed  int64

	// In-process Native runtime shape.
	Mode    string
	Workers int

	Verbose bool
}

// loadSummary is the run's JSON result — the artifact CI's bench job
// uploads: what was run, then the sweep's Point for the run, read
// from the same fold as every sweep point. OfferedRPS is the target
// rate.
type loadSummary struct {
	Workload workload.Spec `json:"workload"`
	// Trace is the arrival process, normalized so the default
	// (poisson) stays "" as in the sweep's artifacts.
	Trace string `json:"trace,omitempty"`
	sweep.Point
}

func (s loadSummary) String() string {
	out := fmt.Sprintf(
		"load native %s: rps=%g makespan=%.1fs arrivals=%d completed=%d errors=%d\n"+
			"  observed=%.1f req/s sojourn p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n"+
			"  peak-inflight=%d joules/req=%.4f",
		s.Workload, s.OfferedRPS, s.MakespanS, s.Arrivals, s.Completed, s.Errors,
		s.ObservedRPS, s.P50SojournMS, s.P95SojournMS, s.P99SojournMS, s.MaxSojournMS,
		s.PeakInflight, s.JoulesPerRequest)
	for _, c := range s.Classes {
		out += fmt.Sprintf(
			"\n  class tenant=%q priority=%d: arrivals=%d completed=%d errors=%d "+
				"p50=%.2fms p95=%.2fms p99=%.2fms",
			c.Tenant, c.Priority, c.Arrivals, c.Completed, c.Errors,
			c.P50SojournMS, c.P95SojournMS, c.P99SojournMS)
		if c.SLOAttainment != nil {
			out += fmt.Sprintf(" slo=%.1f%%", *c.SLOAttainment*100)
		}
	}
	return out
}

// runLoad drives an open-loop seeded arrival process at opts.RPS for
// opts.Duration into an in-process Native runtime, paced against the
// wall clock: arrivals are scheduled independently of completions
// (sojourn time includes queueing delay, the open-system metric), and
// every request is tracked to completion even past the arrival window.
// The schedule is sweep.TraceArrivals, the call the sweep makes, so
// `-load` and `-sweep` fire identical arrival sequences for identical
// (trace, rps, window, seed), and the summary is the sweep's fold of
// the run. The virtual-time replay of the same trace is `-sweep` with
// one rate.
func runLoad(opts loadOpts) (loadSummary, error) {
	if opts.RPS <= 0 {
		return loadSummary{}, fmt.Errorf("load: rps must be positive, got %g", opts.RPS)
	}
	if opts.Duration <= 0 {
		return loadSummary{}, fmt.Errorf("load: duration must be positive, got %v", opts.Duration)
	}
	spec, err := opts.Spec.Validate()
	if err != nil {
		return loadSummary{}, err
	}
	arrivals, err := sweep.TraceArrivals(spec, opts.Trace, opts.RPS, opts.Duration, opts.Seed)
	if err != nil {
		return loadSummary{}, err
	}
	mode, err := hermes.ParseMode(opts.Mode)
	if err != nil {
		return loadSummary{}, err
	}
	hopts := []hermes.Option{
		hermes.WithBackend(hermes.Native),
		hermes.WithMode(mode),
	}
	if opts.Workers > 0 {
		hopts = append(hopts, hermes.WithWorkers(opts.Workers))
	}
	rt, err := hermes.New(hopts...)
	if err != nil {
		return loadSummary{}, err
	}

	// Pace each arrival against the wall clock and submit it from its
	// own goroutine, so a job blocked in intake never delays the next
	// arrival. Each job writes only its own slot.
	reports := make([]hermes.Report, len(arrivals))
	errs := make([]error, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		if d := time.Until(start.Add(time.Duration(a.At / units.Nanosecond))); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := rt.Submit(context.Background(), a.Task, hermes.WithClass(a.Class))
			if err == nil {
				reports[i], err = j.Wait()
			}
			if errs[i] = err; err != nil && opts.Verbose {
				fmt.Fprintf(os.Stderr, "load: request error: %v\n", err)
			}
		}()
	}
	wg.Wait()
	if err := rt.Close(); err != nil {
		return loadSummary{}, err
	}
	return loadSummary{
		Workload: spec,
		Trace:    trace.Canonical(opts.Trace),
		Point:    sweep.Fold(opts.RPS, arrivals, reports, errs, rt.ClusterStats()),
	}, nil
}

// writeSummary prints the summary and optionally writes it as JSON.
func writeSummary(sum loadSummary, jsonPath string) error {
	fmt.Println(sum.String())
	return writeJSON(sum, jsonPath)
}

// writeJSON writes any summary value as indented JSON, if a path is
// given.
func writeJSON(sum any, jsonPath string) error {
	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}
