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

// loadOpts parameterizes one open-loop load-generation run.
type loadOpts struct {
	RPS      float64
	Duration time.Duration
	Spec     workload.Spec
	// Trace names the arrival process from the internal/trace registry
	// ("" = poisson).
	Trace string
	Seed  int64

	// In-process runtime shape.
	Backend string
	Mode    string
	Workers int
	// Dispatch names the intake dispatch policy ("" = fifo) and
	// PreemptQuantum the ranked-dispatch preemption quantum.
	Dispatch       string
	PreemptQuantum time.Duration

	Verbose bool
}

// loadSummary is the run's JSON result — the artifact CI's bench and
// sim-load jobs upload.
type loadSummary struct {
	Target   string        `json:"target"`
	Workload workload.Spec `json:"workload"`
	// Trace is the arrival process, normalized so the default poisson
	// process stays "" (byte-stable poisson-era artifacts).
	Trace string `json:"trace,omitempty"`
	// Dispatch is the intake policy, normalized so the default fifo
	// stays "" (byte-stable pre-class artifacts).
	Dispatch         string  `json:"dispatch,omitempty"`
	RPSTarget        float64 `json:"rps_target"`
	DurationS        float64 `json:"duration_s"`
	Submitted        int64   `json:"submitted"`
	Completed        int64   `json:"completed"`
	Errors           int64   `json:"errors"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	P50SojournMS     float64 `json:"p50_sojourn_ms"`
	P95SojournMS     float64 `json:"p95_sojourn_ms"`
	P99SojournMS     float64 `json:"p99_sojourn_ms"`
	MaxSojournMS     float64 `json:"max_sojourn_ms"`
	PeakInflight     int64   `json:"peak_inflight"`
	JoulesPerRequest float64 `json:"joules_per_request"`
	// DroppedEvents is always 0, kept so pinned summaries keep their
	// bytes: both backends fold per-job reports, and neither run
	// attaches an observer that could drop an event.
	DroppedEvents uint64 `json:"dropped_events"`
	// Classes breaks the run down per service class when the trace is
	// mixed (any arrival carried a non-zero class); nil otherwise, so
	// single-class summaries keep their pre-class bytes. The flat
	// totals above always cover every class.
	Classes []classSummary `json:"classes,omitempty"`
}

// classSummary is one service class's slice of a mixed-trace load run.
type classSummary struct {
	Tenant    string `json:"tenant"`
	Priority  int    `json:"priority"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Errors    int64  `json:"errors"`

	P50SojournMS float64 `json:"p50_sojourn_ms"`
	P95SojournMS float64 `json:"p95_sojourn_ms"`
	P99SojournMS float64 `json:"p99_sojourn_ms"`

	// SLOTargetMS echoes the class's sojourn target; SLOAttainment is
	// the fraction of completed jobs that met it. Both absent for
	// classes without a target.
	SLOTargetMS   *float64 `json:"slo_target_ms,omitempty"`
	SLOAttainment *float64 `json:"slo_attainment,omitempty"`

	// JoulesPerRequest is per-class attributed energy per completed job.
	JoulesPerRequest float64 `json:"joules_per_request,omitempty"`
}

func (s loadSummary) String() string {
	out := fmt.Sprintf(
		"load %s %s: rps=%.0f dur=%.1fs submitted=%d completed=%d errors=%d\n"+
			"  throughput=%.1f req/s sojourn p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n"+
			"  peak-inflight=%d joules/req=%.4f dropped-events=%d",
		s.Target, s.Workload, s.RPSTarget, s.DurationS, s.Submitted, s.Completed, s.Errors,
		s.ThroughputRPS, s.P50SojournMS, s.P95SojournMS, s.P99SojournMS, s.MaxSojournMS,
		s.PeakInflight, s.JoulesPerRequest, s.DroppedEvents)
	for _, c := range s.Classes {
		out += fmt.Sprintf(
			"\n  class tenant=%q priority=%d: submitted=%d completed=%d errors=%d "+
				"p50=%.2fms p95=%.2fms p99=%.2fms",
			c.Tenant, c.Priority, c.Submitted, c.Completed, c.Errors,
			c.P50SojournMS, c.P95SojournMS, c.P99SojournMS)
		if c.SLOAttainment != nil {
			out += fmt.Sprintf(" slo=%.1f%%", *c.SLOAttainment*100)
		}
	}
	return out
}

// runLoad drives an open-loop seeded arrival process at opts.RPS for
// opts.Duration: arrivals are scheduled independently of completions
// (sojourn time includes queueing delay, the open-system metric), and
// every request is tracked to completion even past the arrival window.
// The schedule is sweep.TraceArrivals, the call the sweep makes, so
// `-load` and `-sweep` fire identical arrival sequences for identical
// (trace, rps, window, seed). On Sim the trace is replayed in virtual
// time; on Native it is paced against the wall clock. Both backends
// render their summary from one sweep fold.
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
	opts.Spec = spec
	if _, err := trace.Resolve(opts.Trace); err != nil {
		return loadSummary{}, err
	}
	dispatch, err := hermes.ParseDispatch(opts.Dispatch)
	if err != nil {
		return loadSummary{}, err
	}
	if opts.PreemptQuantum < 0 {
		return loadSummary{}, fmt.Errorf("load: preempt quantum must be non-negative, got %v", opts.PreemptQuantum)
	}
	backend, err := hermes.ParseBackend(opts.Backend)
	if err != nil {
		return loadSummary{}, err
	}
	mode, err := hermes.ParseMode(opts.Mode)
	if err != nil {
		return loadSummary{}, err
	}
	if backend == hermes.Sim {
		// The simulator multiplexes jobs in virtual time: replay the
		// whole arrival trace deterministically instead of racing the
		// wall clock.
		return runVirtualLoad(opts, mode, dispatch)
	}

	arrivals, err := sweep.TraceArrivals(opts.Spec, opts.Trace, opts.RPS, opts.Duration, opts.Seed)
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
	if dispatch != hermes.DispatchFIFO {
		hopts = append(hopts, hermes.WithDispatch(dispatch))
	}
	if opts.PreemptQuantum > 0 {
		hopts = append(hopts, hermes.WithPreemptQuantum(units.Time(opts.PreemptQuantum)*units.Nanosecond))
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
	return summarize(opts, "in-process/native", dispatch, sweep.Fold(opts.RPS, arrivals, reports, errs)), nil
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
