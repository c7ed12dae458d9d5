package main

import (
	"fmt"
	"os"

	"hermes"
	"hermes/internal/sweep"
	"hermes/internal/trace"
)

// runVirtualLoad replays a seeded Poisson arrival trace *in virtual
// time* on the Sim backend: every arrival is scheduled at an exact
// virtual timestamp and the discrete-event machine multiplexes the
// jobs — queueing, steal interference between concurrent jobs, DVFS
// under bursty arrivals — with zero wall-clock pacing. The summary
// (sojourn percentiles, joules/request, throughput) is measured in
// virtual time and is byte-identical across runs for a fixed seed,
// config and workload: the open-system curve as a reproducible
// artifact rather than a wall-clock experiment.
//
// It is a thin wrapper over the sweep point-runner (one workload, one
// mode, one rate), rendered through the same summarize as the Native
// wall-clock run. Dropped events are always 0 here: the point-runner
// observes synchronously through per-job reports, nothing can drop.
func runVirtualLoad(opts loadOpts, mode hermes.Mode, dispatch hermes.Dispatch) (loadSummary, error) {
	pcfg := sweep.PointConfig{
		Workload:       opts.Spec,
		Trace:          opts.Trace,
		Mode:           mode,
		RPS:            opts.RPS,
		Window:         opts.Duration,
		Seed:           opts.Seed,
		Trials:         1,
		Workers:        opts.Workers,
		Dispatch:       opts.Dispatch,
		PreemptQuantum: opts.PreemptQuantum,
	}
	if opts.Verbose {
		pcfg.Log = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	pt, err := sweep.RunPoint(pcfg)
	if err != nil {
		return loadSummary{}, err
	}
	return summarize(opts, "in-process/sim-virtual", dispatch, pt), nil
}

// summarize renders one measured point as the load summary, for either
// backend. Peak in-flight counts jobs from arrival to completion,
// queued jobs included. A mixed trace carries the point's per-class
// rows through; single-class traces leave Classes nil and keep their
// pre-class JSON bytes.
func summarize(opts loadOpts, target string, dispatch hermes.Dispatch, pt sweep.Point) loadSummary {
	sum := loadSummary{
		Target:           target,
		Workload:         opts.Spec,
		Trace:            trace.Canonical(opts.Trace),
		Dispatch:         sweep.CanonicalDispatch(dispatch),
		RPSTarget:        opts.RPS,
		DurationS:        pt.MakespanS,
		Submitted:        pt.Arrivals,
		Completed:        pt.Completed,
		Errors:           pt.Errors,
		ThroughputRPS:    pt.ObservedRPS,
		P50SojournMS:     pt.P50SojournMS,
		P95SojournMS:     pt.P95SojournMS,
		P99SojournMS:     pt.P99SojournMS,
		MaxSojournMS:     pt.MaxSojournMS,
		PeakInflight:     pt.PeakInflight,
		JoulesPerRequest: pt.JoulesPerRequest,
		DroppedEvents:    pt.DroppedEvents,
	}
	for _, c := range pt.Classes {
		sum.Classes = append(sum.Classes, classSummary{
			Tenant:           c.Tenant,
			Priority:         c.Priority,
			Submitted:        c.Arrivals,
			Completed:        c.Completed,
			Errors:           c.Errors,
			P50SojournMS:     c.P50SojournMS,
			P95SojournMS:     c.P95SojournMS,
			P99SojournMS:     c.P99SojournMS,
			SLOTargetMS:      c.SLOTargetMS,
			SLOAttainment:    c.SLOAttainment,
			JoulesPerRequest: c.JoulesPerRequest,
		})
	}
	return sum
}

// parseLoadModes splits a comma-separated tempo-mode list through the
// one shared parser.
func parseLoadModes(list string) ([]hermes.Mode, error) {
	var modes []hermes.Mode
	for _, s := range splitCommaList(list) {
		m, err := hermes.ParseMode(s)
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}
