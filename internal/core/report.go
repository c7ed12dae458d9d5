package core

import (
	"fmt"
	"sort"
	"strings"

	"hermes/internal/meter"
	"hermes/internal/units"
)

// Report summarizes one simulated job. Energy and samples follow the
// paper's measurement methodology (100 Hz meter on a 12 V rail);
// EnergyJ is the exact piecewise integral for noise-free comparisons.
type Report struct {
	System  string
	Workers int
	Mode    Mode
	Sched   Scheduling
	// Class is the job's service class as submitted (zero for
	// unclassed jobs, Run's included).
	Class Class

	// Span is the execution time: from the job's first task beginning
	// to run to root-task completion (the makespan under Run, whose
	// job starts executing at time zero).
	Span units.Time
	// Sojourn is the open-system latency: from the job entering the
	// system (virtual arrival on Sim, wall-clock submission on
	// Native) to completion. Sojourn − Span is time spent queued
	// before any worker picked the job up; under Run Sojourn equals
	// Span.
	Sojourn units.Time
	// EnergyJ is exact integrated CPU energy. From Run it is the whole
	// machine's over [0, completion]. From a Cluster it is the job's
	// share: the machine's joules over every interval one of the
	// job's tasks held a busy worker, split evenly with the other jobs
	// doing the same. Intervals in which no worker executes any job's
	// task belong to no job, so even a job alone on its machine reads
	// up to 5 % below the machine's joules over its window.
	EnergyJ float64
	// MeterJ is the energy the paper's 100 Hz DAQ rig would report for
	// the machine (Run); a Cluster job has no rig of its own and
	// repeats EnergyJ.
	MeterJ float64
	// EDP is the energy-delay product (exact energy × span).
	EDP float64
	// AvgPowerW is EnergyJ / span.
	AvgPowerW float64
	// Samples is the 100 Hz power trace (time series figures).
	Samples []meter.Sample

	// Scheduler statistics.
	Tasks         int64 // tasks executed (spawned tasks + root)
	Spawns        int64 // tasks pushed to deques
	Steals        int64 // successful steals
	FailedSteals  int64
	TempoSwitches int64 // worker tempo-level changes requested
	DVFSCommits   int64 // domain frequency transitions that actually landed
	Parks         int64 // join-depth-cap parks

	// Failure-recovery history (cluster fault injection; zero/nil
	// otherwise). Retries counts how many times a machine crash evicted
	// the job and the cluster re-placed it; Placements lists every
	// machine that accepted the job, in order — including gossip
	// migrations, so len(Placements) >= Retries+1 when recorded.
	Retries    int64
	Placements []int

	// Residency, summed over worker cores, over the job's window on
	// its machine: from delivery to completion. A retried or
	// gossip-migrated job's residency covers its final placement, from
	// re-delivery, while Sojourn covers its whole stay; a job placed
	// once covers Workers × Sojourn exactly.
	BusyTime units.Time
	SpinTime units.Time
	IdleTime units.Time
	// SlowBusyTime is busy time spent below the maximum frequency.
	SlowBusyTime units.Time
	// FreqBusy maps frequency → busy core-time at that frequency.
	FreqBusy map[units.Freq]units.Time
	// PerWorker breaks residency down by worker.
	PerWorker []WorkerStats
}

// WorkerStats is one worker's residency breakdown.
type WorkerStats struct {
	Busy, SlowBusy, Spin, SlowSpin, Idle units.Time
	Steals                               int64
}

// String renders a human-readable one-run summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s w=%d %s: span=%v", r.System, r.Mode, r.Workers, r.Sched, r.Span)
	if r.Sojourn != r.Span {
		fmt.Fprintf(&b, " sojourn=%v", r.Sojourn)
	}
	fmt.Fprintf(&b, " energy=%.2fJ (meter %.2fJ) avg=%.1fW EDP=%.3f\n",
		r.EnergyJ, r.MeterJ, r.AvgPowerW, r.EDP)
	fmt.Fprintf(&b, "  tasks=%d spawns=%d steals=%d (failed %d) tempo-switches=%d dvfs-commits=%d parks=%d\n",
		r.Tasks, r.Spawns, r.Steals, r.FailedSteals, r.TempoSwitches, r.DVFSCommits, r.Parks)
	fmt.Fprintf(&b, "  residency: busy=%v spin=%v idle=%v slow-busy=%v", r.BusyTime, r.SpinTime, r.IdleTime, r.SlowBusyTime)
	if len(r.FreqBusy) > 0 {
		freqs := make([]units.Freq, 0, len(r.FreqBusy))
		for f := range r.FreqBusy {
			freqs = append(freqs, f)
		}
		sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
		b.WriteString("\n  busy by freq:")
		for _, f := range freqs {
			fmt.Fprintf(&b, " %v=%v", f, r.FreqBusy[f])
		}
	}
	return b.String()
}
