// Package hermes is an energy-efficient work-stealing runtime — a Go
// reproduction of "Energy-Efficient Work-Stealing Language Runtimes"
// (Ribic & Liu, ASPLOS 2014) grown into a service-style scheduler.
//
// Programs express fork-join parallelism through the Ctx API and run
// on a Cilk-style work-stealing scheduler whose workers execute at
// different tempos: CPU frequencies chosen by the paper's
// workpath-sensitive algorithm (thieves run slower than their victims;
// immediacy is relayed when a victim drains) and workload-sensitive
// algorithm (deque size against online-profiled thresholds).
//
// The primary entry point is the persistent Runtime, constructed with
// functional options and serving a stream of jobs over one
// work-stealing pool:
//
//	rt, err := hermes.New(
//		hermes.WithWorkers(8),
//		hermes.WithMode(hermes.Unified),
//		hermes.WithBackend(hermes.Native),
//	)
//	if err != nil { ... }
//	defer rt.Close()
//
//	job, err := rt.Submit(ctx, func(c hermes.Ctx) {
//		hermes.For(c, 0, 1000, 10, func(c hermes.Ctx, lo, hi int) {
//			// real work for elements [lo, hi), plus its cost model
//			c.WorkMix(50_000*hermes.Cycles(hi-lo), 0.5)
//		})
//	})
//	if err != nil { ... }
//	report, err := job.Wait()
//
// Two backends serve the same API. Sim (the default) is the
// deterministic discrete-event simulator — clock domains, DVFS
// latency, a calibrated power model and a 100 Hz energy meter modeled
// on the paper's measurement rig — where concurrent jobs multiplex
// over the simulated machine as virtual-time arrivals: every Report
// is bit-reproducible for a fixed config, seed and arrival trace
// (SubmitTrace schedules a whole trace at explicit virtual times),
// making the simulator the measurement instrument for open-system
// queueing — sojourn time, steal interference between jobs, energy
// per request under load — as well as single runs. Native executes on
// real goroutine workers, multiplexing all submitted jobs over one
// shared pool with tempo throttling applied in wall-clock time: the
// service engine. Jobs are cancelled cooperatively through their
// submission context, and WithObserver streams scheduler events
// (steals, tempo switches, energy samples, job lifecycle with
// per-job sojourn) for telemetry.
//
// The original one-shot entry point remains for simulator runs:
//
//	report := hermes.Run(hermes.Config{Workers: 8}, root)
package hermes

import (
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// Ctx is the per-task handle workloads use to fork, join and account
// work. See internal/wl for the full contract.
type Ctx = wl.Ctx

// Task is a unit of parallel work.
type Task = wl.Task

// Config configures a run; the zero value selects System A with one
// worker per clock domain, baseline mode.
type Config = core.Config

// Report is the measured outcome of a run.
type Report = core.Report

// MachineStats is the simulated machine's lifetime aggregate
// (Runtime.MachineStats, Sim backend).
type MachineStats = core.MachineStats

// Mode selects the tempo-control strategy.
type Mode = core.Mode

// Scheduling selects the worker-core mapping policy.
type Scheduling = core.Scheduling

// Scheduler modes (Config.Mode).
const (
	// Baseline is classic work stealing, all cores at max frequency.
	Baseline = core.Baseline
	// WorkpathOnly enables thief procrastination + immediacy relay.
	WorkpathOnly = core.WorkpathOnly
	// WorkloadOnly enables deque-size-driven tempo control.
	WorkloadOnly = core.WorkloadOnly
	// Unified enables both strategies — full HERMES.
	Unified = core.Unified
)

// Worker-core scheduling policies (Config.Scheduling).
const (
	Static  = core.Static
	Dynamic = core.Dynamic
)

// Class is a job's service class: tenant label, scheduling priority,
// optional deadline and SLO target. The zero Class is unclassed
// traffic — exactly the pre-class behaviour. Attach with WithClass
// (Submit) or Arrival.Class (SubmitTrace).
type Class = core.Class

// Dispatch selects how a machine's intake orders ready jobs
// (WithDispatch).
type Dispatch = core.Dispatch

// Dispatch policies (Config.Dispatch, WithDispatch).
const (
	// DispatchFIFO serves ready jobs in delivery order — the
	// class-blind default, byte-identical to the pre-class runtime.
	DispatchFIFO = core.DispatchFIFO
	// DispatchPriority serves the highest Class.Priority first.
	DispatchPriority = core.DispatchPriority
	// DispatchEDF serves the earliest absolute deadline first;
	// deadline-less jobs run after every deadlined one.
	DispatchEDF = core.DispatchEDF
)

// Time and work units.
type (
	// Time is virtual time in picoseconds.
	Time = units.Time
	// Freq is a CPU frequency in kHz.
	Freq = units.Freq
	// Cycles is computational work in CPU cycles.
	Cycles = units.Cycles
)

// Common unit constants, re-exported for configuration literals.
const (
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
	KHz         = units.KHz
	MHz         = units.MHz
	GHz         = units.GHz
)

// SystemA returns the paper's System A machine model: 2× 16-core AMD
// Opteron 6378, 16 clock domains, 1.4–2.4 GHz.
func SystemA() *cpu.Spec { return cpu.SystemA() }

// SystemB returns the paper's System B machine model: 8-core AMD
// FX-8150, 4 clock domains, 1.4–3.6 GHz.
func SystemB() *cpu.Spec { return cpu.SystemB() }

// DefaultFreqs returns the paper's default 2-frequency tempo mapping
// for a system.
func DefaultFreqs(spec *cpu.Spec) []Freq { return core.DefaultFreqs(spec) }

// Run executes root to completion on the simulator under cfg and
// returns the measured report — the original one-shot API, kept as a
// thin wrapper over the Sim backend. Runs are deterministic for a
// fixed config and seed. Invalid configs panic; use New for the
// error-returning persistent API.
func Run(cfg Config, root Task) Report { return core.Run(cfg, root) }

// For runs body over [lo, hi) in parallel chunks of at most grain
// elements using Cilk-style recursive splitting.
func For(c Ctx, lo, hi, grain int, body func(Ctx, int, int)) { wl.For(c, lo, hi, grain, body) }

// Seq runs tasks serially on the current worker.
func Seq(c Ctx, tasks ...Task) { wl.Seq(c, tasks...) }
