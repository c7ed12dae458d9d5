package core

import (
	"errors"

	"hermes/internal/meter"
	"hermes/internal/obs"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// ErrPoolClosed is returned by Submit after Close has begun.
var ErrPoolClosed = errors.New("core: pool closed")

// ErrNilRoot is returned by Submit for a request with no root task.
var ErrNilRoot = errors.New("core: nil root task")

// Interrupted is the completion error, on both executors, of a job
// whose cancellation cut work short: its cause, joined before a task
// panic raised in the job, since the skipped work may be what a
// self-checking task panicked over.
func Interrupted(cause, panicked error) error {
	if panicked == nil {
		return cause
	}
	return errors.Join(cause, panicked)
}

// JobRequest describes one job handed to a Cluster.
type JobRequest struct {
	// ID is the caller-assigned job id: unique, positive, and
	// ascending in submission order (it breaks virtual-time ties
	// between arrivals).
	ID int64
	// At is the requested virtual arrival time. Negative means "on
	// receipt": the engine's current virtual now. Arrivals whose time
	// has already passed are delivered immediately at now.
	At units.Time
	// Root is the job's root task.
	Root wl.Task
	// Class is the job's service class (tenant, priority, deadline,
	// SLO target). The zero Class reproduces pre-class behaviour.
	Class Class
	// Cancelled, if non-nil, is polled at spawn and task boundaries;
	// once it returns an error the job's remaining bodies are skipped
	// and the job completes with Interrupted(that error, any panic).
	Cancelled func() error
	// Done receives the job's report exactly once, on the engine
	// goroutine. It must not block.
	Done func(Report, error)
}

// MachineStats is one machine's aggregate through the most recent job
// completion of the Cluster it belongs to — the quantities per-job
// Reports carry only as deltas over their own sojourn windows, which
// overlap under load and so cannot be summed. Open-system
// evaluations (energy, power and DVFS-tier residency vs offered load)
// read the machine totals from here. The snapshot is taken at the last
// JobDone rather than at engine shutdown: the time at which Close lands
// relative to the idle engine's parked daemons is a wall-clock race,
// whereas the trace's last completion is a deterministic virtual
// instant — so for a fixed config, seed and arrival trace this
// aggregate is byte-reproducible.
type MachineStats struct {
	// Elapsed is the virtual time of the last job completion: the
	// trace's makespan when the cluster started quiescent at time zero.
	// On Native it is the wall-clock time since start of the read.
	Elapsed units.Time
	// EnergyJ is the machine's exact integrated energy through Elapsed
	// (the meter keeps integrating idle draw until shutdown, so its
	// lifetime total is at least this).
	EnergyJ float64

	// Residency, summed over worker cores.
	Busy, Spin, Idle units.Time
	// SlowBusy is busy time spent below the maximum frequency.
	SlowBusy units.Time
	// FreqBusy maps frequency → busy core-time at that frequency: the
	// DVFS-tier residency of everything the machine executed.
	FreqBusy map[units.Freq]units.Time

	// Scheduler totals across all jobs.
	Tasks, Spawns, Steals, FailedSteals int64
	TempoSwitches, DVFSCommits, Parks   int64
}

// jobRun is the engine-side record of one submitted job.
type jobRun struct {
	id        int64
	at        units.Time // requested arrival; <0 = on receipt
	root      wl.Task
	class     Class
	cancelled func() error
	done      func(Report, error)

	arriveAt    units.Time
	started     bool
	startAt     units.Time
	interrupted error // the cancellation's cause, once it skipped work
	failErr     error
	// delivered marks that the job has entered some machine: arrival
	// framing (arriveAt, JobStart) happens exactly once, while gossip
	// migration may re-deliver an unstarted job to another machine,
	// re-baselining its snapshot there without restarting its sojourn
	// clock.
	delivered bool
	// Fault-recovery state: evicted marks a job whose machine crashed
	// under it — remaining bodies are skipped and the drained job routes
	// through the cluster's requeue instead of a report. retries counts
	// re-placements; placements the machines that accepted the job, in
	// order (recorded only with faults configured).
	evicted    bool
	retries    int64
	placements []int

	tasks, spawns, steals int64
	energyJ               float64 // exact interval-partitioned share of machine joules
	// snap is the machine's ledger at delivery, from the machine's
	// spare list; jobDone returns it there.
	snap *Ledger
	// ctxs holds the job's Ctx on each worker of the machine it was
	// last delivered to.
	ctxs []ctx
}

// ctx returns the job's Ctx on worker w.
func (j *jobRun) ctx(w *worker) *ctx { return &j.ctxs[w.id] }

// fail records the job's first task panic; the rest of the job drains
// like a cancellation.
func (j *jobRun) fail(err error) {
	if j.failErr == nil {
		j.failErr = err
	}
}

// finish hands the job its report, exactly once.
func (j *jobRun) finish(rep Report, err error) {
	if done := j.done; done != nil {
		j.done = nil
		done(rep, err)
	}
}

// poolRun is one machine's job-stream state; only the engine goroutine
// (its processes plus the tick/idle hooks) touches it.
type poolRun struct {
	// active holds every job in the machine's system, queued or
	// executing.
	active []*jobRun
	// injectq holds delivered root tasks awaiting pickup by a worker's
	// schedule loop — the virtual-time analogue of the native
	// executor's intake channel. Roots are taken, not stolen: a
	// worker's own deque only ever holds its own pushes, preserving
	// the immediacy-list invariants.
	injectq []*task
}

// dropActive removes j from the machine's system.
func (p *poolRun) dropActive(j *jobRun) {
	for i, a := range p.active {
		if a == j {
			p.active = append(p.active[:i], p.active[i+1:]...)
			return
		}
	}
}

// --- engine-side scheduling -----------------------------------------

// deliver admits one job at the current virtual time: baseline
// snapshots for the delta report, JobStart framing, root task onto a
// worker deque, and a wake for the (possibly halted) machine. A job
// already cancelled at arrival completes immediately without
// executing. Re-delivery (gossip migration moving an unstarted job to
// another machine) re-baselines the machine snapshot on the new
// machine but keeps the original arrival: the job's sojourn spans its
// whole time in the cluster, wherever it ran.
func (s *sched) deliver(j *jobRun) {
	now := s.eng.Now()
	s.touch()
	if j.snap == nil {
		j.snap = s.spareLedger()
	}
	s.snapInto(j.snap)
	if !j.delivered {
		j.delivered = true
		j.arriveAt = now
		s.emit(obs.Event{Kind: obs.JobStart, Job: j.id, Time: now, Worker: -1, Victim: -1})
	}
	if s.onEvicted != nil {
		j.placements = append(j.placements, s.mid)
	}
	s.pool.active = append(s.pool.active, j)
	if s.taskCancelled(j) {
		s.jobDone(j)
		return
	}
	if len(j.ctxs) == 0 || j.ctxs[0].w.s != s {
		j.ctxs = make([]ctx, len(s.workers))
		for i, w := range s.workers {
			j.ctxs[i] = ctx{w: w, j: j}
		}
	}
	s.pool.injectq = append(s.pool.injectq, &task{fn: j.root, job: j, root: true})
	// Wake only idle-halted workers: busy workers find the root at
	// their next schedule pass, and workers parked on fork-join blocks
	// cannot take it anyway.
	for _, w := range s.workers {
		if w.idlePark {
			w.proc.Wake()
		}
	}
	if s.profWait == waitIdle {
		s.profProc.Wake()
	}
}

// poolTake hands out the delivered root the dispatch policy ranks
// first (delivery order under FIFO), or nil.
func (s *sched) poolTake() *task {
	if len(s.pool.injectq) == 0 {
		return nil
	}
	i := s.poolPick()
	t := s.pool.injectq[i]
	if i == 0 {
		s.pool.injectq = s.pool.injectq[1:]
	} else {
		s.pool.injectq = append(s.pool.injectq[:i], s.pool.injectq[i+1:]...)
	}
	return t
}

// jobDone completes a job: snapshot deltas into its report, JobDone
// framing with the virtual sojourn, the completion callback, and the
// cluster's completion hook, which receives the same end-of-job
// snapshot. A job whose machine crashed under it has just finished
// draining instead: no report, no JobDone framing, no aggregate freeze
// — it re-enters placement through the cluster. Sojourn keeps running
// across the retry; tasks, steals and attributed energy accumulate
// across attempts.
func (s *sched) jobDone(j *jobRun) {
	s.touch()
	if j.evicted && s.onEvicted != nil {
		s.pool.dropActive(j)
		s.onEvicted(j)
		return
	}
	now := s.eng.Now()
	s.snapInto(&s.end)
	rep := s.buildJobReport(j, now, &s.end)
	s.spare = append(s.spare, j.snap)
	j.snap = nil
	s.pool.dropActive(j)
	s.emit(obs.Event{Kind: obs.JobDone, Job: j.id, Time: now, Worker: -1, Victim: -1,
		Energy: rep.EnergyJ, Sojourn: now - j.arriveAt})
	err := j.failErr
	if j.interrupted != nil {
		err = Interrupted(j.interrupted, err)
	}
	j.finish(rep, err)
	s.trimSamples()
	s.onJobDone(&s.end)
}

// poolShutdown ends the simulation: every process observes done and
// exits, draining the engine.
func (s *sched) poolShutdown() {
	s.touch()
	s.done = true
	for _, w := range s.workers {
		w.proc.Wake()
	}
	s.dvfsProc.Wake()
	s.profProc.Wake()
}

// buildJobReport renders a job's report as the machine ledger's delta
// (Ledger.Since) over [delivery, completion]: the sojourn window, or
// its final placement's part of it after a retry or a gossip move.
// Tasks, Spawns and Steals are exact per-job attributions; counts the
// machine cannot attribute to one job (failed steals, tempo switches,
// residency) cover everything that happened during the window,
// concurrent neighbours included.
// Energy is the exact interval partition accumulated by touch():
// worker-time weighted like the Native backend, but integrated per
// interval, so the sum over concurrent jobs equals the machine's
// joules over every instant some worker executed a job's task — no
// double counting however the jobs' windows overlap, and less than
// the machine's joules over the window, for a job alone too (see
// touch). Run overwrites the four energy fields with the machine's.
func (s *sched) buildJobReport(j *jobRun, now units.Time, end *Ledger) Report {
	var span units.Time
	if j.started {
		span = now - j.startAt
	}
	sojourn := now - j.arriveAt
	energy := j.energyJ
	var samples []meter.Sample
	for _, smp := range s.met.Samples() {
		if smp.T >= j.arriveAt && smp.T <= now {
			samples = append(samples, smp)
		}
	}
	r := end.Since(j.snap, s.cfg.Freqs)
	r.System, r.Workers, r.Mode, r.Sched, r.Class = s.cfg.Spec.Name, s.cfg.Workers, s.cfg.Mode, s.cfg.Scheduling, j.class
	r.Span, r.Sojourn, r.Samples = span, sojourn, samples
	r.EnergyJ = energy
	r.MeterJ = energy // the DAQ meters the machine, not one job
	r.EDP = meter.EDP(energy, span)
	r.Tasks, r.Spawns, r.Steals = j.tasks, j.spawns, j.steals
	r.Retries, r.Placements = j.retries, append([]int(nil), j.placements...)
	if sojourn > 0 {
		r.AvgPowerW = energy / sojourn.Seconds()
	}
	return r
}

// snapInto copies the machine's ledger into dst, reusing dst's buffer,
// folded probes that have passed and residency through now credited
// first; callers touch() first.
func (s *sched) snapInto(dst *Ledger) {
	for _, w := range s.workers {
		w.creditProbes()
		w.credit()
	}
	dst.CopyFrom(&s.led)
	dst.Joules = s.met.Energy()
}

// spareLedger hands out a ledger buffer for a job's delivery copy.
func (s *sched) spareLedger() *Ledger {
	n := len(s.spare)
	if n == 0 {
		return new(Ledger)
	}
	l := s.spare[n-1]
	s.spare = s.spare[:n-1]
	return l
}

// trimSamples discards 100 Hz meter samples that precede every active
// job's arrival, so a long-lived pool's sample trace stays bounded by
// the in-flight window instead of growing with uptime.
func (s *sched) trimSamples() {
	min := s.eng.Now()
	for _, a := range s.pool.active {
		if a.arriveAt < min {
			min = a.arriveAt
		}
	}
	dropped := s.met.DropSamplesBefore(min)
	s.emittedSamples -= dropped
	if s.emittedSamples < 0 {
		s.emittedSamples = 0
	}
}
