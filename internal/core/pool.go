package core

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"

	"hermes/internal/meter"
	"hermes/internal/obs"
	"hermes/internal/sim"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// ErrPoolClosed is returned by Submit after Close has begun.
var ErrPoolClosed = errors.New("core: pool closed")

// ErrNilRoot is returned by Submit for a request with no root task.
var ErrNilRoot = errors.New("core: nil root task")

// ErrInterrupted is the completion error of a job whose cancellation
// hook fired while work remained: the scheduler skipped task bodies
// and drained the fork-join structure instead of running it. Callers
// that cancelled through a context typically translate it back to the
// context's error.
var ErrInterrupted = errors.New("core: job interrupted by cancellation")

// JobRequest describes one job handed to a Pool.
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
	// once true the job's remaining bodies are skipped and the job
	// completes with ErrInterrupted.
	Cancelled func() bool
	// Done receives the job's report exactly once, on the engine
	// goroutine. It must not block.
	Done func(Report, error)
}

// Pool is the persistent multi-job discrete-event executor: one
// simulated machine — workers, deques, tempo controller, DVFS state,
// power meter — shared by every job submitted to it, exactly as the
// Native pool shares its goroutine workers. Jobs are injected as
// virtual-time arrivals by an in-engine intake process, so concurrent
// jobs genuinely contend for workers and steals inside the simulation,
// and open-system quantities (sojourn time, queueing delay, energy per
// request under load) become measurable deterministically.
//
// Determinism: the simulation's event order depends only on the
// configuration (including Seed) and on each job's virtual arrival
// time and id — never on wall-clock submission timing — because
// external stimuli enter the event order through front-priority
// injection at their virtual timestamps. Submitting a whole trace in
// one Submit call therefore reproduces byte-identical per-job reports
// and observer event sequences run after run: the first batch a pool
// receives is applied before the engine's first event, arrivals at
// virtual time zero included, and a later batch is exact when the pool
// is quiescent. Jobs submitted "at now" from live callers (a serving
// process) get arrival times assigned by wall-clock race and are
// individually valid but not reproducible.
type Pool struct {
	cfg Config
	s   *sched

	msgs chan poolMsg
	dead chan struct{} // closed when the engine goroutine exits

	// pendingClose holds a close message received mid-timeline until
	// the engine is quiescent: applying it between scheduled events
	// would race the wall clock against the virtual one, making the
	// post-drain event tail (idle parks, tempo spin-downs)
	// nondeterministic.
	pendingClose bool

	mu     sync.Mutex
	closed bool
	// broken is set (under mu, after dead closes) by the engine
	// goroutine's teardown before it drains msgs: a Submit that saw
	// broken false while holding mu completed its send before the
	// drain ran, so no message can be stranded unconsumed.
	broken bool
	runErr error // engine crash (scheduler bug), poisons Submit

	wg sync.WaitGroup
}

type poolMsg struct {
	arrivals []*jobRun
	close    bool
}

// jobRun is the engine-side record of one submitted job.
type jobRun struct {
	id        int64
	at        units.Time // requested arrival; <0 = on receipt
	root      wl.Task
	class     Class
	cancelled func() bool
	done      func(Report, error)

	arriveAt    units.Time
	started     bool
	startAt     units.Time
	interrupted bool
	failErr     error
	// delivered marks that the job has entered some machine: arrival
	// framing (arriveAt, JobStart) happens exactly once, while gossip
	// migration may re-deliver an unstarted job to another machine,
	// re-baselining its snapshot there without restarting its sojourn
	// clock.
	delivered bool
	// Fault-recovery state (cluster mode): evicted marks a job whose
	// machine crashed under it — remaining bodies are skipped and the
	// drained job routes through the cluster's requeue instead of a
	// report. retries counts re-placements; placements the machines
	// that accepted the job, in order (recorded only with faults
	// configured).
	evicted    bool
	retries    int64
	placements []int

	tasks, spawns, steals int64
	energyJ               float64 // exact interval-partitioned share of machine joules
	snap                  poolSnap
}

// fail records the job's first task panic; the rest of the job drains
// like a cancellation.
func (j *jobRun) fail(err error) {
	if j.failErr == nil {
		j.failErr = err
	}
}

// poolSnap is a consistent copy of the machine-wide accumulators,
// taken at job arrival and completion; a job's report is the delta.
type poolSnap struct {
	joules                 float64
	busy, spin, idle, slow units.Time
	freqBusy               map[units.Freq]units.Time
	perWorker              []WorkerStats
	failedSteals           int64
	tempoSwitches          int64
	dvfsCommits            int64
	parks                  int64
}

// poolRun is the engine-side pool state; only the engine goroutine
// (its processes plus the tick/idle hooks) touches it.
type poolRun struct {
	intake   *sim.Proc
	arrivals arrivalHeap
	active   []*jobRun
	// injectq holds delivered root tasks awaiting pickup by a worker's
	// schedule loop — the virtual-time analogue of the native
	// executor's intake channel. Roots are taken, not stolen: a
	// worker's own deque only ever holds its own pushes, preserving
	// the immediacy-list invariants.
	injectq []*task
	stop    bool
}

type arrivalHeap []*jobRun

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)   { *h = append(*h, x.(*jobRun)) }
func (h *arrivalHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// NewPool validates cfg and starts the engine goroutine. The pool
// idles (halted cores, no events, no wall-clock work) until jobs
// arrive.
func NewPool(cfg Config) (*Pool, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:  cfg,
		msgs: make(chan poolMsg, 64),
		dead: make(chan struct{}),
	}
	s := newSched(cfg)
	s.pool = &poolRun{}
	p.s = s
	s.eng.SetTick(p.pump)
	s.eng.SetIdle(p.pumpBlocking)
	s.start()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.failRemaining() // closes p.dead
		// The first message — a submission or the close — is applied
		// before the engine's first event, so whether it overtakes the
		// start-up events (idle workers filing their spin-down) is fixed
		// by construction and not by how fast the caller was.
		p.apply(<-p.msgs)
		s.eng.Run()
	}()
	return p, nil
}

// Config returns the validated configuration the pool runs with.
func (p *Pool) Config() Config { return p.cfg }

// pump drains pending submissions without blocking; it runs on the
// engine goroutine between events.
func (p *Pool) pump() {
	for {
		select {
		case msg := <-p.msgs:
			if msg.close {
				p.pendingClose = true
				continue
			}
			p.apply(msg)
		default:
			return
		}
	}
}

// pumpBlocking waits for the next submission (or close) while the
// engine is quiescent; it is the engine's idle hook, so a pool with no
// jobs costs nothing until the next arrival. An idle engine with jobs
// still in flight is a genuine scheduling deadlock — refuse so the
// engine's loud deadlock diagnostics fire instead of hanging silently.
func (p *Pool) pumpBlocking() bool {
	if len(p.s.pool.active) > 0 {
		return false
	}
	if p.pendingClose {
		p.pendingClose = false
		p.apply(poolMsg{close: true})
		return true
	}
	p.apply(<-p.msgs)
	return true
}

// apply folds one external message into the engine-side state and
// injects the intake wake that will act on it. Runs with no process
// current, so Inject is legal.
func (p *Pool) apply(msg poolMsg) {
	s := p.s
	if msg.close {
		s.pool.stop = true
		s.eng.Inject(s.pool.intake, s.eng.Now())
		return
	}
	for _, j := range msg.arrivals {
		if j.at < s.eng.Now() {
			j.at = s.eng.Now()
		}
		heap.Push(&s.pool.arrivals, j)
	}
	if s.pool.arrivals.Len() > 0 {
		s.eng.Inject(s.pool.intake, s.pool.arrivals[0].at)
	}
}

// Submit enqueues a batch of jobs atomically and returns once they
// are handed to the engine. A pool's first batch, and any batch
// submitted to a quiescent pool, is delivered exactly at its virtual
// arrival times; see the Pool determinism contract.
func (p *Pool) Submit(reqs ...JobRequest) error {
	if len(reqs) == 0 {
		return nil
	}
	jobs := make([]*jobRun, len(reqs))
	for i, rq := range reqs {
		if rq.Root == nil {
			return ErrNilRoot
		}
		if rq.ID <= 0 {
			return fmt.Errorf("core: job id must be positive, got %d", rq.ID)
		}
		if rq.Done == nil {
			return fmt.Errorf("core: job %d has no completion callback", rq.ID)
		}
		if err := rq.Class.Validate(); err != nil {
			return err
		}
		jobs[i] = &jobRun{
			id:        rq.ID,
			at:        rq.At,
			root:      rq.Root,
			class:     rq.Class,
			cancelled: rq.Cancelled,
			done:      rq.Done,
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if p.broken {
		return fmt.Errorf("core: pool engine stopped: %v", p.runErr)
	}
	// The send happens under p.mu so submission batches and the close
	// message reach the engine in a well-defined order, and so a send
	// racing engine teardown always completes before failRemaining's
	// drain (which takes p.mu after setting broken). The dead case
	// covers a full channel with no consumer left.
	select {
	case p.msgs <- poolMsg{arrivals: jobs}:
		return nil
	case <-p.dead:
		return fmt.Errorf("core: pool engine stopped: %v", p.runErr)
	}
}

// Close rejects further submissions, delivers and completes every
// already-submitted job (pending virtual arrivals included), then
// stops the engine. Safe to call more than once.
func (p *Pool) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		select {
		case p.msgs <- poolMsg{close: true}:
		case <-p.dead:
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	return p.engineErr()
}

func (p *Pool) engineErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runErr
}

// MachineEnergyJ returns the machine's total integrated energy over
// the pool's lifetime. Valid after Close; it is the quantity per-job
// attributed energies partition.
func (p *Pool) MachineEnergyJ() float64 {
	<-p.dead
	return p.s.met.Energy()
}

// MachineStats is the machine-wide aggregate through the pool's most
// recent job completion — the quantities per-job Reports carry only as
// deltas over their own sojourn windows, which overlap under load and
// so cannot be summed. Open-system evaluations (energy, power and
// DVFS-tier residency vs offered load) read the machine totals from
// here. The snapshot is taken at the last JobDone rather than at
// engine shutdown: the time at which Close lands relative to the idle
// engine's parked daemons is a wall-clock race, whereas the trace's
// last completion is a deterministic virtual instant — so for a fixed
// config, seed and arrival trace this aggregate is byte-reproducible.
type MachineStats struct {
	// Elapsed is the virtual time of the last job completion: the
	// trace's makespan when the pool started quiescent at time zero.
	Elapsed units.Time
	// EnergyJ is the machine's exact integrated energy through Elapsed
	// (MachineEnergyJ keeps integrating idle draw until shutdown, so it
	// is at least this).
	EnergyJ float64

	// Residency, summed over worker cores.
	Busy, Spin, Idle units.Time
	// SlowBusy is busy time spent below the maximum frequency.
	SlowBusy units.Time
	// FreqBusy maps frequency → busy core-time at that frequency: the
	// DVFS-tier residency of everything the pool executed.
	FreqBusy map[units.Freq]units.Time

	// Scheduler totals across all jobs.
	Tasks, Spawns, Steals, FailedSteals int64
	TempoSwitches, DVFSCommits, Parks   int64
}

// MachineStats returns the machine-wide totals through the last job
// completion. It blocks until the engine goroutine has exited, so call
// it after Close (like MachineEnergyJ); the returned snapshot is final
// and immutable. A pool that never completed a job returns the zero
// aggregate.
func (p *Pool) MachineStats() MachineStats {
	<-p.dead
	s := p.s
	snap := s.lastDone
	ms := MachineStats{
		Elapsed:       s.lastDoneAt,
		EnergyJ:       snap.joules,
		Busy:          snap.busy,
		Spin:          snap.spin,
		Idle:          snap.idle,
		SlowBusy:      snap.slow,
		FreqBusy:      make(map[units.Freq]units.Time, len(snap.freqBusy)),
		Tasks:         s.lastDoneTasks,
		Spawns:        s.lastDoneSpawns,
		Steals:        s.lastDoneSteals,
		FailedSteals:  snap.failedSteals,
		TempoSwitches: snap.tempoSwitches,
		DVFSCommits:   snap.dvfsCommits,
		Parks:         snap.parks,
	}
	for f, t := range snap.freqBusy {
		ms.FreqBusy[f] = t
	}
	return ms
}

// failRemaining runs when the engine goroutine exits: on a clean
// shutdown there is nothing left, but if the engine died to a
// scheduler panic every in-flight and queued job still needs its
// completion callback. It runs after sim.Engine.Run has returned or
// panicked, so the engine-side state is quiescent. Ordering matters:
// p.dead closes first (unblocking any sender stuck on a full
// channel), then broken is set and the channel drained under p.mu —
// a Submit that saw broken false completed its send under the same
// mutex, so the drain sees every message no late sender can strand.
func (p *Pool) failRemaining() {
	var cause error
	if r := recover(); r != nil {
		cause = fmt.Errorf("core: pool engine panicked: %v", r)
	} else {
		cause = ErrPoolClosed
	}
	close(p.dead)
	fail := func(j *jobRun) {
		if j.done != nil {
			done := j.done
			j.done = nil
			done(Report{}, cause)
		}
	}
	p.mu.Lock()
	p.broken = true
	if p.runErr == nil && cause != ErrPoolClosed {
		p.runErr = cause
	}
	// Batches sent but never pumped.
	for {
		select {
		case msg := <-p.msgs:
			for _, j := range msg.arrivals {
				fail(j)
			}
			continue
		default:
		}
		break
	}
	p.mu.Unlock()
	for _, j := range p.s.pool.active {
		fail(j)
	}
	for _, j := range p.s.pool.arrivals {
		fail(j)
	}
}

// --- engine-side scheduling -----------------------------------------

// intakeLoop is the virtual-time arrival process: it sleeps until the
// earliest pending arrival, delivers every arrival that is due (in
// (time, id) order), and parks when none are pending. External
// submissions reach it through front-priority injected wakes, job
// completions through Wake, so it also drives the shutdown handshake.
func (s *sched) intakeLoop(p *sim.Proc) {
	for {
		if s.pool.stop && s.pool.arrivals.Len() == 0 && len(s.pool.active) == 0 {
			s.poolShutdown()
			return
		}
		if s.pool.arrivals.Len() > 0 && s.pool.arrivals[0].at <= s.eng.Now() {
			j := heap.Pop(&s.pool.arrivals).(*jobRun)
			s.deliver(j)
			// Delivery can complete the job on this very process (a
			// job already cancelled at arrival): re-evaluate the
			// shutdown condition instead of parking past it.
			continue
		}
		if s.pool.arrivals.Len() > 0 {
			p.WaitUntil(s.pool.arrivals[0].at)
			continue
		}
		p.ParkUntilWake()
	}
}

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
	j.snap = s.poolSnapNow()
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
		s.jobDone(j, true)
		return
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
	s.profProc.Wake()
}

// poolTake hands out the delivered root the dispatch policy ranks
// first (delivery order under FIFO), or nil. Only meaningful in pool
// mode.
func (s *sched) poolTake() *task {
	if s.pool == nil || len(s.pool.injectq) == 0 {
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
// framing with the virtual sojourn, the completion callback, and — if
// the pool is both stopping and drained — the intake wake that lets
// shutdown proceed. fromIntake marks completion on the intake process
// itself (a job cancelled at arrival): it must not wake itself, and
// its own loop re-checks the shutdown condition instead.
func (s *sched) jobDone(j *jobRun, fromIntake bool) {
	if j != nil && j.evicted && s.onEvicted != nil {
		// The machine crashed under this job and its fork-join drain
		// just finished: no report, no JobDone framing, no aggregate
		// freeze — the job re-enters placement through the cluster.
		// Sojourn keeps running across the retry; tasks, steals and
		// attributed energy accumulate across attempts.
		s.touch()
		for i, a := range s.pool.active {
			if a == j {
				s.pool.active = append(s.pool.active[:i], s.pool.active[i+1:]...)
				break
			}
		}
		s.onEvicted(j)
		return
	}
	s.touch()
	now := s.eng.Now()
	end := s.poolSnapNow()
	rep := s.buildJobReport(j, now, end)
	for i, a := range s.pool.active {
		if a == j {
			s.pool.active = append(s.pool.active[:i], s.pool.active[i+1:]...)
			break
		}
	}
	s.emit(obs.Event{Kind: obs.JobDone, Job: j.id, Time: now, Worker: -1, Victim: -1,
		Energy: rep.EnergyJ, Sojourn: now - j.arriveAt})
	// Freeze the machine aggregate at this completion: MachineStats
	// reports through the LAST job done, a deterministic virtual
	// instant, not through the wall-clock-racy shutdown time.
	s.lastDone = end
	s.lastDoneAt = now
	s.lastDoneTasks, s.lastDoneSpawns, s.lastDoneSteals = s.tasks, s.spawns, s.steals
	var err error
	switch {
	case j.failErr != nil:
		err = j.failErr
	case j.interrupted:
		err = ErrInterrupted
	}
	done := j.done
	j.done = nil
	done(rep, err)
	s.trimSamples()
	if s.onJobDone != nil {
		s.onJobDone()
	}
	if !fromIntake && len(s.pool.active) == 0 && s.pool.stop && s.pool.arrivals.Len() == 0 {
		s.pool.intake.Wake()
	}
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

// poolSnapNow copies the machine-wide accumulators; callers touch()
// first.
func (s *sched) poolSnapNow() poolSnap {
	snap := poolSnap{
		joules:        s.met.Energy(),
		busy:          s.busy,
		spin:          s.spin,
		idle:          s.idle,
		slow:          s.slowBusy,
		freqBusy:      make(map[units.Freq]units.Time, len(s.freqBusy)),
		perWorker:     make([]WorkerStats, len(s.perWorker)),
		failedSteals:  s.failedSteals,
		tempoSwitches: s.tempoSwitches,
		dvfsCommits:   s.dvfsCommitCount,
		parks:         s.parks,
	}
	for f, t := range s.freqBusy {
		snap.freqBusy[f] = t
	}
	copy(snap.perWorker, s.perWorker)
	return snap
}

// buildJobReport renders a job's report as the machine delta over its
// sojourn window [arrival, completion]. Tasks, Spawns and Steals are
// exact per-job attributions; counts the machine cannot attribute to
// one job (failed steals, tempo switches, residency) cover everything
// that happened during the window, concurrent neighbours included.
// Energy is the exact interval partition accumulated by touch():
// worker-time weighted like the Native backend, but integrated per
// interval, so the sum over concurrent jobs equals the machine's
// joules over every instant a job held a worker — no double counting
// regardless of how the jobs' windows overlap.
func (s *sched) buildJobReport(j *jobRun, now units.Time, end poolSnap) Report {
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
	r := Report{
		System:        s.cfg.Spec.Name,
		Workers:       s.cfg.Workers,
		Mode:          s.cfg.Mode,
		Sched:         s.cfg.Scheduling,
		Class:         j.class,
		Span:          span,
		Sojourn:       sojourn,
		EnergyJ:       energy,
		MeterJ:        energy, // the DAQ meters the machine, not one job
		EDP:           meter.EDP(energy, span),
		Samples:       samples,
		Tasks:         j.tasks,
		Spawns:        j.spawns,
		Steals:        j.steals,
		FailedSteals:  end.failedSteals - j.snap.failedSteals,
		TempoSwitches: end.tempoSwitches - j.snap.tempoSwitches,
		DVFSCommits:   end.dvfsCommits - j.snap.dvfsCommits,
		Parks:         end.parks - j.snap.parks,
		BusyTime:      end.busy - j.snap.busy,
		SpinTime:      end.spin - j.snap.spin,
		IdleTime:      end.idle - j.snap.idle,
		SlowBusyTime:  end.slow - j.snap.slow,
		FreqBusy:      map[units.Freq]units.Time{},
		PerWorker:     make([]WorkerStats, len(end.perWorker)),
		Retries:       j.retries,
		Placements:    append([]int(nil), j.placements...),
	}
	if sojourn > 0 {
		r.AvgPowerW = energy / sojourn.Seconds()
	}
	for f, t := range end.freqBusy {
		if d := t - j.snap.freqBusy[f]; d > 0 {
			r.FreqBusy[f] = d
		}
	}
	for i := range end.perWorker {
		a, b := j.snap.perWorker[i], end.perWorker[i]
		r.PerWorker[i] = WorkerStats{
			Busy:     b.Busy - a.Busy,
			SlowBusy: b.SlowBusy - a.SlowBusy,
			Spin:     b.Spin - a.Spin,
			SlowSpin: b.SlowSpin - a.SlowSpin,
			Idle:     b.Idle - a.Idle,
			Steals:   b.Steals - a.Steals,
		}
	}
	return r
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
