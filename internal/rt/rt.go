package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/deque"
	"hermes/internal/job"
	"hermes/internal/meter"
	"hermes/internal/obs"
	"hermes/internal/power"
	"hermes/internal/tempo"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("rt: executor closed")

// ErrNilTask is returned by Submit for a nil root task.
var ErrNilTask = errors.New("rt: nil root task")

// ErrSimOnly is wrapped by NewExec's refusal of a configuration only
// the simulator implements (ranked dispatch, quantum preemption).
var ErrSimOnly = errors.New("rt: needs the Sim backend")

// injectCap bounds the submission queue; Submit blocks (or honours
// its context) once this many root jobs await pickup.
const injectCap = 4096

// freeListCap bounds each worker's task and block free lists: enough
// to keep steady-state spawn/join allocation-free at any realistic
// fork-join depth without pinning unbounded garbage.
const freeListCap = 256

// task is one deque item: a workload closure, the fork-join block it
// belongs to, and the job it is accounted against. Tasks are pooled
// per worker: a worker that executes a task (its own or stolen)
// recycles it into its own free list.
type task struct {
	fn  wl.Task
	blk *block
	job *jobState
}

// block tracks one fork-join block's outstanding tasks. done is a
// one-token buffered channel: the decrement that reaches zero sends
// the token (never blocking), and the joiner waits on it. Token
// semantics (instead of close) let blocks be pooled: a stale token
// from a previous generation is drained on reuse, and a late sender
// racing the recycle at worst produces one spurious wake, which the
// join loop's pending re-check absorbs.
//
// waiting gates the token: the common case — the owner drains its own
// block without ever sleeping — must not pay a channel operation per
// task. A joiner announces itself (waiting=true) before re-checking
// pending and sleeping; a decrementer that reaches zero signals only
// if a waiter is announced. Sequentially consistent atomics make the
// handshake lossless: either the decrementer sees the announcement
// and signals, or the joiner's re-check sees pending==0 and never
// sleeps.
type block struct {
	pending atomic.Int64
	waiting atomic.Bool
	done    chan struct{}
}

// signal delivers the block's completion token, non-blocking.
func (b *block) signal() {
	select {
	case b.done <- struct{}{}:
	default:
	}
}

// jobWCounts is one worker's private slice of a job's statistics:
// plain fields, written only by that worker, folded into the report
// after the job's fork-join structure has fully drained (the block
// pending-counter chain orders every write before the fold). Padded
// so two workers serving the same job never share a cache line.
type jobWCounts struct {
	tasks, spawns, steals int64
	busyNS                int64
	_                     [32]byte
}

// jobState is the executor-side record of one submitted job.
type jobState struct {
	id      int64
	ctx     context.Context
	j       *job.Job
	rootBlk *block
	start   time.Time
	snap    core.Ledger
	// class is the job's service class: carried into the Report (and
	// so into per-class metrics), never scheduled on — this executor's
	// channel intake is inherently FIFO.
	class core.Class

	cancelled atomic.Bool
	// interrupted records that cancellation actually preempted work
	// (as opposed to the context merely expiring after the job
	// finished); only then does the job complete with ctx's error.
	interrupted atomic.Bool
	// execStart is the monotonic offset (nanoseconds since executor
	// start, 0 = never picked up) when a worker first ran one of the
	// job's tasks: Span measures from here, Sojourn from submission,
	// so Sojourn − Span is queueing delay — the same contract as the
	// Sim pool. Monotonic offsets keep Span immune to wall-clock
	// steps.
	execStart atomic.Int64
	// perW holds each worker's exact task/spawn/steal counts and
	// busy-nanoseconds for this job (the energy-attribution weight),
	// written lock-free by the owning worker.
	perW []jobWCounts

	failMu  sync.Mutex
	failErr error // first task panic, reported from Wait
}

// fail records the job's first task panic and drains the rest of the
// job like a cancellation.
func (js *jobState) fail(err error) {
	js.failMu.Lock()
	if js.failErr == nil {
		js.failErr = err
	}
	js.failMu.Unlock()
	js.cancelled.Store(true)
}

// taskErr returns the job's recorded task panic, if any.
func (js *jobState) taskErr() error {
	js.failMu.Lock()
	defer js.failMu.Unlock()
	return js.failErr
}

type worker struct {
	e   *Exec
	id  int
	dq  *deque.ChaseLev[task]
	rng rngState

	backoff time.Duration

	// lastState shadows the published core state so the owner can
	// skip the accounting transition when the state is unchanged (the
	// common pop→run→pop chain stays Busy throughout). Only the
	// owning worker changes its state, so the shadow needs no lock.
	lastState cpu.CoreState
	// parked records that the tempo policy has filed this worker's
	// park-time tempo and nothing has moved it since: idleWait sets it
	// on the way into the halt (at boot too), a root take or a landed
	// steal clears it, and so does SetMode's reset.
	parked atomic.Bool
	// curFreq publishes the worker's tempo frequency for lock-free
	// reads on the Work hot path. Only retuneLocked (under tempoMu)
	// writes it.
	curFreq atomic.Int64
	// reqFreq is the last frequency retuneLocked committed; tempoMu
	// guards it.
	reqFreq units.Freq
	// jsSinceNS marks (in monotonic ns since executor start) when the
	// worker last switched its accounting context (cur.js): the
	// contiguous interval since then is the current job's busy time.
	// Flushed by switchJob at job switches and top-level frame exits
	// only, so a run of same-job tasks costs zero clock reads at task
	// boundaries. Owner-only.
	jsSinceNS int64

	// acct is the worker's lock-free accounting cell (see acct.go).
	acct acct

	// freeTasks and freeBlocks recycle deque items and fork-join
	// blocks: owner-only, capacity-bounded, never grown past their
	// preallocated capacity.
	freeTasks  []*task
	freeBlocks []*block
	// idleTimer is the reusable backoff timer for idleWait — one
	// timer per worker, Reset per cycle, instead of an allocation on
	// every idle loop.
	idleTimer *time.Timer

	// cur is the worker's reusable task context: runTask points
	// cur.js at the running job (save/restore around nested frames)
	// and hands tasks curIface, so entering a task never boxes a new
	// interface value.
	cur      wctx
	curIface wl.Ctx
}

// rngState is a tiny splitmix64 PRNG: victim selection needs speed,
// not quality, and each worker owns its own state (no locking).
type rngState uint64

func (r *rngState) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rngState) intn(n int) int { return int(r.next() % uint64(n)) }

// Exec is a persistent real-concurrency worker pool serving submitted
// jobs. All methods are safe for concurrent use.
type Exec struct {
	cfg   core.Config
	model *power.Model

	// mode is the live tempo mode, read by the scheduling hot paths via
	// modeNow and replaced by SetMode: cfg.Mode is only the boot value.
	// Hot paths may pre-filter on a mode that SetMode concurrently
	// replaces; the locked tempo sections re-read it under tempoMu,
	// where SetMode stores it and resets the policy.
	mode atomic.Int32

	workers []*worker
	// tempo is the pool's tempo policy; every call but its lock-free
	// pre-checks runs under tempoMu. It is declared apart from the
	// lock so that push and pop, which load it on every task, never
	// share a cache line with the lock's writes.
	tempo   *tempo.Policy
	injectq chan *task
	closeCh chan struct{}
	start   time.Time

	// watts[state-1][fi] is the modeled per-core draw for a worker in
	// that state at tempo frequency cfg.Freqs[fi]; baseWatts is the
	// constant machine floor (uncore per package plus the power-gated
	// draw of cores no worker occupies). Together with the per-worker
	// residency matrices they yield the exact integrated machine
	// energy without any global meter lock.
	watts     [3][core.MaxFreqs]float64
	baseWatts float64

	// tempoMu serializes every call into the tempo policy and the
	// frequency votes of its retune callback. The hot path pre-checks
	// through the policy's lock-free MayRaise and MayLower, so this
	// lock is taken only when a tier crossing is actually possible, on
	// landed steals and root takes (already slow paths), when a worker
	// runs out of work or parks, and by the profiler. pend holds the
	// observer events the callback queued under the lock. shrinkLocks
	// counts afterShrink's acquisitions and shrinkIdle those that moved
	// no tier; both are counted under the lock.
	tempoMu     sync.Mutex
	pend        []obs.Event
	shrinkLocks int64
	shrinkIdle  int64

	tempoSwitches atomic.Int64
	dvfsCommits   atomic.Int64

	active atomic.Int64 // jobs submitted and not yet completed
	nextID atomic.Int64

	submitMu sync.Mutex
	closed   bool
	jobWG    sync.WaitGroup
	workerWG sync.WaitGroup
}

// nowNS is the executor's monotonic clock: nanoseconds since start.
func (e *Exec) nowNS() int64 { return time.Since(e.start).Nanoseconds() }

// NewExec validates cfg, starts the worker pool and returns the
// executor. The pool idles (halted cores, no modeled energy draw)
// until jobs arrive. An unset worker count defaults to
// min(GOMAXPROCS, clock domains) — unlike the simulator's
// one-per-domain default, real goroutine workers should not
// oversubscribe the host.
func NewExec(cfg core.Config) (*Exec, error) {
	if cfg.Workers == 0 {
		spec := cfg.Spec
		if spec == nil {
			spec = cpu.SystemA()
		}
		cfg.Workers = runtime.GOMAXPROCS(0)
		if d := spec.Domains(); cfg.Workers > d {
			cfg.Workers = d
		}
	}
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if cfg.Dispatch != core.DispatchFIFO {
		return nil, fmt.Errorf("%w: dispatch policy %v (this executor's intake is FIFO)", ErrSimOnly, cfg.Dispatch)
	}
	if cfg.PreemptQuantum != 0 {
		return nil, fmt.Errorf("%w: preemption quantum", ErrSimOnly)
	}
	// Workers are always statically pinned here; reflect that in the
	// config (and so in every report) rather than echoing a Dynamic
	// request this executor does not model.
	cfg.Scheduling = core.Static
	e := &Exec{
		cfg:     cfg,
		model:   power.NewModel(cfg.Spec),
		injectq: make(chan *task, injectCap),
		closeCh: make(chan struct{}),
		start:   time.Now(),
	}
	e.tempo = core.NewTempoPolicy(cfg, e.retuneLocked)
	e.mode.Store(int32(cfg.Mode))
	for st := cpu.IdleHalt; st <= cpu.Busy; st++ {
		for fi, f := range cfg.Freqs {
			e.watts[st-1][fi] = e.model.CoreWatts(st, f)
		}
	}
	p := e.model.P
	e.baseWatts = p.UncoreW*float64(cfg.Spec.Packages) +
		p.UnusedW*float64(cfg.Spec.Cores-cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			e:          e,
			id:         i,
			dq:         deque.NewChaseLev[task](64),
			rng:        rngState(cfg.Seed*7_919 + int64(i) + 1),
			lastState:  cpu.IdleHalt,
			reqFreq:    cfg.Freqs[0],
			freeTasks:  make([]*task, 0, freeListCap),
			freeBlocks: make([]*block, 0, freeListCap),
		}
		w.cur.w = w
		w.curIface = &w.cur
		w.curFreq.Store(int64(cfg.Freqs[0]))
		w.acct.word.Store(packAcct(cpu.IdleHalt, 0, 0))
		e.workers = append(e.workers, w)
	}
	for _, w := range e.workers {
		e.workerWG.Add(1)
		go w.loop()
	}
	// The profiler always runs (cheap per tick) so a later SetMode into
	// a workload-sensitive mode finds live deque-size averages instead
	// of a cold window.
	e.workerWG.Add(1)
	go e.profLoop()
	if cfg.Observer != nil {
		e.workerWG.Add(1)
		go e.meterLoop()
	}
	return e, nil
}

// modeNow returns the live tempo mode (boot value until SetMode
// replaces it).
func (e *Exec) modeNow() core.Mode { return core.Mode(e.mode.Load()) }

// Config returns the validated configuration the pool runs with
// (defaults filled in), with Mode reflecting any live SetMode switch.
func (e *Exec) Config() core.Config {
	cfg := e.cfg
	cfg.Mode = e.modeNow()
	return cfg
}

// SetMode switches the pool's tempo mode while it serves traffic. The
// switch resets all tempo state to the target mode's boot invariants —
// immediacy list emptied, workpath levels zeroed, workload tiers back
// to the top — so every worker restarts at full tempo and the new
// mode's control law takes over from a clean slate (jobs in flight
// keep running throughout; only the DVFS control law changes).
// Switching into a tempo-controlled mode requires the ≥2-frequency
// ladder such a mode would need at construction.
func (e *Exec) SetMode(m core.Mode) error {
	if m > core.Unified {
		return fmt.Errorf("rt: unknown mode %d", m)
	}
	if m != core.Baseline && len(e.cfg.Freqs) < 2 {
		return fmt.Errorf("rt: mode %v needs at least 2 tempo frequencies, pool has %d", m, len(e.cfg.Freqs))
	}
	e.tempoMu.Lock()
	if e.modeNow() == m {
		e.tempoMu.Unlock()
		return nil
	}
	e.mode.Store(int32(m))
	e.tempo.Reset(m)
	for _, w := range e.workers {
		w.parked.Store(false)
	}
	e.tempoUnlock()
	return nil
}

// Submit enqueues root as a new job multiplexed over the shared pool
// and returns its handle as soon as the job is queued; if the intake
// queue is full (injectCap root jobs awaiting pickup) Submit blocks
// until space frees or ctx is cancelled — natural backpressure for a
// saturated pool. The job observes ctx: once ctx is cancelled the
// scheduler stops executing the job's task bodies at spawn and steal
// boundaries, drains its fork-join structure, and completes the job
// with ctx's error.
//
// The class (core.Class{} for unclassed traffic) is recorded on the
// job and echoed in its Report (per-class metrics, tenant filters).
// The channel intake stays FIFO regardless — ranked dispatch is a
// Sim-backend capability, rejected at NewExec.
func (e *Exec) Submit(ctx context.Context, root wl.Task, class core.Class) (*job.Job, error) {
	if root == nil {
		return nil, ErrNilTask
	}
	if err := class.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.submitMu.Lock()
	if e.closed {
		e.submitMu.Unlock()
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		// Already cancelled: never enters the pool, matching the Sim
		// backend's refusal to start a cancelled job (including its
		// job-lifecycle telemetry).
		id := e.nextID.Add(1)
		e.submitMu.Unlock()
		j := job.New(id)
		e.emit(obs.Event{Kind: obs.JobStart, Job: id, Worker: -1, Victim: -1})
		e.emit(obs.Event{Kind: obs.JobDone, Job: id, Worker: -1, Victim: -1})
		j.Finish(core.Report{}, err)
		return j, nil
	}
	js := &jobState{
		id:      e.nextID.Add(1),
		ctx:     ctx,
		rootBlk: &block{done: make(chan struct{}, 1)},
		perW:    make([]jobWCounts, len(e.workers)),
		class:   class,
	}
	js.j = job.New(js.id)
	// watch always waits on the root block, so announce its waiter up
	// front: the final decrement will signal the token.
	js.rootBlk.waiting.Store(true)
	js.rootBlk.pending.Store(1)
	e.active.Add(1)
	e.jobWG.Add(1)
	e.submitMu.Unlock()

	// Baseline snapshot outside submitMu: it folds per-worker cells,
	// and concurrent submitters need not serialize behind that. The
	// job is not yet enqueued, so the baseline still precedes all of
	// its own activity.
	js.snap = e.snapshot()
	js.start = time.Now()
	e.emit(obs.Event{Kind: obs.JobStart, Job: js.id, Worker: -1, Victim: -1})
	go e.watch(js)
	select {
	case e.injectq <- &task{fn: root, blk: js.rootBlk, job: js}:
	case <-ctx.Done():
		// Cancelled before any worker picked the job up: it never
		// entered the pool, so drain its root block directly. This is
		// a genuine interruption even though watch may find the block
		// already signalled.
		js.interrupted.Store(true)
		js.cancelled.Store(true)
		if js.rootBlk.pending.Add(-1) == 0 {
			js.rootBlk.signal()
		}
	}
	return js.j, nil
}

// Close rejects further submissions, waits for every submitted job to
// complete, then stops the workers. It is safe to call from multiple
// goroutines; every call returns only once the pool has fully shut
// down.
func (e *Exec) Close() error {
	e.submitMu.Lock()
	first := !e.closed
	e.closed = true
	e.submitMu.Unlock()
	if first {
		e.jobWG.Wait()
		close(e.closeCh)
	}
	// Concurrent or repeated closers block here until the workers
	// (released by the first closer) have all exited.
	e.workerWG.Wait()
	return nil
}

// watch drives one job's lifecycle: flag cancellation the moment its
// context fires, wait for the fork-join structure to drain, then
// assemble the per-job report from pool deltas. A job whose work
// completed before cancellation took effect reports success — the
// context error is returned only when the run was actually
// interrupted (a task panic beats both).
func (e *Exec) watch(js *jobState) {
	defer e.jobWG.Done()
	select {
	case <-js.ctx.Done():
		// Flag cancellation and wait for the drain. interrupted is
		// set only at the sites that actually skip or cut work short,
		// so a job whose tasks all completed anyway still reports
		// success even if its context expired at the finish line.
		js.cancelled.Store(true)
		<-js.rootBlk.done
	case <-js.rootBlk.done:
	}
	end := e.snapshot()
	r := e.buildReport(js, &end)
	e.active.Add(-1)
	e.emit(obs.Event{Kind: obs.JobDone, Job: js.id, Worker: -1, Victim: -1,
		Energy: r.EnergyJ, Sojourn: r.Sojourn})
	err := js.taskErr()
	if err == nil && js.interrupted.Load() {
		err = js.ctx.Err()
	}
	js.j.Finish(r, err)
}

// snapshot folds every worker's accounting cell into a ledger: each
// worker's residency matrix and steals, the pool's counters and the
// machine's exact integrated energy. No lock is taken — each cell is
// read through its seqlock — so snapshots never stall the pool.
func (e *Exec) snapshot() core.Ledger {
	l := core.Ledger{
		Workers:       make([]core.WorkerLedger, len(e.workers)),
		TempoSwitches: e.tempoSwitches.Load(),
		DVFSCommits:   e.dvfsCommits.Load(),
	}
	var coreJ float64
	for i, w := range e.workers {
		f := e.foldAcct(&w.acct)
		coreJ += e.cellJoules(&f)
		lw := &l.Workers[i]
		for st := range f.res {
			for fi, ns := range f.res[st] {
				lw.Res[st][fi] = units.Time(ns) * units.Nanosecond
			}
		}
		lw.Steals = f.steals
		l.Tasks += f.tasks
		l.Spawns += f.spawns
		l.Steals += f.steals
		l.FailedSteals += f.failedSteals
	}
	l.Joules = coreJ + e.baseWatts*float64(e.nowNS())*1e-9
	return l
}

// cellJoules integrates one folded cell's residency matrix against
// the watts table — the single definition of the per-core energy
// fold, shared by snapshot and powerNow so the per-job reports and
// the observer's EnergySample stream cannot drift apart.
func (e *Exec) cellJoules(f *acctFold) float64 {
	var j float64
	for st := range f.res {
		for fi, ns := range f.res[st] {
			if ns != 0 {
				j += e.watts[st][fi] * float64(ns) * 1e-9
			}
		}
	}
	return j
}

// powerNow folds instantaneous machine watts (from the published
// words) and cumulative joules for the meter stream.
func (e *Exec) powerNow() (watts, joules float64) {
	for _, w := range e.workers {
		f := e.foldAcct(&w.acct)
		joules += e.cellJoules(&f)
		if f.st >= cpu.IdleHalt {
			watts += e.watts[f.st-1][f.fi]
		}
	}
	watts += e.baseWatts
	joules += e.baseWatts * float64(e.nowNS()) * 1e-9
	return watts, joules
}

// buildReport renders a job's report as the pool delta over its span.
// Counts the pool cannot attribute to one job (failed steals, tempo
// switches, residency) cover everything that happened during the
// job's span, concurrent neighbours included; Tasks, Spawns and
// Steals are exact per-job attributions folded from the per-worker
// counters. Energy is worker-time weighted: the machine's modeled
// joules over the span are shared in proportion to the Busy core
// residency attributed to this job, so concurrent jobs partition the
// pool's energy instead of each claiming the whole machine (a job
// running alone keeps the full draw, idle cores included).
func (e *Exec) buildReport(js *jobState, end *core.Ledger) core.Report {
	now := time.Now()
	sojourn := units.Time(now.Sub(js.start).Nanoseconds()) * units.Nanosecond
	var span units.Time
	if es := js.execStart.Load(); es != 0 {
		// Both readings are monotonic offsets from executor start, so
		// a wall-clock step cannot skew (or negate) the span.
		if d := now.Sub(e.start).Nanoseconds() - es; d > 0 {
			span = units.Time(d) * units.Nanosecond
		}
	}
	var tasks, spawns, steals, busyNS int64
	for i := range js.perW {
		c := &js.perW[i]
		tasks += c.tasks
		spawns += c.spawns
		steals += c.steals
		busyNS += c.busyNS
	}
	r := end.Since(&js.snap, e.cfg.Freqs)
	machineJ := end.Joules - js.snap.Joules
	energy := machineJ
	if poolBusy := r.BusyTime; poolBusy > 0 {
		jobBusy := units.Time(busyNS) * units.Nanosecond
		if jobBusy < poolBusy {
			energy = machineJ * float64(jobBusy) / float64(poolBusy)
		}
	}
	r.System, r.Workers, r.Mode, r.Sched, r.Class = e.cfg.Spec.Name, e.cfg.Workers, e.modeNow(), e.cfg.Scheduling, js.class
	r.Span, r.Sojourn = span, sojourn
	r.Tasks, r.Spawns, r.Steals = tasks, spawns, steals
	r.EnergyJ = energy
	r.MeterJ = energy // no modeled DAQ on the host
	r.EDP = meter.EDP(energy, span)
	if sojourn > 0 {
		// Average over the job's whole stay: the delta accumulators
		// behind the report cover [submission, completion].
		r.AvgPowerW = energy / sojourn.Seconds()
	}
	return r
}

// emit streams an event to the configured observer, stamping
// wall-clock time since executor start if the event carries none.
func (e *Exec) emit(ev obs.Event) {
	if e.cfg.Observer == nil {
		return
	}
	if ev.Time == 0 {
		ev.Time = units.Time(time.Since(e.start).Nanoseconds()) * units.Nanosecond
	}
	e.cfg.Observer.Observe(ev)
}

// setState publishes a core-state change into the worker's accounting
// cell. Owner-only; no-ops when the state is unchanged, so the
// pop→run→pop chain costs one shadow compare.
func (w *worker) setState(st cpu.CoreState) {
	if w.lastState == st {
		return
	}
	w.lastState = st
	w.e.acctSet(&w.acct, int(st), -1)
}

// freq reads the worker's current tempo frequency from its lock-free
// shadow: Work only needs a fresh snapshot.
func (w *worker) freq() units.Freq {
	return units.Freq(w.curFreq.Load())
}

// profLoop is the online profiler of Section 3.2 on wall-clock time:
// every ProfilePeriod it samples all deque sizes into the tempo policy,
// which retunes every worker's thresholds from the rolling average.
func (e *Exec) profLoop() {
	defer e.workerWG.Done()
	tick := time.NewTicker(e.cfg.ProfilePeriod.Duration())
	defer tick.Stop()
	sizes := make([]int, len(e.workers))
	for {
		select {
		case <-e.closeCh:
			return
		case <-tick.C:
		}
		for i, w := range e.workers {
			sizes[i] = w.dq.Size()
		}
		e.tempoMu.Lock()
		e.tempo.Profile(sizes, e.modeNow())
		e.tempoMu.Unlock()
	}
}

// meterLoop streams 100 Hz energy samples to the observer, mirroring
// the paper's DAQ cadence on wall-clock time. This is the only
// periodic integration point — the accounting itself is exact and
// lock-free, so the cadence affects the observer stream's resolution,
// not the totals in any report.
func (e *Exec) meterLoop() {
	defer e.workerWG.Done()
	tick := time.NewTicker(meter.SamplePeriod.Duration())
	defer tick.Stop()
	for {
		select {
		case <-e.closeCh:
			return
		case <-tick.C:
		}
		watts, joules := e.powerNow()
		e.emit(obs.Event{Kind: obs.EnergySample, Worker: -1, Victim: -1, Power: watts, Energy: joules})
	}
}

// loop is Algorithm 3.1 on a real goroutine, extended with the job
// intake: pop local work; failing that, accept a submitted root;
// failing that, steal; failing that, idle with backoff parked on the
// intake queue so fresh jobs wake an idle pool immediately.
func (w *worker) loop() {
	defer w.e.workerWG.Done()
	for {
		select {
		case <-w.e.closeCh:
			return
		default:
		}
		if t, ok := w.popLocal(); ok {
			w.runTask(t)
			continue
		}
		w.outOfWork()
		select {
		case t := <-w.e.injectq:
			w.runRoot(t)
			continue
		default:
		}
		if t, ok := w.stealRound(); ok {
			w.runTask(t)
			continue
		}
		w.idleWait()
	}
}

// idleWait parks the worker on the intake queue with exponential
// backoff. A pool with no jobs at all halts its cores (no modeled
// energy draw), filing the slowest tempo on the way into the halt, and
// backs off further than one between steal rounds. The backoff timer
// is per-worker and reused across cycles.
func (w *worker) idleWait() {
	maxBackoff := 200 * time.Microsecond
	if w.e.active.Load() == 0 {
		if !w.parked.Swap(true) && w.e.modeNow() != core.Baseline {
			w.e.tempoMu.Lock()
			w.e.tempo.Parked(w.id, w.e.modeNow())
			w.e.tempoUnlock()
		}
		w.setState(cpu.IdleHalt)
		maxBackoff = 2 * time.Millisecond
	} else {
		w.setState(cpu.Spin)
	}
	if w.backoff < 20*time.Microsecond {
		w.backoff = 20 * time.Microsecond
	} else if w.backoff < maxBackoff {
		w.backoff *= 2
	} else {
		w.backoff = maxBackoff
	}
	if w.idleTimer == nil {
		w.idleTimer = time.NewTimer(w.backoff)
	} else {
		w.idleTimer.Reset(w.backoff)
	}
	select {
	case tk := <-w.e.injectq:
		w.runRoot(tk)
	case <-w.e.closeCh:
	case <-w.idleTimer.C:
	}
}

// runRoot runs a root taken from the intake, applying the tempo
// policy's root-take rule (Figure 4(b)) first.
func (w *worker) runRoot(t *task) {
	w.parked.Store(false)
	if w.e.modeNow() != core.Baseline {
		w.e.tempoMu.Lock()
		w.e.tempo.TookRoot(w.id, w.dq.Size(), w.e.modeNow())
		w.e.tempoUnlock()
	}
	w.runTask(t)
}

func (w *worker) popLocal() (*task, bool) {
	t, ok := w.dq.Pop()
	if !ok {
		return nil, false
	}
	w.afterShrink()
	return t, true
}

// getTask recycles a deque item from the worker's free list, or
// allocates when the list is dry (cold start, burst deeper than the
// list). Owner-only.
func (w *worker) getTask(fn wl.Task, blk *block, js *jobState) *task {
	if n := len(w.freeTasks); n > 0 {
		t := w.freeTasks[n-1]
		w.freeTasks = w.freeTasks[:n-1]
		t.fn, t.blk, t.job = fn, blk, js
		return t
	}
	return &task{fn: fn, blk: blk, job: js}
}

// putTask clears and recycles a task the worker has finished with.
// Tasks migrate between workers through steals; each lands in the
// free list of whichever worker executed it.
func (w *worker) putTask(t *task) {
	if len(w.freeTasks) < cap(w.freeTasks) {
		t.fn, t.blk, t.job = nil, nil, nil
		w.freeTasks = append(w.freeTasks, t)
	}
}

// getBlock recycles a fork-join block, draining any stale completion
// token from the previous generation. Owner-only.
func (w *worker) getBlock(pending int64) *block {
	var blk *block
	if n := len(w.freeBlocks); n > 0 {
		blk = w.freeBlocks[n-1]
		w.freeBlocks = w.freeBlocks[:n-1]
		select {
		case <-blk.done:
		default:
		}
	} else {
		blk = &block{done: make(chan struct{}, 1)}
	}
	blk.waiting.Store(false)
	blk.pending.Store(pending)
	return blk
}

// putBlock recycles a drained block. Safe even with a stray late
// signal in flight: the token lands in the buffered channel and is
// drained on reuse (or causes one spurious, absorbed wake).
func (w *worker) putBlock(blk *block) {
	if len(w.freeBlocks) < cap(w.freeBlocks) {
		w.freeBlocks = append(w.freeBlocks, blk)
	}
}

// push places a spawned task on the worker's own tail (Figure 5
// PUSH), then applies the workload-sensitive growth check. The policy's
// lock-free MayRaise pre-check comes first: tempoMu is taken only when
// the new size can actually cross a tier.
func (w *worker) push(t *task) {
	w.acct.spawns.Add(1)
	if t.job != nil {
		t.job.perW[w.id].spawns++
	}
	w.dq.Push(t)
	if w.e.tempo.MayRaise(w.id, w.dq.Size(), w.e.modeNow()) {
		w.e.tempoMu.Lock()
		w.e.tempo.Pushed(w.id, w.dq.Size(), w.e.modeNow())
		w.e.tempoUnlock()
	}
}

// afterShrink applies Figure 5's POP tail check behind MayLower, which
// also skips the lock while the worker heads the immediacy list.
func (w *worker) afterShrink() {
	if w.e.tempo.MayLower(w.id, w.dq.Size(), w.e.modeNow()) {
		w.e.tempoMu.Lock()
		w.e.shrinkLocks++
		if !w.e.tempo.Shrunk(w.id, w.dq.Size(), w.e.modeNow()) {
			w.e.shrinkIdle++
		}
		w.e.tempoUnlock()
	}
}

// outOfWork relays immediacy down the thief chain and leaves the
// immediacy list (Algorithm 3.1 lines 6–14).
func (w *worker) outOfWork() {
	if w.e.modeNow().Workpath() {
		w.e.tempoMu.Lock()
		w.e.tempo.OutOfWork(w.id, w.e.modeNow())
		w.e.tempoUnlock()
	}
}

// stealRound probes every other worker once from a random start until
// a steal lands, applying the tempo policy's steal rules to thief and
// victim.
func (w *worker) stealRound() (*task, bool) {
	n := len(w.e.workers)
	if n == 1 {
		return nil, false
	}
	start := w.rng.intn(n)
	for i := 0; i < n; i++ {
		v := w.e.workers[(start+i)%n]
		if v == w {
			continue
		}
		t, ok := v.dq.Steal()
		if !ok {
			w.acct.failedSteals.Add(1)
			continue
		}
		w.acct.steals.Add(1)
		if t.job != nil {
			t.job.perW[w.id].steals++
		}
		w.e.emit(obs.Event{Kind: obs.Steal, Worker: w.id, Victim: v.id})
		w.parked.Store(false)
		if w.e.modeNow() != core.Baseline {
			w.e.tempoMu.Lock()
			w.e.tempo.Stole(w.id, v.id, w.dq.Size(), v.dq.Size(), w.e.modeNow())
			w.e.tempoUnlock()
		}
		return t, true
	}
	return nil, false
}

// retuneLocked is the tempo policy's callback: it applies worker i's
// new level as its tempo frequency, saturating at the slowest.
// Transitions commit immediately (the host has no modeled latency
// daemon), and each worker owns its whole clock domain, so an accepted
// tempo request is a DVFS commit; the new frequency is published to
// the Work hot path (curFreq) and the accounting cell. tempoMu must be
// held. Observer events are not emitted here — user callbacks must not
// run under tempoMu — but queued on pend for tempoUnlock.
func (e *Exec) retuneLocked(i, level int) {
	w := e.workers[i]
	fi := min(level, len(e.cfg.Freqs)-1)
	f := e.cfg.Freqs[fi]
	if w.reqFreq == f {
		return
	}
	w.reqFreq = f
	e.tempoSwitches.Add(1)
	e.dvfsCommits.Add(1)
	w.curFreq.Store(int64(f))
	e.acctSet(&w.acct, -1, fi)
	if e.cfg.Observer != nil {
		e.pend = append(e.pend,
			obs.Event{Kind: obs.TempoSwitch, Worker: w.id, Victim: -1, Freq: f},
			obs.Event{Kind: obs.DVFSCommit, Worker: w.id, Victim: -1, Freq: f})
	}
}

// tempoUnlock releases tempoMu, then streams the events the retunes
// under it queued.
func (e *Exec) tempoUnlock() {
	evs := e.pend
	e.pend = nil
	e.tempoMu.Unlock()
	for _, ev := range evs {
		e.emit(ev)
	}
}

// switchJob flushes the worker's current contiguous busy interval to
// the job that owns it and repoints the accounting context at js.
// Owner-only; called only when the context actually changes, so a
// run of same-job tasks never reads the clock at task boundaries.
func (w *worker) switchJob(js *jobState) {
	now := w.e.nowNS()
	if cur := w.cur.js; cur != nil {
		if d := now - w.jsSinceNS; d > 0 {
			cur.perW[w.id].busyNS += d
		}
	}
	w.cur.js = js
	w.jsSinceNS = now
}

// runTask executes one task, skipping the body (but not the fork-join
// bookkeeping) when its job has been cancelled, so cancelled jobs
// drain instead of running. A panicking task body fails its job (the
// error surfaces from Job.Wait, matching the Sim backend) without
// taking the shared pool down. The task itself is recycled into this
// worker's free list before the body runs; per-job accounting is
// written to this worker's plain counter slice, ordered before the
// block decrement so the job's report fold (which happens after the
// pending chain reaches zero) observes every write.
//
// Busy-time attribution is interval-based: the worker charges the
// whole contiguous stretch it spends with one accounting context
// (task bodies plus the join helping/waiting inside them, exactly as
// the old per-frame self-time scheme did) to that job, flushing at
// job switches and top-level exits via switchJob. A join that runs
// another job's stolen task inline switches contexts on the way in
// and back out, so interleaved jobs still partition the worker's
// time exactly.
func (w *worker) runTask(t *task) {
	fn, blk, js := t.fn, t.blk, t.job
	w.putTask(t)
	w.backoff = 0
	w.setState(cpu.Busy)
	prev := w.cur.js
	if js != prev {
		w.switchJob(js)
	}
	if js != nil && js.execStart.Load() == 0 {
		js.execStart.CompareAndSwap(0, w.e.nowNS())
	}
	defer func() {
		if js != prev {
			w.switchJob(prev)
		}
		// The decrement comes last: every accounting flush above is
		// ordered before the pending chain that releases the fold.
		if blk != nil && blk.pending.Add(-1) == 0 && blk.waiting.Load() {
			blk.signal()
		}
	}()
	if js != nil && js.cancelled.Load() {
		js.interrupted.Store(true) // body skipped: cancellation bit
	} else {
		w.acct.tasks.Add(1)
		if js != nil {
			js.perW[w.id].tasks++
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					if js == nil {
						panic(p)
					}
					js.fail(fmt.Errorf("rt: job %d task panicked: %v\n%s", js.id, p, debug.Stack()))
				}
			}()
			fn(w.curIface)
		}()
	}
}

// join drains a block: run own-block tasks from the local tail, help
// by stealing, and finally wait for the block's completion token.
func (w *worker) join(blk *block) {
	for blk.pending.Load() > 0 {
		if t, ok := w.dq.Pop(); ok {
			if t.blk != blk {
				w.dq.Push(t) // enclosing block's task; not runnable yet
			} else {
				w.afterShrink()
				w.runTask(t)
				continue
			}
		}
		if blk.pending.Load() == 0 {
			return
		}
		w.outOfWork()
		if t, ok := w.stealRound(); ok {
			w.runTask(t)
			continue
		}
		// Nothing runnable anywhere: announce ourselves, re-check, and
		// wait for the completion token. The buffered token cannot be
		// lost (the last decrement either sees the announcement and
		// signals, or our re-check sees zero), and a stale token from
		// a recycled generation at worst wakes the loop into one more
		// pending check.
		blk.waiting.Store(true)
		if blk.pending.Load() > 0 {
			<-blk.done
		}
		blk.waiting.Store(false)
	}
}

// wctx implements wl.Ctx over a real worker executing one job's
// tasks. Each worker owns a single wctx (and one interface value
// wrapping it); runTask repoints js around task bodies, so entering a
// task allocates nothing. A worker runs one frame at a time, nested
// frames save and restore js, and the contract that a task uses the
// Ctx it was passed (rather than one captured from another spawn)
// matches wl's documented semantics.
type wctx struct {
	w  *worker
	js *jobState
}

var _ wl.Ctx = (*wctx)(nil)

func (c *wctx) Go(tasks ...wl.Task) {
	js := c.js
	if js != nil && js.cancelled.Load() {
		// Spawn boundary: a cancelled job forks no new work.
		if len(tasks) > 0 {
			js.interrupted.Store(true)
		}
		return
	}
	w := c.w
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0](c)
		return
	}
	blk := w.getBlock(int64(len(tasks) - 1))
	for i := len(tasks) - 1; i >= 1; i-- {
		w.push(w.getTask(tasks[i], blk, js))
	}
	tasks[0](c)
	w.join(blk)
	w.putBlock(blk)
}

// Work executes declared cycles at the worker's current tempo
// frequency in wall-clock time: tempo throttling is real here.
func (c *wctx) Work(cy units.Cycles) {
	if cy <= 0 {
		return
	}
	c.sleepFor(cy.DurationAt(c.w.freq()).Duration())
}

// Mem executes frequency-independent time.
func (c *wctx) Mem(d units.Time) { c.sleepFor(d.Duration()) }

// WorkMix splits cycles into tempo-scaled and frequency-independent
// parts, as in the simulator.
func (c *wctx) WorkMix(cy units.Cycles, memFrac float64) {
	if memFrac < 0 {
		memFrac = 0
	}
	if memFrac > 1 {
		memFrac = 1
	}
	memCycles := units.Cycles(float64(cy) * memFrac)
	c.Work(cy - memCycles)
	c.Mem(memCycles.DurationAt(c.w.e.cfg.Spec.MaxFreq()))
}

func (c *wctx) Worker() int { return c.w.id }

// sleepFor burns the requested wall time in cancellation-aware slices:
// sleep in ≤1 ms chunks, spin the sub-100µs remainder for fidelity,
// and bail out the moment the job is cancelled.
func (c *wctx) sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	js := c.js
	end := time.Now().Add(d)
	for {
		rem := time.Until(end)
		if rem <= 0 {
			return
		}
		if js != nil && js.cancelled.Load() {
			js.interrupted.Store(true) // work cut short
			return
		}
		switch {
		case rem > time.Millisecond:
			time.Sleep(time.Millisecond)
		case rem > 100*time.Microsecond:
			time.Sleep(rem - 50*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}
