package hermes

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hermes/internal/core"
	"hermes/internal/job"
	"hermes/internal/obs"
	"hermes/internal/rt"
)

// Backend selects the execution engine behind a Runtime.
type Backend uint8

const (
	// Sim is the deterministic discrete-event simulator
	// (internal/core): virtual time, modeled DVFS latency, calibrated
	// power model and 100 Hz meter. Concurrent jobs multiplex over the
	// simulated machine as virtual-time arrivals — sharing workers,
	// deques, tempo and DVFS state — and runs are byte-reproducible
	// for a fixed config, seed and arrival trace (see SubmitTrace):
	// the measurement instrument, now for open systems too.
	Sim Backend = iota
	// Native is the real-concurrency executor (internal/rt): actual
	// goroutine workers multiplex every submitted job over one shared
	// work-stealing pool, with tempo throttling applied in wall-clock
	// time and energy accounted by the same power model.
	Native
)

func (b Backend) String() string {
	switch b {
	case Sim:
		return "sim"
	case Native:
		return "native"
	}
	return "invalid"
}

// ParseBackend maps a backend name ("sim" or "native") onto the
// Backend value — the one parser for every CLI flag.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "sim":
		return Sim, nil
	case "native":
		return Native, nil
	}
	return 0, fmt.Errorf("hermes: unknown backend %q (want sim or native)", s)
}

// ParseMode maps a tempo-mode name onto the Mode value ("unified" and
// "hermes" are synonyms) — the one parser for every CLI flag.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "baseline":
		return Baseline, nil
	case "workpath":
		return WorkpathOnly, nil
	case "workload":
		return WorkloadOnly, nil
	case "unified", "hermes":
		return Unified, nil
	}
	return 0, fmt.Errorf("hermes: unknown mode %q (want baseline, workpath, workload or unified)", s)
}

// ParseDispatch maps a dispatch-policy name ("fifo", "priority" or
// "edf"; "" selects fifo) onto the Dispatch value — the one parser for
// every CLI flag.
func ParseDispatch(s string) (Dispatch, error) { return core.ParseDispatch(s) }

// Job is the handle for one submitted root task: Wait blocks for the
// per-job Report, Done supports select-based completion.
type Job = job.Job

// Observer receives streamed scheduler events (steals, tempo
// switches, DVFS commits, energy samples, job lifecycle). On the
// Native backend it is called from many goroutines at once and must
// be concurrency-safe.
type Observer = obs.Observer

// Event is one scheduler occurrence delivered to an Observer.
type Event = obs.Event

// EventKind discriminates Events.
type EventKind = obs.Kind

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc = obs.Func

// Observer event kinds.
const (
	EventSteal        = obs.Steal
	EventTempoSwitch  = obs.TempoSwitch
	EventDVFSCommit   = obs.DVFSCommit
	EventEnergySample = obs.EnergySample
	EventJobStart     = obs.JobStart
	EventJobDone      = obs.JobDone
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("hermes: runtime closed")

// ErrNilTask is returned by Submit for a nil root task.
var ErrNilTask = errors.New("hermes: nil root task")

// ErrStatsUnavailable is the sentinel wrapped by MachineStats when the
// backend keeps no virtual-time machine ledger (today: Native, whose
// energy accounting lives in per-job Reports). Test with errors.Is.
var ErrStatsUnavailable = errors.New("hermes: machine stats unavailable on this backend")

// ErrModeSwitchUnavailable is the sentinel wrapped by SetMode when the
// backend cannot change tempo mode while running (today: Sim, whose
// determinism contract fixes the whole configuration for the run's
// virtual timeline). Test with errors.Is.
var ErrModeSwitchUnavailable = errors.New("hermes: live mode switching unavailable on this backend")

// Executor is the backend contract behind a Runtime: both the
// discrete-event simulator and the real-concurrency pool serve
// submitted jobs through it.
type Executor interface {
	// Submit enqueues root as a new job of the given service class and
	// returns its handle (pass the zero Class for unclassed traffic).
	// The job observes ctx: cancellation stops task execution at spawn
	// and steal boundaries and completes the job with ctx's error.
	Submit(ctx context.Context, root Task, class Class) (*Job, error)
	// Close rejects further submissions, waits for submitted jobs to
	// complete, and releases the backend's resources.
	Close() error
}

// Runtime is a persistent scheduler serving a stream of jobs over one
// configuration. Construct with New, submit with Submit (or the Run
// method for submit-and-wait), and release with Close. All methods
// are safe for concurrent use.
type Runtime struct {
	cfg     Config
	backend Backend
	exec    Executor
	// sink is the Runtime-owned async observer from WithAsyncObserver,
	// nil when events flow synchronously (WithObserver or none).
	sink *obs.Async
}

// New builds a Runtime from functional options. The zero option set
// selects the simulator backend on System A with one worker per clock
// domain, baseline mode — the same defaults as the package-level Run.
// Invalid configurations return errors (never panics).
func New(opts ...Option) (*Runtime, error) {
	s, err := gather(opts)
	if err != nil {
		return nil, err
	}
	if s.machines != 0 || s.placement != nil || s.faultsSet || s.retrySet {
		return nil, errors.New("hermes: WithMachines, WithPlacement, WithFaults and WithRetryPolicy apply to NewCluster, not New")
	}
	sink, err := s.startSink()
	if err != nil {
		return nil, err
	}
	// fail releases the sink's consumer goroutine on any constructor
	// error after it has been started.
	fail := func(err error) (*Runtime, error) {
		if sink != nil {
			sink.Close()
		}
		return nil, err
	}
	cfg, err := s.cfg.Validate()
	if err != nil {
		return fail(err)
	}
	r := &Runtime{cfg: cfg, backend: s.backend, sink: sink}
	switch s.backend {
	case Sim:
		ex, err := newSimExec(cfg)
		if err != nil {
			return fail(err)
		}
		r.exec = ex
	case Native:
		// Hand the backend the pre-validation config: an unset worker
		// count defaults to one per clock domain on the simulator but
		// to min(GOMAXPROCS, domains) on real goroutine workers.
		ex, err := rt.NewExec(s.cfg)
		if err != nil {
			return fail(err)
		}
		r.cfg = ex.Config()
		r.exec = ex
	default:
		return fail(fmt.Errorf("hermes: unknown backend %d", s.backend))
	}
	return r, nil
}

// Config returns the validated configuration the Runtime runs with
// (defaults filled in). On backends that support live mode switching
// the returned Mode reflects the current mode, not the boot value.
func (r *Runtime) Config() Config {
	if ex, ok := r.exec.(interface{ Config() core.Config }); ok {
		return ex.Config()
	}
	return r.cfg
}

// SetMode switches the Runtime's tempo mode while it serves traffic —
// the serving control plane's actuator. Jobs in flight keep running;
// only the DVFS control law changes, with all tempo state (immediacy
// list, workload tiers) reset to the target mode's boot invariants.
// Native backend only: the simulator's determinism contract fixes the
// configuration for a run, so Sim returns an error wrapping
// ErrModeSwitchUnavailable. Switching into a tempo-controlled mode
// requires the ≥2-frequency ladder such a mode needs at construction.
func (r *Runtime) SetMode(m Mode) error {
	ms, ok := r.exec.(interface{ SetMode(core.Mode) error })
	if !ok {
		return fmt.Errorf("%w: SetMode needs the Native backend (runtime is %v)",
			ErrModeSwitchUnavailable, r.backend)
	}
	return ms.SetMode(m)
}

// Backend returns the execution engine the Runtime was built with.
func (r *Runtime) Backend() Backend { return r.backend }

// Submit enqueues root as a new job and returns its handle; Job.Wait
// returns the per-job Report. Concurrent jobs multiplex over the
// shared machine on both backends: real goroutine workers on Native
// (a saturated intake queue blocks Submit until space frees or ctx
// fires — backpressure), the simulated machine on Sim, where the job
// arrives at the engine's current virtual time. Cancelling ctx stops
// the job's task execution at spawn and steal boundaries and
// completes it with ctx's error; a job whose work completed before
// cancellation took effect reports success.
//
// Options stamp per-job attributes: WithClass sets the job's service
// class (tenant, priority, deadline, SLO target), which ranked
// dispatch policies (WithDispatch) schedule on and every Report
// carries. No options submits the zero class — exactly the
// pre-class behaviour.
func (r *Runtime) Submit(ctx context.Context, root Task, opts ...SubmitOption) (*Job, error) {
	class, err := submitClass(opts)
	if err != nil {
		return nil, err
	}
	j, err := r.exec.Submit(ctx, root, class)
	switch {
	case errors.Is(err, rt.ErrClosed):
		err = ErrClosed
	case errors.Is(err, rt.ErrNilTask):
		err = ErrNilTask
	}
	return j, err
}

// Arrival is one entry of a virtual-time arrival trace: Task enters
// the system at virtual time At (negative means "on receipt"; a time
// the virtual clock has already passed is clamped to now) carrying
// service class Class (zero = unclassed).
type Arrival struct {
	At    Time
	Task  Task
	Class Class
}

// SubmitTrace schedules a whole batch of jobs at explicit virtual
// arrival times on the Sim backend, atomically, and returns their
// handles in trace order. This is the reproducible open-system entry
// point: as a Runtime's first submission, or submitted to a quiescent
// one, a fixed config, seed and trace make every per-job Report and
// the observer event sequence byte-identical run after run, while the
// jobs genuinely overlap — contending for workers, steals and DVFS
// state — inside the simulated machine. ctx cancels every job in the
// trace. The Native backend has no virtual clock to schedule against
// and returns an error.
func (r *Runtime) SubmitTrace(ctx context.Context, arrivals []Arrival) ([]*Job, error) {
	se, ok := r.exec.(*simExec)
	if !ok {
		return nil, fmt.Errorf("hermes: SubmitTrace needs the Sim backend (runtime is %v)", r.backend)
	}
	return se.submit(ctx, arrivals)
}

// MachineStats returns the simulated machine's totals over the
// Runtime's whole lifetime — integrated energy, residency by DVFS
// tier, steal and tempo counts — the quantities per-job Reports carry
// only as deltas over their own (overlapping) sojourn windows.
// Open-system sweeps read run-level energy, average power and
// tier-residency curves from here. Sim backend only — Native returns
// an error wrapping ErrStatsUnavailable; it blocks until the engine
// has stopped, so call it after Close.
func (r *Runtime) MachineStats() (MachineStats, error) {
	se, ok := r.exec.(*simExec)
	if !ok {
		return MachineStats{}, fmt.Errorf("%w: MachineStats needs the Sim backend (runtime is %v)",
			ErrStatsUnavailable, r.backend)
	}
	return se.pool.MachineStats(), nil
}

// Run submits root and waits for its report: the submit-and-wait
// convenience for callers that want one job at a time.
func (r *Runtime) Run(ctx context.Context, root Task) (Report, error) {
	j, err := r.Submit(ctx, root)
	if err != nil {
		return Report{}, err
	}
	return j.Wait()
}

// Close rejects further submissions, waits for every submitted job to
// complete, then shuts the backend down. When the Runtime owns an
// asynchronous observer sink (WithAsyncObserver), Close drains every
// buffered event into the observer before returning — the executor
// stops first, so no events race the drain. Safe to call more than
// once.
func (r *Runtime) Close() error {
	err := r.exec.Close()
	if r.sink != nil {
		r.sink.Close()
	}
	return err
}

// EventsDropped reports how many observer events the asynchronous
// sink (WithAsyncObserver) has discarded because its buffer was full.
// It is 0 while the buffer keeps up, and always 0 without
// WithAsyncObserver (a synchronous Observer never drops).
func (r *Runtime) EventsDropped() uint64 {
	if r.sink == nil {
		return 0
	}
	return r.sink.Dropped()
}

// --- simulator backend ----------------------------------------------

// simDriver is the one path from the public API into the simulator,
// shared by a Runtime's Sim backend (a core.Pool) and a Cluster (a
// core.Cluster): it assigns job ids, turns arrivals into
// core.JobRequests wired to their Job handles and to ctx, maps core's
// sentinel errors onto this package's, and rolls the ids back when the
// engine refuses a batch. It is an Executor as it stands.
type simDriver struct {
	eng interface {
		Submit(...core.JobRequest) error
		Close() error
	}

	mu     sync.Mutex
	nextID int64
}

// Submit enqueues root to arrive on receipt, at the engine's current
// virtual time.
func (d *simDriver) Submit(ctx context.Context, root Task, class Class) (*Job, error) {
	jobs, err := d.submit(ctx, []Arrival{{At: -1, Task: root, Class: class}})
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// submit schedules a batch of jobs at explicit virtual arrival times,
// atomically: the whole trace enters the engine in one step.
func (d *simDriver) submit(ctx context.Context, arrivals []Arrival) ([]*Job, error) {
	for _, a := range arrivals {
		if a.Task == nil {
			return nil, ErrNilTask
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := make([]*Job, len(arrivals))
	reqs := make([]core.JobRequest, len(arrivals))
	// Id assignment and the engine handoff share d.mu so a failed
	// submission can roll its ids back: job ids stay gapless, which
	// lets id-watermark consumers (hermes-serve's pruned detection)
	// trust that every id at or below the watermark really ran.
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, a := range arrivals {
		d.nextID++
		j := job.New(d.nextID)
		jobs[i] = j
		reqs[i] = core.JobRequest{
			ID:        j.ID(),
			At:        a.At,
			Root:      a.Task,
			Class:     a.Class,
			Cancelled: func() bool { return ctx.Err() != nil },
			Done: func(rep core.Report, err error) {
				if errors.Is(err, core.ErrInterrupted) {
					err = ctx.Err()
				}
				j.Finish(rep, err)
			},
		}
	}
	err := d.eng.Submit(reqs...)
	switch {
	case errors.Is(err, core.ErrPoolClosed):
		err = ErrClosed
	case errors.Is(err, core.ErrNilRoot):
		err = ErrNilTask
	}
	if err != nil {
		d.nextID -= int64(len(arrivals))
		return nil, err
	}
	return jobs, nil
}

func (d *simDriver) Close() error { return d.eng.Close() }

// simExec is a Runtime's Sim backend: the driver over the persistent
// discrete-event pool (core.Pool). Concurrently submitted jobs share
// the simulated machine's workers, deques, tempo controller and DVFS
// state as virtual-time arrivals, with per-job reports carrying virtual
// sojourn and worker-time-weighted energy attribution. Determinism
// holds per arrival trace: a fixed config, seed and set of (virtual
// arrival time, job) pairs reproduces byte-identical reports —
// SubmitTrace fixes the arrival times explicitly; plain Submit assigns
// "now", which depends on wall-clock submission timing.
type simExec struct {
	simDriver
	pool *core.Pool
}

func newSimExec(cfg core.Config) (*simExec, error) {
	pool, err := core.NewPool(cfg)
	if err != nil {
		return nil, err
	}
	return &simExec{simDriver: simDriver{eng: pool}, pool: pool}, nil
}
