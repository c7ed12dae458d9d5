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

// ErrStatsUnavailable is the sentinel wrapped by MachineStats when
// there is no single machine ledger to return: a Sim fleet of more
// than one machine has one per machine (read ClusterStats). Test with
// errors.Is.
var ErrStatsUnavailable = errors.New("hermes: machine stats unavailable on this backend")

// ErrSimOnly is the sentinel wrapped by every refusal of a capability
// only the simulator has: a fleet (WithMachines, WithPlacement,
// WithFaults, NewCluster), ranked dispatch and quantum
// preemption at construction, and SubmitTrace on a running Runtime.
// Test with errors.Is.
var ErrSimOnly = errors.New("hermes: needs the Sim backend")

// ErrModeSwitchUnavailable is the sentinel wrapped by SetMode when the
// backend cannot change tempo mode while running (today: Sim, whose
// determinism contract fixes the whole configuration for the run's
// virtual timeline). Test with errors.Is.
var ErrModeSwitchUnavailable = errors.New("hermes: live mode switching unavailable on this backend")

// Runtime is a persistent scheduler serving a stream of jobs over one
// configuration. Construct with New, submit with Submit (or the Run
// method for submit-and-wait), and release with Close. All methods
// are safe for concurrent use.
//
// On the Sim backend a Runtime is a fleet of simulated machines behind
// a placement tier (one machine unless WithMachines says otherwise) in
// one discrete-event engine: concurrent jobs share a machine's workers,
// deques, tempo and DVFS state as virtual-time arrivals, and a fixed
// option set, seed and SubmitTrace trace reproduce byte-identical
// Reports, observer streams and ledgers. Plain Submit arrives "now",
// which depends on wall-clock submission timing.
type Runtime struct {
	backend Backend
	// sim is the backend on Sim, native (nil on Sim) on Native. policy
	// is the placement a Sim fleet routes by.
	sim    simDriver
	native *rt.Exec
	policy Placement
	// sink is the Runtime-owned async observer from WithAsyncObserver,
	// nil when events flow synchronously (WithObserver or none).
	sink *obs.Async
}

// New builds a Runtime from functional options. The zero option set
// selects the simulator backend on System A with one worker per clock
// domain, baseline mode, one machine — the same defaults as the
// package-level Run. Invalid configurations return errors (never
// panics); options the chosen backend cannot honour return an error
// wrapping ErrSimOnly.
func New(opts ...Option) (*Runtime, error) {
	s, err := gather(opts)
	if err != nil {
		return nil, err
	}
	sink, err := s.startSink()
	if err != nil {
		return nil, err
	}
	r := &Runtime{backend: s.backend, sink: sink}
	if s.backend == Sim {
		err = r.startSim(s)
	} else {
		err = r.startNative(s)
	}
	if err != nil {
		// Release the sink's consumer goroutine: nothing will feed it.
		if sink != nil {
			sink.Close()
		}
		return nil, err
	}
	return r, nil
}

// startSim builds the simulated fleet: the one place the public API
// constructs a core.Cluster.
func (r *Runtime) startSim(s settings) error {
	r.policy = PlacementPowerOfChoices(2)
	if s.placement != nil {
		r.policy = *s.placement
	}
	fleet, err := core.NewCluster(core.ClusterConfig{
		Machines:  max(s.machines, 1),
		Machine:   s.cfg,
		Placement: r.policy.Placer(),
		Gossip:    r.policy.Kind == "gossip",
		Faults:    s.faults,
	})
	if err != nil {
		return err
	}
	r.sim.eng = fleet
	return nil
}

// startNative starts the real-concurrency pool. It gets the
// pre-validation config: an unset worker count defaults to one per
// clock domain on the simulator but to min(GOMAXPROCS, domains) on real
// goroutine workers.
func (r *Runtime) startNative(s settings) error {
	if s.machines != 0 || s.placement != nil || len(s.faults) > 0 {
		return fmt.Errorf("%w: WithMachines, WithPlacement and WithFaults configure a simulated fleet (backend is %v)",
			ErrSimOnly, s.backend)
	}
	ex, err := rt.NewExec(s.cfg)
	if errors.Is(err, rt.ErrSimOnly) {
		err = fmt.Errorf("%w: %v", ErrSimOnly, err)
	}
	if err != nil {
		return err
	}
	r.native = ex
	return nil
}

// Config returns the validated configuration the Runtime runs with
// (defaults filled in) — on a fleet, the one every machine runs with.
// On Native, which supports live mode switching, the returned Mode
// reflects the current mode, not the boot value.
func (r *Runtime) Config() Config {
	if r.backend == Sim {
		return r.sim.eng.Config().Machine
	}
	return r.native.Config()
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
	if r.native == nil {
		return fmt.Errorf("%w: SetMode needs the Native backend (runtime is %v)",
			ErrModeSwitchUnavailable, r.backend)
	}
	return r.native.SetMode(m)
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
	if r.native == nil {
		return r.sim.Submit(ctx, root, class)
	}
	j, err := r.native.Submit(ctx, root, class)
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
// state — inside the simulated machines; on a fleet each arrival is
// routed by the placement policy at its virtual instant. ctx cancels
// every job in the trace. The Native backend has no virtual clock to
// schedule against and returns an error wrapping ErrSimOnly.
func (r *Runtime) SubmitTrace(ctx context.Context, arrivals []Arrival) ([]*Job, error) {
	if r.backend != Sim {
		return nil, fmt.Errorf("%w: SubmitTrace schedules in virtual time (runtime is %v)", ErrSimOnly, r.backend)
	}
	return r.sim.submit(ctx, arrivals)
}

// MachineStats returns the machine's totals — integrated energy,
// residency by DVFS tier, steal and tempo counts — the quantities
// per-job Reports carry only as deltas over their own (overlapping)
// sojourn windows. Open-system sweeps and the Native load run read
// run-level energy, average power and tier residency from here. It is
// the one-machine view of the ClusterStats ledger, and answers as
// ClusterStats does; a fleet of more than one machine returns an error
// wrapping ErrStatsUnavailable.
func (r *Runtime) MachineStats() (MachineStats, error) {
	if n := r.Machines(); n > 1 {
		return MachineStats{}, fmt.Errorf("%w: MachineStats is the ledger of a one-machine runtime (this one has %d machines); a fleet reads ClusterStats",
			ErrStatsUnavailable, n)
	}
	return r.ClusterStats().Machines[0], nil
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
	var err error
	if r.native != nil {
		err = r.native.Close()
	} else {
		err = r.sim.eng.Close()
	}
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

// simDriver is the one path from the public API into the simulator: it
// assigns job ids, turns arrivals into core.JobRequests wired to their
// Job handles and to ctx, maps core's sentinel errors onto this
// package's, and rolls the ids back when the engine refuses a batch.
type simDriver struct {
	eng *core.Cluster

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
			Cancelled: ctx.Err,
			Done:      j.Finish,
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
