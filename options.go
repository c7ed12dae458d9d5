package hermes

import (
	"errors"
	"fmt"

	"hermes/internal/cpu"
	"hermes/internal/obs"
)

// settings accumulates option values before validation.
type settings struct {
	cfg      Config
	backend  Backend
	asyncObs Observer
	asyncBuf int

	// The simulated fleet: machine count (0 = one), placement policy
	// (nil = p2c) and fault schedule. Sim backend only.
	machines  int
	placement *Placement
	faults    []FaultEvent
}

// gather applies opts in order, skipping nil ones.
func gather(opts []Option) (settings, error) {
	var s settings
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&s); err != nil {
			return s, err
		}
	}
	return s, nil
}

// startSink starts the asynchronous observer sink WithAsyncObserver
// asked for and installs it as the configuration's observer; nil when
// events flow synchronously. The caller owns the sink and must Close it.
func (s *settings) startSink() (*obs.Async, error) {
	if s.asyncObs == nil {
		return nil, nil
	}
	if s.cfg.Observer != nil {
		return nil, errors.New("hermes: WithObserver and WithAsyncObserver are mutually exclusive")
	}
	sink := obs.NewAsync(s.asyncObs, s.asyncBuf)
	s.cfg.Observer = sink
	return sink, nil
}

// Option configures a Runtime under construction. Options that can
// fail return their error from New; everything else is validated
// together by Config.Validate as the backend starts. An option marked
// "Sim backend only" makes New fail with an error wrapping ErrSimOnly
// when combined with WithBackend(Native).
type Option func(*settings) error

// WithBackend selects the execution engine: Sim (default, the
// deterministic discrete-event simulator) or Native (real goroutine
// workers).
func WithBackend(b Backend) Option {
	return func(s *settings) error {
		if b != Sim && b != Native {
			return fmt.Errorf("hermes: unknown backend %d", b)
		}
		s.backend = b
		return nil
	}
}

// WithSpec selects the machine model (SystemA, SystemB, or a custom
// *cpu.Spec). Default: SystemA.
func WithSpec(spec *cpu.Spec) Option {
	return func(s *settings) error {
		if spec == nil {
			return fmt.Errorf("hermes: nil machine spec")
		}
		s.cfg.Spec = spec
		return nil
	}
}

// WithWorkers sets the worker count; each worker is pinned to a core
// on a distinct clock domain, so n must not exceed the machine's
// domain count. Default: one worker per clock domain on the Sim
// backend, min(GOMAXPROCS, domains) on Native.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("hermes: worker count must be positive, got %d", n)
		}
		s.cfg.Workers = n
		return nil
	}
}

// WithMode selects the tempo-control strategy (Baseline,
// WorkpathOnly, WorkloadOnly or Unified). Default: Baseline.
func WithMode(m Mode) Option {
	return func(s *settings) error {
		s.cfg.Mode = m
		return nil
	}
}

// WithSeed sets the seed driving every random choice (victim
// selection). On the Sim backend, identical configs and seeds produce
// bit-identical per-job reports.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithObserver streams scheduler events (steals, tempo switches, DVFS
// commits, energy samples, job lifecycle) to o. Observation cannot
// influence scheduling; on the Native backend o must be
// concurrency-safe.
func WithObserver(o Observer) Option {
	return func(s *settings) error {
		s.cfg.Observer = o
		return nil
	}
}

// WithAsyncObserver streams scheduler events to o through a bounded
// asynchronous sink owned by the Runtime: workers enqueue events
// without blocking (a slow or stalled o cannot perturb the scheduler
// hot path), a dedicated goroutine drains the buffer into o, and
// Runtime.Close drains every buffered event before returning. When
// the buffer is full new events are dropped and counted —
// Runtime.EventsDropped reports the loss, so a deployment sized with
// enough buffer observes the complete stream (EventsDropped stays 0).
// buffer is the event capacity; <= 0 selects the default (4096).
// Unlike WithObserver, o is only ever called from one goroutine and
// need not be concurrency-safe. The two options are mutually
// exclusive.
func WithAsyncObserver(o Observer, buffer int) Option {
	return func(s *settings) error {
		if o == nil {
			return fmt.Errorf("hermes: nil async observer")
		}
		s.asyncObs = o
		s.asyncBuf = buffer
		return nil
	}
}

// WithMachines sets the fleet size: n independent simulated machines —
// each with its own workers, deques, tempo controller, DVFS state and
// power meter — multiplexed inside one discrete-event engine. Machine m
// runs with the configured seed plus m, so victim-selection streams
// differ across the fleet while staying deterministic. Default: 1. Sim
// backend only.
func WithMachines(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("hermes: machine count must be positive, got %d", n)
		}
		s.machines = n
		return nil
	}
}

// WithPlacement selects the fleet's placement policy — how arriving
// jobs are routed across machines. Use the constructors
// (PlacementRandom, PlacementJSQ, PlacementPowerOfChoices,
// PlacementGossip) or ParsePlacement. Default: power-of-two-choices.
// Sim backend only.
func WithPlacement(p Placement) Option {
	return func(s *settings) error {
		v, err := p.Validate()
		if err != nil {
			return err
		}
		s.placement = &v
		return nil
	}
}

// WithFaults installs a deterministic fault schedule: each FaultEvent
// crashes, rejoins, slows or recovers one machine at an explicit
// virtual time. Build schedules by hand or compile a named plan with
// fault.Compile ("crash", "failslow", "blip"). Jobs evicted by a crash
// are re-placed up to 3 times, each attempt after a seeded, jittered
// backoff from 100µs doubling per retry; a job past that budget fails
// with ErrJobLost and counts in ClusterStats.Lost.
// Events are validated against the fleet size at construction. Sim
// backend only.
func WithFaults(events ...FaultEvent) Option {
	return func(s *settings) error {
		s.faults = append([]FaultEvent(nil), events...)
		return nil
	}
}

// WithDispatch selects how the machine's intake orders ready jobs
// awaiting a worker: DispatchFIFO (default, class-blind delivery
// order), DispatchPriority (strict Class.Priority, ties in delivery
// order) or DispatchEDF (earliest absolute deadline first,
// deadline-less jobs last). Ranked policies read each job's Class —
// attach one with WithClass or Arrival.Class; on a fleet every
// machine's intake applies it. Sim backend only for the ranked policies:
// the Native executor's intake is inherently FIFO and rejects them.
func WithDispatch(d Dispatch) Option {
	return func(s *settings) error {
		s.cfg.Dispatch = d
		return nil
	}
}

// WithPreemptQuantum enables Shinjuku-style quantum preemption under a
// ranked dispatch policy (Sim backend only): a worker executing a CPU
// segment re-checks the ready queue every q of virtual time, and a
// waiting job that strictly outranks the running one takes the worker
// immediately — so a short latency-critical arrival overtakes
// heavy-tailed batch work mid-stream instead of queueing behind it.
// Zero (the default) disables preemption; q must not be negative.
// No effect under DispatchFIFO, which never ranks one job above
// another.
func WithPreemptQuantum(q Time) Option {
	return func(s *settings) error {
		s.cfg.PreemptQuantum = q
		return nil
	}
}

// submitSettings accumulates per-job SubmitOption values.
type submitSettings struct {
	class Class
}

// SubmitOption stamps per-job attributes on one Submit call.
type SubmitOption func(*submitSettings)

// submitClass folds opts into the job's validated service class; no
// options give the zero class.
func submitClass(opts []SubmitOption) (Class, error) {
	var so submitSettings
	for _, o := range opts {
		if o != nil {
			o(&so)
		}
	}
	return so.class, so.class.Validate()
}

// WithClass sets the submitted job's service class: the tenant label
// and priority that ranked dispatch policies, priority-aware load
// shedding and per-class metrics read, plus the optional deadline
// (DispatchEDF) and SLO target (per-class attainment reporting). The
// class travels with the job through every layer and is echoed in its
// Report.
func WithClass(c Class) SubmitOption {
	return func(ss *submitSettings) { ss.class = c }
}
