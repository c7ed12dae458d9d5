package obs

import "hermes/internal/units"

// Kind discriminates scheduler events.
type Kind uint8

const (
	// Steal is a successful steal: Worker took a task from Victim.
	Steal Kind = iota
	// TempoSwitch is a worker filing a tempo change: Worker requested
	// its core run at Freq.
	TempoSwitch
	// DVFSCommit is a clock-domain transition landing at Freq.
	DVFSCommit
	// EnergySample is one 100 Hz meter reading: Power is the
	// instantaneous draw, Energy the cumulative joules so far.
	EnergySample
	// JobStart marks a submitted job entering the system: on the
	// multi-job pool it fires at the job's (virtual) arrival time, when
	// the job may still be queued behind busy workers — not when its
	// first task begins executing. In-flight gauges built from
	// JobStart/JobDone therefore measure arrival→completion depth,
	// queued jobs included.
	JobStart
	// JobDone marks a job completing; Energy carries the job's
	// integrated joules.
	JobDone
)

func (k Kind) String() string {
	switch k {
	case Steal:
		return "steal"
	case TempoSwitch:
		return "tempo-switch"
	case DVFSCommit:
		return "dvfs-commit"
	case EnergySample:
		return "energy-sample"
	case JobStart:
		return "job-start"
	case JobDone:
		return "job-done"
	}
	return "invalid"
}

// Event is one scheduler occurrence. Fields not meaningful for a kind
// are zero (Worker and Victim use -1 for "no worker").
type Event struct {
	Kind Kind
	// Time is the event's timestamp: one monotonic clock across all
	// jobs on either backend. On the native backend it is wall-clock
	// time since executor start; on the simulator backend it is the
	// persistent engine's virtual time, globally ordered across the
	// multi-job stream (JobStart carries the job's virtual arrival,
	// JobDone its completion time). core.Run's stream is the same
	// clock with one job on it: JobStart for job 1 at zero, JobDone at
	// its span.
	Time units.Time
	// Worker is the acting worker id, -1 if not worker-scoped.
	Worker int
	// Victim is the steal victim's worker id (Steal only), else -1.
	Victim int
	// Freq is the target frequency (TempoSwitch, DVFSCommit).
	Freq units.Freq
	// Power is instantaneous watts (EnergySample).
	Power float64
	// Energy is cumulative joules (EnergySample) or the job's total
	// (JobDone).
	Energy float64
	// Sojourn is the job's enqueue-to-completion latency (JobDone
	// only): virtual on the simulator, wall-clock on the native
	// backend. It is carried explicitly so latency telemetry does not
	// depend on pairing JobDone with a JobStart that a lossy sink may
	// have dropped.
	Sojourn units.Time
	// Job is the owning job id (JobStart, JobDone), 0 otherwise.
	Job int64
	// Machine is the index of the simulated machine the event occurred
	// on. Single-machine runtimes emit 0 for every event; cluster runs
	// (hermes.NewCluster) stamp the owning machine, so one observer
	// stream can be demultiplexed per machine.
	Machine int
}

// Observer receives scheduler events. Observe must not block for long
// — on the simulator it runs inline with the engine; on the native
// executor it runs inline with workers — and must be concurrency-safe
// for the native backend.
type Observer interface {
	Observe(Event)
}

// Func adapts a plain function to the Observer interface.
type Func func(Event)

// Observe calls f.
func (f Func) Observe(e Event) { f(e) }
