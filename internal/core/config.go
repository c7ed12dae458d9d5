package core

import (
	"fmt"

	"hermes/internal/cpu"
	"hermes/internal/obs"
	"hermes/internal/tempo"
	"hermes/internal/units"
)

// Mode selects which tempo-control strategies are active.
type Mode = tempo.Mode

// The tempo modes (see tempo.Mode).
const (
	Baseline     = tempo.Baseline
	WorkpathOnly = tempo.WorkpathOnly
	WorkloadOnly = tempo.WorkloadOnly
	Unified      = tempo.Unified
)

// Scheduling selects the worker-core mapping policy of Section 3.4.
type Scheduling uint8

const (
	// Static pre-assigns each worker to a core for the whole run.
	Static Scheduling = iota
	// Dynamic re-pins the worker around every WORK invocation
	// (affinity set before, reset after), paying affinityCost twice
	// per task. This is the paper's explanation for dynamic
	// scheduling's slightly higher energy (Figure 18).
	Dynamic
)

func (s Scheduling) String() string {
	if s == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Config describes one simulated run.
type Config struct {
	// Spec is the machine model; defaults to cpu.SystemA().
	Spec *cpu.Spec
	// Workers is the number of worker threads; each is pinned to a
	// core on a distinct clock domain, per the paper's setup.
	Workers int
	// Mode selects the tempo-control strategy.
	Mode Mode
	// Freqs is the N-frequency tempo set, fastest first (Section 3.4).
	// Tempo level i maps to Freqs[min(i, N-1)]. Empty selects the
	// paper's default 2-frequency pair for the system: 2.4/1.6 GHz on
	// System A, 3.6/2.7 GHz on System B.
	Freqs []units.Freq
	// Scheduling selects static or dynamic worker-core mapping.
	Scheduling Scheduling
	// Seed drives every random choice (victim selection). Identical
	// configs and seeds produce bit-identical runs.
	Seed int64
	// Dispatch orders the machine's ready jobs awaiting a worker:
	// DispatchFIFO (default, class-blind delivery order),
	// DispatchPriority (strict Class.Priority) or DispatchEDF
	// (earliest absolute deadline first). Run's one job has nothing
	// to be ordered against.
	Dispatch Dispatch
	// PreemptQuantum, when positive and Dispatch is not FIFO, lets a
	// waiting job that outranks the one a worker is executing take
	// that worker at the next quantum boundary mid-task
	// (Shinjuku-style preemption): long CPU segments are chopped into
	// quantum-sized slices and the ready queue is re-checked between
	// slices, so a short latency-critical arrival overtakes
	// heavy-tailed batch work already in flight. Zero disables
	// preemption; Sim only.
	PreemptQuantum units.Time

	// Observer, if non-nil, receives scheduler events (steals, tempo
	// switches, DVFS commits, energy samples). Purely observational:
	// it cannot influence scheduling, so a fixed config and seed stay
	// deterministic with or without it.
	Observer obs.Observer
}

// The runtime overheads of the paper's Section 3.4: fixed parts of the
// simulated machine model, not parameters of a run.
const (
	stealCost    = 1200 * units.Nanosecond // per steal attempt (lock + probe)
	pushPopCost  = 60 * units.Nanosecond   // per local deque operation
	yieldSpin    = 25 * units.Microsecond  // initial failed-steal backoff
	yieldSpinMax = 200 * units.Microsecond // backoff cap
	affinityCost = 1500 * units.Nanosecond // per affinity syscall under Dynamic
	maxHelpDepth = 128                     // join help-steal nesting cap
	// initialAvgDeque seeds the thresholds before the first profile
	// period completes.
	initialAvgDeque = 2
	// thresholds is K, the number of workload thresholds (K+1 tiers).
	thresholds = 2
	// profileWindow is how many profile periods the rolling average
	// deque size spans.
	profileWindow = 16
)

// ProfilePeriod is the online profiler's sampling period for deque
// sizes (Section 3.2), on either executor's clock.
const ProfilePeriod = 500 * units.Microsecond

// NewTempoPolicy returns the HERMES tempo policy of a validated cfg,
// for either executor; retune receives a worker and its new level.
// Tempo levels stack (thief chains, workload tiers) up to
// len(cfg.Freqs)+2 deep and map onto the frequencies by saturation:
// level i runs at Freqs[min(i, N-1)], per the paper's N-frequency
// tempo control.
func NewTempoPolicy(cfg Config, retune func(worker, level int)) *tempo.Policy {
	return tempo.NewPolicy(cfg.Workers, thresholds, initialAvgDeque, len(cfg.Freqs)+2, profileWindow, retune)
}

// withDefaults fills in zero fields and validates the configuration,
// panicking on invalid configs. It backs the package-level Run entry
// point; error-returning callers use Validate.
func (c Config) withDefaults() Config {
	v, err := c.Validate()
	if err != nil {
		panic(err.Error())
	}
	return v
}

// Validate fills in zero fields and checks the configuration,
// returning the completed config or an error describing the first
// problem found.
func (c Config) Validate() (Config, error) {
	if c.Spec == nil {
		c.Spec = cpu.SystemA()
	}
	if c.Workers == 0 {
		c.Workers = c.Spec.Domains()
	}
	if c.Workers < 1 || c.Workers > c.Spec.Domains() {
		return c, fmt.Errorf("core: %d workers not supported on %s (%d clock domains)",
			c.Workers, c.Spec.Name, c.Spec.Domains())
	}
	if c.Mode > Unified {
		return c, fmt.Errorf("core: invalid mode %d", c.Mode)
	}
	if c.Scheduling > Dynamic {
		return c, fmt.Errorf("core: invalid scheduling policy %d", c.Scheduling)
	}
	if c.Dispatch > DispatchEDF {
		return c, fmt.Errorf("core: invalid dispatch policy %d", c.Dispatch)
	}
	if c.PreemptQuantum < 0 {
		return c, fmt.Errorf("core: PreemptQuantum must not be negative, got %v", c.PreemptQuantum)
	}
	if len(c.Freqs) == 0 {
		c.Freqs = DefaultFreqs(c.Spec)
	}
	if len(c.Freqs) > MaxFreqs {
		return c, fmt.Errorf("core: at most %d tempo frequencies supported, got %d", MaxFreqs, len(c.Freqs))
	}
	for i, f := range c.Freqs {
		if !c.Spec.Supports(f) {
			return c, fmt.Errorf("core: %s does not support tempo frequency %v", c.Spec.Name, f)
		}
		if i > 0 && f >= c.Freqs[i-1] {
			return c, fmt.Errorf("core: tempo frequencies must be strictly descending (got %v after %v)",
				f, c.Freqs[i-1])
		}
	}
	if c.Freqs[0] != c.Spec.MaxFreq() {
		return c, fmt.Errorf("core: the fastest tempo must map to the maximum frequency %v, got %v",
			c.Spec.MaxFreq(), c.Freqs[0])
	}
	if c.Mode != Baseline && len(c.Freqs) < 2 {
		return c, fmt.Errorf("core: tempo control needs at least two frequencies, got %d", len(c.Freqs))
	}
	return c, nil
}

// DefaultFreqs returns the paper's default 2-frequency tempo mapping
// for a system: the maximum frequency paired with the slow frequency
// nearest the "golden ratio" ≈60–75% the paper found optimal
// (2.4/1.6 GHz on System A, 3.6/2.7 GHz on System B).
func DefaultFreqs(spec *cpu.Spec) []units.Freq {
	switch spec.Name {
	case "SystemA":
		return []units.Freq{2_400_000 * units.KHz, 1_600_000 * units.KHz}
	case "SystemB":
		return []units.Freq{3_600_000 * units.KHz, 2_700_000 * units.KHz}
	}
	// Generic fallback: max plus the point closest to 2/3 of max.
	max := spec.MaxFreq()
	bestD := units.Freq(1 << 62)
	best := spec.MinFreq()
	for _, p := range spec.Points[1:] {
		d := p.F - max*2/3
		if d < 0 {
			d = -d
		}
		if d < bestD {
			bestD, best = d, p.F
		}
	}
	return []units.Freq{max, best}
}
