package core

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"hermes/internal/sim"
	"hermes/internal/units"
)

// faultSeedSalt decorrelates the retry-backoff jitter stream from the
// placement RNG (clusterSeedSalt) and the per-worker victim streams,
// so enabling fault injection leaves every fault-free random sequence
// byte-identical.
const faultSeedSalt = 0x9e3779b9

// ErrJobLost is the completion error of a job the cluster could not
// finish: every machine it was placed on crashed and the retry budget
// (or the fleet) ran out.
var ErrJobLost = errors.New("core: job lost to machine failure")

// Crash recovery: an evicted job is re-placed at most retryBudget
// times; attempt k waits retryBackoff·2^(k-1) scaled by a seeded
// jitter in [0.5, 1.5).
const (
	retryBudget  = 3
	retryBackoff = 100 * units.Microsecond
)

// FaultKind names one kind of injected machine fault.
type FaultKind int

const (
	// FaultCrash fail-stops a machine: its meter gates to zero draw,
	// unstarted jobs re-place immediately, and running jobs drain
	// cheaply (bodies skipped) before re-placement with backoff.
	FaultCrash FaultKind = iota
	// FaultRejoin brings a crashed machine back, cold: workers parked
	// in the lowest DVFS tier, ready to accept placements again.
	FaultRejoin
	// FaultSlow makes a machine a straggler: work inflated by Factor
	// (>= 1), or — Factor zero — every worker pinned to the lowest
	// DVFS tier.
	FaultSlow
	// FaultRecover ends a FaultSlow episode.
	FaultRecover
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRejoin:
		return "rejoin"
	case FaultSlow:
		return "slow"
	case FaultRecover:
		return "recover"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent is one scheduled fault: at virtual time At, machine
// Machine suffers (or recovers from) Kind. Like arrivals, events whose
// time has already passed when the cluster reaches them apply at the
// current virtual instant — the fault daemon parks with the rest of
// the cluster while it is empty, so an idle cluster still generates no
// events.
type FaultEvent struct {
	// At is the virtual time the fault fires.
	At units.Time
	// Machine is the victim's index.
	Machine int
	// Kind is what happens.
	Kind FaultKind
	// Factor is FaultSlow's work inflation (>= 1); zero means "pin to
	// the lowest DVFS tier" instead. Ignored by the other kinds.
	Factor float64
}

// validateFaults checks every event against the fleet size and returns
// a copy sorted by (At, Machine, Kind) — the order the fault daemon
// replays them in.
func validateFaults(events []FaultEvent, machines int) ([]FaultEvent, error) {
	evs := append([]FaultEvent(nil), events...)
	for _, ev := range evs {
		if ev.Machine < 0 || ev.Machine >= machines {
			return nil, fmt.Errorf("core: fault targets machine %d of %d", ev.Machine, machines)
		}
		if ev.At < 0 {
			return nil, fmt.Errorf("core: fault time must not be negative, got %v", ev.At)
		}
		if ev.Kind < FaultCrash || ev.Kind > FaultRecover {
			return nil, fmt.Errorf("core: unknown fault kind %d", int(ev.Kind))
		}
		if ev.Kind == FaultSlow && ev.Factor != 0 && ev.Factor < 1 {
			return nil, fmt.Errorf("core: slow-fault factor must be 0 (tier pin) or >= 1, got %g", ev.Factor)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		if evs[i].Machine != evs[j].Machine {
			return evs[i].Machine < evs[j].Machine
		}
		return evs[i].Kind < evs[j].Kind
	})
	return evs, nil
}

// faultLoop is the cluster's fault daemon: it replays the validated,
// sorted fault plan on the shared virtual timeline. Like the gossip
// daemon it parks while the cluster is empty — an idle cluster must
// generate no events so wall-clock arrivals keep their virtual-time
// injection semantics — which clamps faults scheduled across an empty
// stretch to the next arrival's instant, deterministically.
func (c *Cluster) faultLoop(p *sim.Proc) {
	for {
		if c.faultIdx >= len(c.cfg.Faults) {
			return
		}
		if c.stop && c.arrivals.Len() == 0 && c.totalActive() == 0 {
			return
		}
		if c.totalActive() == 0 && c.arrivals.Len() == 0 {
			c.faultParked = true
			p.ParkUntilWake()
			c.faultParked = false
			continue
		}
		ev := c.cfg.Faults[c.faultIdx]
		if ev.At > c.eng.Now() {
			if p.WaitUntil(ev.At) < ev.At {
				continue // woken early: re-check park/stop conditions
			}
		}
		c.faultIdx++
		c.applyFault(ev)
	}
}

// applyFault mutates one machine's failure state at the current
// virtual time. Idempotent events (crashing a dead machine, rejoining
// a live one) are ignored so overlapping plan windows stay legal.
func (c *Cluster) applyFault(ev FaultEvent) {
	s := c.ms[ev.Machine]
	now := c.eng.Now()
	switch ev.Kind {
	case FaultCrash:
		if s.dead {
			return
		}
		s.touch()
		for _, w := range s.workers {
			w.credit() // residency through the crash; none after it
		}
		s.dead = true
		s.downAt = now
		s.met.Gate(true)
		c.crashes++
		// A dead machine publishes an empty queue: gossip stops seeing
		// it as a victim, and it cannot thieve while dead either.
		c.views[ev.Machine] = queueView{load: 0, at: now}
		// Unstarted roots re-place immediately — they lost nothing.
		for len(s.pool.injectq) > 0 {
			t := s.pool.injectq[0]
			s.pool.injectq = s.pool.injectq[1:]
			s.pool.dropActive(t.job)
			c.requeue(t.job)
		}
		// Running jobs drain: bodies are skipped from here on, the
		// fork-join structure unwinds at zero work cost, and root
		// completion routes into requeue instead of a report.
		for _, j := range s.pool.active {
			j.evicted = true
		}
		for _, w := range s.workers {
			w.proc.Wake()
		}
	case FaultRejoin:
		if !s.dead {
			return
		}
		s.touch() // integrates the downtime at the gated zero draw
		for _, w := range s.workers {
			w.credit() // skips the downtime
		}
		s.met.Gate(false)
		s.dead = false
		s.downTotal += now - s.downAt
		c.rejoins++
		// The machine re-enters cold: its workers parked in the lowest
		// DVFS tier.
	case FaultSlow:
		s.touch()
		if ev.Factor > 1 {
			s.slowFactor = ev.Factor
		} else {
			s.slowPin(true)
		}
		s.wakeInWork()
	case FaultRecover:
		s.touch()
		s.slowFactor = 0
		s.slowPin(false)
		s.wakeInWork()
	}
}

// requeue routes an evicted job back through placement: bounded
// retries with seeded exponential backoff and jitter, losing the job
// once the budget is spent. Runs engine-side, on whichever process
// observed the eviction (a draining worker or the fault daemon).
func (c *Cluster) requeue(j *jobRun) {
	j.evicted = false
	if j.retries >= retryBudget {
		c.lose(j)
		return
	}
	j.retries++
	c.retries++
	d := retryBackoff << (j.retries - 1)
	jitter := 0.5 + c.frng.Float64()
	j.at = c.eng.Now() + units.Time(float64(d)*jitter)
	heap.Push(&c.arrivals, j)
	c.wakeIntake()
}

// deferOrLose handles placement with zero machines alive: if the plan
// still holds a rejoin, the job waits for it in the arrival heap;
// otherwise it is lost.
func (c *Cluster) deferOrLose(j *jobRun) {
	at, ok := c.nextRejoin()
	if !ok {
		c.lose(j)
		return
	}
	if at <= c.eng.Now() {
		// The rejoin fires at this very instant but the fault daemon
		// has not run yet; nudge past it so the retry sees the machine
		// alive instead of looping at the same timestamp.
		at = c.eng.Now() + 1
	}
	j.at = at
	heap.Push(&c.arrivals, j)
}

// nextRejoin scans the unapplied suffix of the fault plan for the
// earliest rejoin.
func (c *Cluster) nextRejoin() (units.Time, bool) {
	for _, ev := range c.cfg.Faults[c.faultIdx:] {
		if ev.Kind == FaultRejoin {
			return ev.At, true
		}
	}
	return 0, false
}

// lose completes a job with ErrJobLost: a minimal report carrying the
// retry history. Lost jobs emit no JobDone observer event — they never
// completed anywhere.
func (c *Cluster) lose(j *jobRun) {
	c.lost++
	rep := Report{
		Retries:    j.retries,
		Placements: append([]int(nil), j.placements...),
	}
	if j.delivered {
		rep.Sojourn = c.eng.Now() - j.arriveAt
	}
	j.finish(rep, ErrJobLost)
	if c.stop && c.arrivals.Len() == 0 && c.totalActive() == 0 {
		c.wakeIntake()
	}
}

// wakeIntake wakes the cluster intake unless the intake itself is the
// running process (a process cannot wake itself; the intake loop
// re-checks its conditions every iteration anyway).
func (c *Cluster) wakeIntake() {
	if c.eng.Current() == c.intake {
		return
	}
	c.intake.Wake()
}

// slowPin pins (or unpins) every worker to the lowest DVFS tier — the
// tier-pinned straggler model. A no-op under Baseline, which models no
// tempo control to pin.
func (s *sched) slowPin(on bool) {
	if s.slowPinned == on {
		return
	}
	s.slowPinned = on
	if s.cfg.Mode == Baseline || len(s.cfg.Freqs) == 0 {
		return
	}
	for i := range s.workers {
		s.retune(i, s.tempo.Level(i, s.cfg.Mode))
	}
}

// wakeInWork wakes workers with in-flight CPU segments so they re-rate
// against the new slow factor, mirroring onFreqChange.
func (s *sched) wakeInWork() {
	for _, w := range s.workers {
		if w.inWork {
			w.proc.Wake()
		}
	}
}
