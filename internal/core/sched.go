package core

import (
	"math/bits"

	"hermes/internal/cpu"
	"hermes/internal/meter"
	"hermes/internal/obs"
	"hermes/internal/power"
	"hermes/internal/sim"
	"hermes/internal/tempo"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// sched owns one simulated machine: cores, meter, workers and the
// service processes (DVFS commit daemon, threshold profiler), serving
// the stream of jobs its driver delivers at virtual arrival times.
type sched struct {
	cfg   Config
	eng   *sim.Engine
	mach  *cpu.Machine
	model *power.Model
	met   *meter.Meter

	workers []*worker
	// stocked has bit i set while worker i's deque holds a task.
	stocked []uint64
	byCore  map[*cpu.Core]*worker
	tempo   *tempo.Policy
	// done is set by poolShutdown: every process observes it and exits.
	done bool

	// pool is the machine's job-stream state (pool.go).
	pool poolRun
	// mid and tag identify this machine inside its cluster (cluster.go):
	// mid stamps every observer event's Machine field and tag prefixes
	// process names ("m3/worker0").
	mid int
	tag string
	// onJobDone runs at the end of every jobDone with the machine
	// snapshot that completion took — the cluster's hook for
	// idle-machine tracking and the fleet-wide stats snapshot, frozen at
	// the deterministic virtual instant of each completion.
	onJobDone func(end *Ledger)
	// onEvicted, if non-nil, receives each job whose drain finished
	// after a crash evicted it — the cluster's re-placement hook. Set
	// only when fault injection is configured.
	onEvicted func(*jobRun)
	// Fault-injection state (cluster.go / fault.go). dead marks a
	// fail-stopped machine: residency accumulation pauses, the meter
	// gates to zero draw, and the placement tier routes around it.
	// downAt/downTotal track the availability ledger. slowFactor > 1
	// inflates CPU work segments (a straggler); slowPinned pins every
	// worker to the lowest DVFS tier instead.
	dead       bool
	downAt     units.Time
	downTotal  units.Time
	slowFactor float64
	slowPinned bool

	// DVFS commit daemon state: per-domain pending commit time
	// (0 = none), and the daemon process to wake on new requests. The
	// profiler's state: its wait in flight and its sample buffer.
	dvfsCommits []units.Time
	dvfsProc    *sim.Proc
	profProc    *sim.Proc
	profWait    daemonWait
	profSizes   []int

	// led is the machine's ledger, its joules credited up to lastTouch
	// and each worker's residency up to its resAt; domFi caches each
	// clock domain's index into cfg.Freqs. end is jobDone's
	// reused end-of-job copy, and spare holds delivery copies that
	// completed jobs handed back.
	led            Ledger
	domFi          []int
	end            Ledger
	spare          []*Ledger
	lastTouch      units.Time
	serving        int   // workers Busy inside a job's task (worker.serving)
	rerates        int64 // CPU slices cut short by a clock change
	emittedSamples int
}

// Run executes root to completion on a fresh simulated machine and
// returns the measured report: one job delivered at t = 0 to a machine
// that is shut down the instant the job completes. The driver process
// is created before the machine's own, as a Cluster's intake is, so the
// root is waiting when worker 0 makes its first schedule pass. Energy
// is the whole machine's over [0, completion] — what the paper's DAQ
// measures — not the job-attributed share buildJobReport fills in. A
// task panic is re-raised here. It is deterministic: identical configs
// (including Seed) produce identical reports.
func Run(cfg Config, root wl.Task) Report {
	s := newSched(sim.NewEngine(), cfg.withDefaults())
	var (
		rep    Report
		err    error
		driver *sim.Proc
	)
	j := &jobRun{id: 1, root: root, done: func(r Report, e error) {
		rep, err = r, e
		rep.MeterJ = s.met.MeterEnergy() // before jobDone trims the samples
	}}
	s.onJobDone = func(end *Ledger) {
		rep.EnergyJ = end.Joules
		driver.Wake()
	}
	driver = s.eng.Go("run", func(p *sim.Proc) {
		s.deliver(j)
		p.ParkUntilWake()
		s.poolShutdown()
	})
	s.start()
	s.eng.Run()
	if err != nil {
		panic(err)
	}
	rep.EDP = meter.EDP(rep.EnergyJ, rep.Span)
	if rep.Span > 0 {
		rep.AvgPowerW = rep.EnergyJ / rep.Span.Seconds()
	}
	return rep
}

// newSched builds the simulated machine, meter and workers for a
// validated config on eng, without starting any engine process. Several
// machines can share one engine and so one virtual timeline (a
// Cluster): each keeps its own cores, meter, workers and daemons, but
// every event lands in the same deterministic order. The caller sets
// onJobDone before start.
func newSched(eng *sim.Engine, cfg Config) *sched {
	s := &sched{
		cfg:         cfg,
		eng:         eng,
		mach:        cpu.NewMachine(cfg.Spec),
		byCore:      map[*cpu.Core]*worker{},
		stocked:     make([]uint64, (cfg.Workers+63)/64),
		dvfsCommits: make([]units.Time, cfg.Spec.Domains()),
		domFi:       make([]int, cfg.Spec.Domains()),
		profSizes:   make([]int, cfg.Workers), // Profile copies what it keeps
	}
	s.model = power.NewModel(cfg.Spec)
	s.met = meter.New(s.model, s.mach)
	s.tempo = NewTempoPolicy(cfg, s.retune)

	s.led.Workers = make([]WorkerLedger, cfg.Workers)
	cores := s.mach.DistinctDomainCores(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(s, i, cores[i])
		s.workers = append(s.workers, w)
		s.byCore[w.core] = w
		w.core.State = cpu.IdleHalt
	}
	return s
}

// start registers the service daemons and workers with the engine.
// Service daemons first, then workers, so the workers' initial events
// land after theirs at t=0 — irrelevant for correctness, fixed for
// determinism. The daemons are steps, never resumed: no coroutine.
func (s *sched) start() {
	s.dvfsProc = s.eng.GoStep(s.tag+"dvfsd", s.dvfsStep)
	s.profProc = s.eng.GoStep(s.tag+"profiler", s.profStep)
	for _, w := range s.workers {
		w := w
		w.proc = s.eng.Go(w.name(), w.schedule)
	}
}

// touch brings the machine up to the current virtual time: it
// integrates the meter's joules. It must be called before any mutation
// of machine state (core states, domain frequencies). A worker's
// residency is credited to its (state, frequency index) cell of the
// machine's ledger lazily, when either changes and when the ledger is
// read (worker.credit). A crashed machine's interval is downtime: no
// residency, zero draw.
// touch also partitions the interval's machine energy exactly among
// the jobs whose tasks held busy workers through it (equal worker-time
// weights, the Native backend's attribution rule applied per
// integration interval): concurrent jobs split the machine's joules
// with no double counting, idle and spinning cores' draw included. An
// interval in which no worker is Busy inside a job's task — a
// top-level pop's deque cost, every worker probing or parked — is
// attributed to nobody, so even a solo job's share stays below the
// machine's joules over its window (TestSoloJobShareBelowMachine: up
// to 5 % under Unified).
func (s *sched) touch() {
	now := s.eng.Now()
	served := 0
	if s.dead {
		s.lastTouch = now
	}
	if now > s.lastTouch {
		served, s.lastTouch = s.serving, now
	}
	e0 := s.met.Energy()
	s.met.Advance(now)
	if served > 0 {
		if dJ := s.met.Energy() - e0; dJ > 0 {
			share := dJ / float64(served)
			for _, w := range s.workers {
				if w.serving() == 1 {
					w.curJob.energyJ += share
				}
			}
		}
	}
	if s.cfg.Observer != nil {
		samples := s.met.Samples()
		for _, smp := range samples[s.emittedSamples:] {
			s.emit(obs.Event{Kind: obs.EnergySample, Time: smp.T, Worker: -1, Victim: -1,
				Power: smp.Watts, Energy: smp.Joules})
		}
		s.emittedSamples = len(samples)
	}
}

// taskCancelled reports whether work for job j must be skipped: the
// job failed, was evicted or was cancelled. A positive cancellation
// poll records that cancellation genuinely interrupted the job, so
// late cancellations of already-finished work still report success.
func (s *sched) taskCancelled(j *jobRun) bool {
	if j.failErr != nil {
		return true
	}
	if j.evicted {
		// The machine crashed under this job: skip remaining bodies so
		// the fork-join structure drains at zero work cost, without
		// marking the job interrupted — it re-places and runs elsewhere.
		return true
	}
	if j.cancelled != nil {
		if err := j.cancelled(); err != nil {
			j.interrupted = err
			return true
		}
	}
	return false
}

// emit streams one event to the configured observer. Callers stamp
// Time themselves: virtual time 0 is a legitimate timestamp (the
// first 100 Hz sample), so no default is inferred here.
func (s *sched) emit(ev obs.Event) {
	if s.cfg.Observer == nil {
		return
	}
	ev.Machine = s.mid
	s.cfg.Observer.Observe(ev)
}

// --- tempo plumbing -------------------------------------------------

// retune is the tempo policy's callback: it files the DVFS request
// matching worker i's new level. Levels map onto the N-frequency set by
// saturation (level l runs at Freqs[min(l, N-1)]), so deep thief chains
// and workload tiers stack below the slowest frequency without losing
// their relative order — Figure 3's "a thief's thief" keeps a slower
// tempo than its victim even when both saturate the frequency range.
func (s *sched) retune(i, level int) {
	w := s.workers[i]
	fi := min(level, len(s.cfg.Freqs)-1)
	if s.slowPinned {
		// Tier-pinned straggler: whatever the tempo strategies ask for,
		// the machine answers with its lowest frequency.
		fi = len(s.cfg.Freqs) - 1
	}
	f := s.cfg.Freqs[fi]
	if w.core.Req == f && !s.pendingDiffers(w, f) {
		return
	}
	s.led.TempoSwitches++
	s.emit(obs.Event{Kind: obs.TempoSwitch, Time: s.eng.Now(), Worker: w.id, Victim: -1, Freq: f})
	changed, at := s.mach.Request(w.core, f, s.eng.Now())
	dom := w.core.Dom
	if changed {
		s.dvfsCommits[dom.ID] = at
		s.dvfsProc.Wake()
		return
	}
	if _, _, pending := dom.Pending(); !pending {
		s.dvfsCommits[dom.ID] = 0
	}
}

// pendingDiffers reports whether the domain is mid-transition to a
// frequency other than f (so a re-request is still needed).
func (s *sched) pendingDiffers(w *worker, f units.Freq) bool {
	target, _, pending := w.core.Dom.Pending()
	return pending && target != f
}

// dvfsStep is the commit daemon, a GoStep process: at each wake it
// applies the domain transitions due, re-rates any in-flight work on
// their domains, and waits until the earliest pending one — or, with
// none, until a new request wakes it.
func (s *sched) dvfsStep() (units.Time, bool) {
	if s.done {
		return 0, false
	}
	now := s.eng.Now()
	for id, at := range s.dvfsCommits {
		if at == 0 || at > now {
			continue
		}
		d := s.mach.Domains[id]
		s.touch()
		for _, c := range d.Cores {
			if w := s.byCore[c]; w != nil {
				w.credit()
			}
		}
		if d.Commit(now) {
			s.led.DVFSCommits++
			for fi, f := range s.cfg.Freqs {
				if f == d.Freq() {
					s.domFi[id] = fi
				}
			}
			s.emit(obs.Event{Kind: obs.DVFSCommit, Time: now, Worker: -1, Victim: -1, Freq: d.Freq()})
			s.onFreqChange(d)
		}
		if _, cAt, pending := d.Pending(); pending {
			s.dvfsCommits[id] = cAt
		} else {
			s.dvfsCommits[id] = 0
		}
	}
	if t := s.earliestCommit(); t != 0 {
		return t, true
	}
	return sim.UntilWake, true
}

// firstStocked is the first worker from v on, cyclically, whose deque
// holds a task, skip aside; -1 if there is none.
func (s *sched) firstStocked(v, skip int) int {
	if u := s.nextStocked(v, len(s.workers), skip); u >= 0 {
		return u
	}
	return s.nextStocked(0, v, skip)
}

// nextStocked is the first worker in [lo, hi) whose deque holds a task,
// skip aside; -1 if there is none.
func (s *sched) nextStocked(lo, hi, skip int) int {
	for lo < hi {
		b := s.stocked[lo>>6] >> (lo & 63)
		if b == 0 {
			lo = (lo | 63) + 1
			continue
		}
		u := lo + bits.TrailingZeros64(b)
		if u >= hi {
			return -1
		}
		if u != skip {
			return u
		}
		lo = u + 1
	}
	return -1
}

func (s *sched) earliestCommit() units.Time {
	var min units.Time
	for _, at := range s.dvfsCommits {
		if at != 0 && (min == 0 || at < min) {
			min = at
		}
	}
	return min
}

// onFreqChange wakes workers with in-flight CPU work on domain d so
// they re-rate the remaining cycles at the new frequency.
func (s *sched) onFreqChange(d *cpu.Domain) {
	for _, c := range d.Cores {
		if w := s.byCore[c]; w != nil && w.inWork {
			w.proc.Wake()
		}
	}
}

// daemonWait is the wait in flight of a periodic GoStep daemon (the
// profiler, the gossip tier).
type daemonWait uint8

const (
	waitNone   daemonWait = iota // not started
	waitIdle                     // parked until an arrival wakes it
	waitPeriod                   // its period's timer
)

// profStep is the online profiler of Section 3.2, a GoStep process:
// every ProfilePeriod it samples all deque sizes into the tempo policy,
// which retunes every worker's thresholds from the rolling average. It
// parks while no jobs are active (deliver wakes it on arrival) so an
// idle machine generates no events and the engine can quiesce.
func (s *sched) profStep() (units.Time, bool) {
	if !s.cfg.Mode.Workload() {
		return 0, false
	}
	if s.profWait != waitNone && s.done {
		return 0, false
	}
	if s.profWait == waitPeriod {
		for i, w := range s.workers {
			s.profSizes[i] = w.dq.Size()
		}
		s.tempo.Profile(s.profSizes, s.cfg.Mode)
	}
	if len(s.pool.active) == 0 {
		s.profWait = waitIdle
		return sim.UntilWake, true
	}
	s.profWait = waitPeriod
	return s.eng.Now() + ProfilePeriod, true
}
