package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"

	"hermes/internal/sim"
	"hermes/internal/units"
)

// clusterSeedSalt decorrelates the placement RNG from the per-worker
// victim-selection streams (Seed*1_000_003 + worker id).
const clusterSeedSalt = 0x5bd1e995

// PlacementView is the read-only load picture a placement policy sees
// when a job arrives: exact instantaneous queue depths (placement
// decisions happen inside the engine, at the arrival's virtual time)
// plus the cluster's idle-machine index. Gossip's deliberately stale
// views are a property of the migration tier, not of placement.
type PlacementView interface {
	// Machines is the fleet size.
	Machines() int
	// Load is the number of jobs in machine m's system (queued or
	// executing).
	Load(m int) int
	// IdleMachine returns the lowest-indexed machine with no jobs in
	// its system, via the cluster's idle min-heap, or ok=false when
	// every machine is loaded. Always preferring the lowest idle index
	// is what consolidates load: higher-indexed machines stay parked in
	// the lowest DVFS tier instead of each being woken once.
	IdleMachine() (m int, ok bool)
	// Alive reports whether machine m is accepting work — false while
	// fault injection holds it crashed. Policies must not route to
	// dead machines; the cluster re-routes (or defers) if one does.
	Alive(m int) bool
}

// Placement chooses the machine for one arriving job. Implementations
// must be deterministic given (view, rng) — rng is the cluster's own
// seeded stream, advanced only by placement decisions.
type Placement interface {
	Place(v PlacementView, rng *rand.Rand) int
}

// ClusterConfig describes a multi-machine cluster simulation.
type ClusterConfig struct {
	// Machines is the number of simulated machines (>= 1).
	Machines int
	// Machine is the per-machine configuration; machine m runs with
	// Seed+m so victim-selection streams differ across the fleet while
	// staying deterministic.
	Machine Config
	// Placement chooses a machine for each arriving job.
	Placement Placement

	// GossipInterval enables the gossip tier when positive: every
	// interval, idle machines pull a batch of unstarted jobs from the
	// most-loaded peer according to their last refreshed (stale) view
	// of queue sizes. Zero disables gossip entirely.
	GossipInterval units.Time
	// GossipStaleness is the minimum age a machine's published queue
	// view reaches before the next refresh; defaults to GossipInterval.
	// Views refresh after the steal pass, so thieves always act on
	// information at least one interval old — realistically stale.
	GossipStaleness units.Time
	// GossipBatch is how many jobs an idle thief pulls per tick; 0
	// takes half of the victim's visible unstarted backlog.
	GossipBatch int

	// Seed drives the placement RNG; 0 adopts Machine.Seed.
	Seed int64

	// Faults is the injected failure schedule, replayed by an
	// engine-side daemon on the shared virtual timeline; empty runs a
	// fault-free fleet with zero overhead and byte-identical outcomes
	// to a build without fault support at all.
	Faults []FaultEvent
	// RetryBudget bounds how many times a job evicted by a crash is
	// re-placed before it is lost; 0 means the default (3).
	RetryBudget int
	// RetryBackoff is the base delay before an evicted job re-enters
	// placement; attempt k waits backoff·2^(k-1) scaled by a seeded
	// jitter in [0.5, 1.5). 0 means the default (100µs).
	RetryBackoff units.Time
}

// Validate fills defaults and checks the cluster configuration,
// including the embedded machine config.
func (c ClusterConfig) Validate() (ClusterConfig, error) {
	if c.Machines < 1 {
		return c, fmt.Errorf("core: cluster needs at least one machine, got %d", c.Machines)
	}
	mcfg, err := c.Machine.Validate()
	if err != nil {
		return c, err
	}
	c.Machine = mcfg
	if c.Placement == nil {
		return c, fmt.Errorf("core: cluster needs a placement policy")
	}
	if c.GossipInterval < 0 {
		return c, fmt.Errorf("core: gossip interval must not be negative, got %v", c.GossipInterval)
	}
	if c.GossipStaleness < 0 {
		return c, fmt.Errorf("core: gossip staleness must not be negative, got %v", c.GossipStaleness)
	}
	if c.GossipBatch < 0 {
		return c, fmt.Errorf("core: gossip batch must not be negative, got %d", c.GossipBatch)
	}
	if c.GossipStaleness == 0 {
		c.GossipStaleness = c.GossipInterval
	}
	if c.Seed == 0 {
		c.Seed = c.Machine.Seed
	}
	if c.RetryBudget < 0 {
		return c, fmt.Errorf("core: retry budget must not be negative, got %d", c.RetryBudget)
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = defaultRetryBudget
	}
	if c.RetryBackoff < 0 {
		return c, fmt.Errorf("core: retry backoff must not be negative, got %v", c.RetryBackoff)
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = defaultRetryBackoff
	}
	if len(c.Faults) > 0 {
		evs, err := validateFaults(c.Faults, c.Machines)
		if err != nil {
			return c, err
		}
		c.Faults = evs
	}
	return c, nil
}

// ClusterStats is the fleet-wide aggregate through the cluster's most
// recent job completion — the same deterministic virtual instant for
// every machine, idle ones included, so fleet energy comparisons
// (consolidating vs spreading policies) charge each machine's idle
// draw over exactly the same window.
type ClusterStats struct {
	// Machines holds one MachineStats per machine, all snapshotted at
	// Elapsed (the fleet's last completion), so EnergyJ includes the
	// base draw of machines that never ran a job.
	Machines []MachineStats
	// Placed counts jobs the placement tier routed to each machine;
	// Migrated counts jobs each machine pulled in via gossip.
	Placed   []int64
	Migrated []int64
	// Completed is the number of jobs completed fleet-wide; Elapsed is
	// the virtual time of the last completion.
	Completed int64
	Elapsed   units.Time
	// EnergyJ is the fleet total through Elapsed.
	EnergyJ float64

	// Availability ledger (all zero on a fault-free run): Crashes and
	// Rejoins count fault events applied; Retries counts job
	// re-placements after crash evictions; Lost counts jobs the fleet
	// could not finish (completed with ErrJobLost).
	Crashes int64
	Rejoins int64
	Retries int64
	Lost    int64
	// Goodput is Completed / (Completed + Lost), or zero when the
	// cluster finished nothing.
	Goodput float64
	// Downtime is each machine's accumulated dead time through Elapsed,
	// snapshotted — like the rest of the ledger — at the fleet's last
	// completion. Nil on a fault-free run.
	Downtime []units.Time
}

// Cluster multiplexes N independent simulated machines — each its own
// cores, deques, tempo controller, DVFS state and power meter — inside
// one discrete-event engine, fed by a placement tier. Jobs arrive as
// virtual-time events at the cluster intake, which asks the placement
// policy for a machine and delivers the job there; an optional gossip
// daemon then lets idle machines pull queued (unstarted) jobs from
// loaded peers on a realistically stale view of queue sizes.
//
// Determinism matches Pool's contract: for a fixed ClusterConfig
// (seeds included) and arrival trace, per-job reports, per-machine
// MachineStats, observer event streams and the fleet aggregates are
// byte-identical run after run — the single shared engine orders all
// machines' events on one virtual timeline.
type Cluster struct {
	cfg ClusterConfig
	eng *sim.Engine
	ms  []*sched

	// Engine-side state (touched only by engine processes and hooks).
	intake       *sim.Proc
	gossipd      *sim.Proc
	gossipParked bool
	arrivals     arrivalHeap
	stop         bool
	rng          *rand.Rand
	idle         idleIndex
	views        []queueView

	// Fault-injection state: the fault daemon (nil without a plan),
	// its cursor into cfg.Faults, the dedicated retry-jitter RNG, and
	// the availability ledger. fleetDown mirrors fleetSnap: per-machine
	// downtime frozen at each completion.
	faultd      *sim.Proc
	faultParked bool
	faultIdx    int
	frng        *rand.Rand
	crashes     int64
	rejoins     int64
	retries     int64
	lost        int64
	fleetDown   []units.Time

	placed   []int64
	migrated []int64

	// placing holds the job the intake has popped but not yet
	// delivered, so a placement-policy panic mid-place cannot strand
	// it outside every queue failRemaining sweeps.
	placing *jobRun
	// pendingClose mirrors Pool.pendingClose: a close received
	// mid-timeline waits for engine quiescence so the post-drain
	// event tail stays deterministic.
	pendingClose bool

	// Fleet snapshot frozen at every job completion (see onJobDone in
	// pool.go): the last one is the deterministic end-of-trace ledger
	// ClusterStats reports.
	completed   int64
	fleetAt     units.Time
	fleetSnap   []poolSnap
	fleetTasks  []int64
	fleetSpawns []int64
	fleetSteals []int64

	// Submission-side machinery, mirroring Pool's.
	msgs chan poolMsg
	dead chan struct{}

	mu     sync.Mutex
	closed bool
	broken bool
	runErr error

	wg sync.WaitGroup
}

// queueView is one machine's published queue size as the gossip tier
// last refreshed it.
type queueView struct {
	load int
	at   units.Time
}

// NewCluster validates cfg and starts the engine goroutine. Like a
// Pool, an idle cluster parks every process and costs nothing until
// the next arrival.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:         cfg,
		eng:         sim.NewEngine(),
		rng:         rand.New(rand.NewSource(cfg.Seed*1_000_003 + clusterSeedSalt)),
		views:       make([]queueView, cfg.Machines),
		placed:      make([]int64, cfg.Machines),
		migrated:    make([]int64, cfg.Machines),
		fleetSnap:   make([]poolSnap, cfg.Machines),
		fleetTasks:  make([]int64, cfg.Machines),
		fleetSpawns: make([]int64, cfg.Machines),
		fleetSteals: make([]int64, cfg.Machines),
		msgs:        make(chan poolMsg, 64),
		dead:        make(chan struct{}),
	}
	c.idle.init(c, cfg.Machines)
	for m := 0; m < cfg.Machines; m++ {
		mcfg := cfg.Machine
		mcfg.Seed = cfg.Machine.Seed + int64(m)
		s := newSchedOn(c.eng, mcfg)
		s.mid = m
		s.tag = fmt.Sprintf("m%d/", m)
		s.pool = &poolRun{}
		m := m
		s.onJobDone = func() { c.machineJobDone(m) }
		if len(cfg.Faults) > 0 {
			s.onEvicted = c.requeue
		}
		c.ms = append(c.ms, s)
	}
	c.eng.SetTick(c.pump)
	c.eng.SetIdle(c.pumpBlocking)
	for _, s := range c.ms {
		s.start()
	}
	c.intake = c.eng.Go("cluster-intake", c.intakeLoop)
	if cfg.GossipInterval > 0 {
		c.gossipd = c.eng.Go("cluster-gossipd", c.gossipLoop)
	}
	if len(cfg.Faults) > 0 {
		c.frng = rand.New(rand.NewSource(cfg.Seed*1_000_003 + faultSeedSalt))
		c.fleetDown = make([]units.Time, cfg.Machines)
		c.faultd = c.eng.Go("cluster-faultd", c.faultLoop)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.failRemaining() // closes c.dead
		// First message before the first event; see NewPool.
		c.apply(<-c.msgs)
		c.eng.Run()
	}()
	return c, nil
}

// Config returns the validated cluster configuration.
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// --- PlacementView ----------------------------------------------------

func (c *Cluster) Machines() int            { return len(c.ms) }
func (c *Cluster) Load(m int) int           { return len(c.ms[m].pool.active) }
func (c *Cluster) IdleMachine() (int, bool) { return c.idle.min() }
func (c *Cluster) Alive(m int) bool         { return !c.ms[m].dead }

// idleIndex is a lazy min-heap over machine indices believed idle:
// pushes are deduplicated, stale entries (machines observed loaded)
// are dropped at the top on the next query. Everything is engine-side
// and deterministic.
type idleIndex struct {
	c   *Cluster
	ids []int
	in  []bool
}

func (h *idleIndex) init(c *Cluster, n int) {
	h.c = c
	h.in = make([]bool, n)
	// Every machine starts idle.
	for m := 0; m < n; m++ {
		h.push(m)
	}
}

func (h *idleIndex) push(m int) {
	if h.in[m] {
		return
	}
	h.in[m] = true
	h.ids = append(h.ids, m)
	// Sift up.
	i := len(h.ids) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.ids[p] <= h.ids[i] {
			break
		}
		h.ids[p], h.ids[i] = h.ids[i], h.ids[p]
		i = p
	}
}

func (h *idleIndex) pop() int {
	m := h.ids[0]
	n := len(h.ids) - 1
	h.ids[0] = h.ids[n]
	h.ids = h.ids[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.ids[l] < h.ids[least] {
			least = l
		}
		if r < n && h.ids[r] < h.ids[least] {
			least = r
		}
		if least == i {
			break
		}
		h.ids[i], h.ids[least] = h.ids[least], h.ids[i]
		i = least
	}
	h.in[m] = false
	return m
}

// min returns the lowest idle machine index, discarding entries that
// have become loaded — or crashed — since they were pushed. The
// returned entry stays in the heap — it is evicted lazily once
// observed busy; a crashed machine is evicted here and re-pushed when
// it rejoins empty.
func (h *idleIndex) min() (int, bool) {
	for len(h.ids) > 0 {
		m := h.ids[0]
		if h.c.Load(m) == 0 && h.c.Alive(m) {
			return m, true
		}
		h.pop()
	}
	return 0, false
}

// --- submission side --------------------------------------------------

// Submit enqueues a batch of jobs atomically, exactly like
// Pool.Submit: a cluster's first batch, and any batch handed to a
// quiescent cluster, is delivered at its virtual arrival times,
// placement decided at each arrival's virtual instant.
func (c *Cluster) Submit(reqs ...JobRequest) error {
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrPoolClosed
	}
	if c.broken {
		return fmt.Errorf("core: cluster engine stopped: %v", c.runErr)
	}
	// Same ordering argument as Pool.Submit: the send happens under
	// c.mu so batches and close reach the engine in a well-defined
	// order, and a send racing teardown completes before
	// failRemaining's drain.
	select {
	case c.msgs <- poolMsg{arrivals: jobs}:
		return nil
	case <-c.dead:
		return fmt.Errorf("core: cluster engine stopped: %v", c.runErr)
	}
}

// Close rejects further submissions, delivers and completes every
// already-submitted job, then stops the engine. Safe to call more
// than once.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		select {
		case c.msgs <- poolMsg{close: true}:
		case <-c.dead:
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runErr
}

// Stats returns the fleet aggregate through the cluster's last job
// completion. It blocks until the engine goroutine has exited, so call
// it after Close; a cluster that never completed a job reports the
// zero aggregate. Every machine's snapshot shares the same Elapsed —
// the fleet's last completion — so summed energies compare policies at
// equal virtual windows.
func (c *Cluster) Stats() ClusterStats {
	<-c.dead
	st := ClusterStats{
		Machines:  make([]MachineStats, len(c.ms)),
		Placed:    append([]int64(nil), c.placed...),
		Migrated:  append([]int64(nil), c.migrated...),
		Completed: c.completed,
		Elapsed:   c.fleetAt,
		Crashes:   c.crashes,
		Rejoins:   c.rejoins,
		Retries:   c.retries,
		Lost:      c.lost,
	}
	if total := c.completed + c.lost; total > 0 {
		st.Goodput = float64(c.completed) / float64(total)
	}
	if c.fleetDown != nil {
		st.Downtime = append([]units.Time(nil), c.fleetDown...)
	}
	for m := range c.ms {
		snap := c.fleetSnap[m]
		ms := MachineStats{
			Elapsed:       c.fleetAt,
			EnergyJ:       snap.joules,
			Busy:          snap.busy,
			Spin:          snap.spin,
			Idle:          snap.idle,
			SlowBusy:      snap.slow,
			FreqBusy:      make(map[units.Freq]units.Time, len(snap.freqBusy)),
			Tasks:         c.fleetTasks[m],
			Spawns:        c.fleetSpawns[m],
			Steals:        c.fleetSteals[m],
			FailedSteals:  snap.failedSteals,
			TempoSwitches: snap.tempoSwitches,
			DVFSCommits:   snap.dvfsCommits,
			Parks:         snap.parks,
		}
		for f, t := range snap.freqBusy {
			ms.FreqBusy[f] = t
		}
		st.Machines[m] = ms
		st.EnergyJ += snap.joules
	}
	return st
}

// pump drains pending submissions without blocking (engine tick hook).
func (c *Cluster) pump() {
	for {
		select {
		case msg := <-c.msgs:
			if msg.close {
				// Hold the close until the engine is quiescent (see
				// Pool.pendingClose): applying it between scheduled
				// events would race the wall clock against the virtual
				// one and make the post-drain event tail
				// nondeterministic.
				c.pendingClose = true
				continue
			}
			c.apply(msg)
		default:
			return
		}
	}
}

// pumpBlocking waits for the next submission while the whole cluster
// is quiescent (engine idle hook). An idle engine with jobs still in
// flight anywhere is a genuine scheduling deadlock — refuse, so the
// engine's diagnostics fire.
func (c *Cluster) pumpBlocking() bool {
	if c.arrivals.Len() > 0 {
		return false
	}
	for _, s := range c.ms {
		if len(s.pool.active) > 0 {
			return false
		}
	}
	if c.pendingClose {
		c.pendingClose = false
		c.apply(poolMsg{close: true})
		return true
	}
	c.apply(<-c.msgs)
	return true
}

// apply folds one external message into engine-side state; runs with
// no process current, so Inject is legal.
func (c *Cluster) apply(msg poolMsg) {
	if msg.close {
		c.stop = true
		c.eng.Inject(c.intake, c.eng.Now())
		return
	}
	for _, j := range msg.arrivals {
		if j.at < c.eng.Now() {
			j.at = c.eng.Now()
		}
		heap.Push(&c.arrivals, j)
	}
	if c.arrivals.Len() > 0 {
		c.eng.Inject(c.intake, c.arrivals[0].at)
	}
}

// failRemaining mirrors Pool.failRemaining: on engine exit (clean or
// panicked), complete every job still queued anywhere with the cause.
func (c *Cluster) failRemaining() {
	var cause error
	if r := recover(); r != nil {
		cause = fmt.Errorf("core: cluster engine panicked: %v", r)
	} else {
		cause = ErrPoolClosed
	}
	close(c.dead)
	fail := func(j *jobRun) {
		if j.done != nil {
			done := j.done
			j.done = nil
			done(Report{}, cause)
		}
	}
	c.mu.Lock()
	c.broken = true
	if c.runErr == nil && cause != ErrPoolClosed {
		c.runErr = cause
	}
	for {
		select {
		case msg := <-c.msgs:
			for _, j := range msg.arrivals {
				fail(j)
			}
			continue
		default:
		}
		break
	}
	c.mu.Unlock()
	if c.placing != nil {
		fail(c.placing)
	}
	for _, j := range c.arrivals {
		fail(j)
	}
	for _, s := range c.ms {
		for _, j := range s.pool.active {
			fail(j)
		}
		for _, j := range s.pool.arrivals {
			fail(j)
		}
	}
}

// --- engine-side processes --------------------------------------------

// intakeLoop is the cluster's arrival process: it pops due arrivals in
// (time, id) order, asks the placement policy for a machine at each
// arrival's virtual instant, and delivers the job there. On shutdown
// it drains its own heap AND waits for every in-flight job before
// propagating stop to the machines (whose intakes run only the drain
// handshake in cluster mode) and the daemons: a crash can push an
// in-flight job back into the arrival heap, so the intake must outlive
// the last active job, not just the last pristine arrival.
func (c *Cluster) intakeLoop(p *sim.Proc) {
	for {
		if c.stop && c.arrivals.Len() == 0 && c.totalActive() == 0 {
			for _, s := range c.ms {
				s.pool.stop = true
				s.pool.intake.Wake()
			}
			if c.gossipd != nil {
				c.gossipd.Wake()
			}
			if c.faultd != nil {
				c.faultd.Wake()
			}
			return
		}
		if c.arrivals.Len() > 0 && c.arrivals[0].at <= c.eng.Now() {
			j := heap.Pop(&c.arrivals).(*jobRun)
			c.placing = j
			c.place(j)
			c.placing = nil
			continue
		}
		if c.arrivals.Len() > 0 {
			p.WaitUntil(c.arrivals[0].at)
			continue
		}
		p.ParkUntilWake()
	}
}

// place routes one job through the placement policy and delivers it.
// A policy that returns a dead machine (test policies need not be
// failure-aware) is corrected to the lowest-indexed live one; with the
// whole fleet down the job waits for the plan's next rejoin, or is
// lost.
func (c *Cluster) place(j *jobRun) {
	m := c.cfg.Placement.Place(c, c.rng)
	if m < 0 || m >= len(c.ms) {
		panic(fmt.Sprintf("core: placement chose machine %d of %d", m, len(c.ms)))
	}
	if c.ms[m].dead {
		m = -1
		for i, s := range c.ms {
			if !s.dead {
				m = i
				break
			}
		}
		if m < 0 {
			c.deferOrLose(j)
			return
		}
	}
	c.placed[m]++
	if c.gossipParked {
		c.gossipd.Wake()
	}
	if c.faultParked {
		c.faultd.Wake()
	}
	c.ms[m].deliver(j)
}

// machineJobDone is every machine's completion hook: maintain the
// idle index, and freeze the fleet-wide snapshot at this completion's
// virtual instant — across ALL machines, idle ones included, so the
// final snapshot (the one ClusterStats reports) charges every
// machine's draw through the same deterministic window.
func (c *Cluster) machineJobDone(m int) {
	c.completed++
	if len(c.ms[m].pool.active) == 0 && !c.ms[m].dead {
		c.idle.push(m)
	}
	c.fleetAt = c.eng.Now()
	for i, s := range c.ms {
		s.touch()
		c.fleetSnap[i] = s.poolSnapNow()
		c.fleetTasks[i], c.fleetSpawns[i], c.fleetSteals[i] = s.tasks, s.spawns, s.steals
		if c.fleetDown != nil {
			d := s.downTotal
			if s.dead {
				d += c.fleetAt - s.downAt
			}
			c.fleetDown[i] = d
		}
	}
	if c.stop && c.arrivals.Len() == 0 && c.totalActive() == 0 {
		c.wakeIntake()
	}
}

// totalActive is the number of jobs in the cluster's machines (not
// counting undelivered arrivals).
func (c *Cluster) totalActive() int {
	n := 0
	for _, s := range c.ms {
		n += len(s.pool.active)
	}
	return n
}

// gossipLoop is the cluster's migration daemon: every GossipInterval
// it lets idle machines pull unstarted jobs from the most-loaded peer
// as seen through the last refreshed queue views, THEN refreshes views
// that have aged past GossipStaleness — so thieves always act on
// information at least one interval old. It parks while the cluster
// is empty (an idle cluster generates no events) and exits once the
// cluster is stopping and drained.
func (c *Cluster) gossipLoop(p *sim.Proc) {
	for {
		if c.stop && c.arrivals.Len() == 0 && c.totalActive() == 0 {
			return
		}
		if c.totalActive() == 0 && c.arrivals.Len() == 0 {
			c.gossipParked = true
			p.ParkUntilWake()
			c.gossipParked = false
			continue
		}
		p.Sleep(c.cfg.GossipInterval)
		if c.stop && c.arrivals.Len() == 0 && c.totalActive() == 0 {
			return
		}
		c.gossipTick()
	}
}

// gossipTick runs one round: steals first (against stale views), view
// refresh second.
func (c *Cluster) gossipTick() {
	now := c.eng.Now()
	for t := range c.ms {
		thief := c.ms[t]
		if thief.done || thief.dead || len(thief.pool.active) != 0 {
			continue
		}
		// Most-loaded peer by the stale published views; ties go to the
		// lowest index. A view of zero means "believed idle" — nothing
		// worth pulling.
		best, bestLoad := -1, 0
		for v := range c.ms {
			if v != t && c.views[v].load > bestLoad {
				best, bestLoad = v, c.views[v].load
			}
		}
		if best < 0 || c.ms[best].done || c.ms[best].dead {
			continue
		}
		// The pull itself negotiates with the victim, so the batch is
		// bounded by the victim's actual unstarted backlog right now —
		// the staleness cost is choosing the wrong victim, not
		// migrating phantom jobs.
		avail := len(c.ms[best].pool.injectq)
		if avail == 0 {
			continue
		}
		n := c.cfg.GossipBatch
		if n <= 0 {
			n = (avail + 1) / 2
		}
		if n > avail {
			n = avail
		}
		c.migrate(best, t, n)
	}
	for m := range c.ms {
		if now-c.views[m].at >= c.cfg.GossipStaleness {
			load := len(c.ms[m].pool.active)
			if c.ms[m].dead {
				load = 0 // a dead machine has nothing worth pulling
			}
			c.views[m] = queueView{load: load, at: now}
		}
	}
}

// migrate moves up to n unstarted jobs (roots still awaiting pickup)
// from victim to thief. Re-delivery keeps each job's original arrival
// time — its sojourn spans the move — while re-baselining its machine
// snapshot on the thief.
func (c *Cluster) migrate(victim, thief, n int) {
	v := c.ms[victim]
	for i := 0; i < n && len(v.pool.injectq) > 0; i++ {
		t := v.pool.injectq[0]
		v.pool.injectq = v.pool.injectq[1:]
		j := t.job
		for k, a := range v.pool.active {
			if a == j {
				v.pool.active = append(v.pool.active[:k], v.pool.active[k+1:]...)
				break
			}
		}
		c.migrated[thief]++
		c.ms[thief].deliver(j)
	}
	if len(v.pool.active) == 0 {
		c.idle.push(victim)
	}
}
