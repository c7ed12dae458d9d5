package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"hermes/internal/sim"
	"hermes/internal/units"
)

// clusterSeedSalt decorrelates the placement RNG from the per-worker
// victim-selection streams (Seed*1_000_003 + worker id).
const clusterSeedSalt = 0x5bd1e995

// PlacementView is the read-only load picture a placement policy sees
// when a job arrives: exact instantaneous queue depths (placement
// decisions happen inside the engine, at the arrival's virtual time)
// plus the lowest idle machine. Gossip's deliberately stale views are a
// property of the migration tier, not of placement.
type PlacementView interface {
	// Machines is the fleet size.
	Machines() int
	// Load is the number of jobs in machine m's system (queued or
	// executing).
	Load(m int) int
	// IdleMachine returns the lowest-indexed live machine with no jobs
	// in its system, or ok=false when every live machine is loaded.
	// Always preferring the lowest idle index is what consolidates
	// load: higher-indexed machines stay parked in the lowest DVFS tier
	// instead of each being woken once.
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
	// staying deterministic. The placement and retry RNGs derive from
	// Seed too.
	Machine Config
	// Placement chooses a machine for each arriving job.
	Placement Placement

	// Gossip enables the gossip tier: every gossipInterval, idle
	// machines pull half of the unstarted backlog of the most-loaded
	// peer according to their last refreshed (stale) view of queue
	// sizes.
	Gossip bool

	// Faults is the injected failure schedule, replayed by an
	// engine-side daemon on the shared virtual timeline; empty runs a
	// fault-free fleet with zero overhead and byte-identical outcomes
	// to a build without fault support at all. Evicted jobs retry on
	// the fixed policy retryBudget / retryBackoff.
	Faults []FaultEvent
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

// Cluster is the persistent multi-job discrete-event executor, the one
// driver of the simulated machine's job stream: N independent machines
// — each its own cores, deques, tempo controller, DVFS state and power
// meter — inside one engine, fed by a placement tier (with Machines 1
// it has nothing to choose). Jobs arrive as virtual-time events at the
// intake, which asks the placement policy for a machine and delivers
// the job there, so concurrent jobs genuinely contend for workers and
// steals, and open-system quantities (sojourn, queueing delay, energy
// per request under load) are measured deterministically; an optional
// gossip daemon lets idle machines pull queued (unstarted) jobs from
// loaded peers on a realistically stale view of queue sizes.
//
// Determinism: the simulation's event order depends only on the
// ClusterConfig (seeds included) and on each job's virtual arrival time
// and id — never on wall-clock submission timing — because external
// stimuli enter the event order through front-priority injection at
// their virtual timestamps, and the single shared engine orders all
// machines' events on one virtual timeline. Submitting a whole trace in
// one Submit call therefore reproduces byte-identical per-job reports,
// per-machine MachineStats, observer event sequences and fleet
// aggregates run after run: the first batch a cluster receives is
// applied before the engine's first event, arrivals at virtual time
// zero included, and a later batch is exact when the cluster is
// quiescent. Jobs submitted "at now" from live callers (a serving
// process) get arrival times assigned by wall-clock race and are
// individually valid but not reproducible.
type Cluster struct {
	cfg ClusterConfig
	eng *sim.Engine
	ms  []*sched

	// Engine-side state (touched only by engine processes and hooks).
	intake     *sim.Proc
	gossipd    *sim.Proc
	gossipWait daemonWait
	arrivals   arrivalHeap
	stop       bool
	rng        *rand.Rand
	views      []queueView

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
	// pendingClose holds a close message received mid-timeline until
	// the engine is quiescent: applying it between scheduled events
	// would race the wall clock against the virtual one, making the
	// post-drain event tail (idle parks, tempo spin-downs)
	// nondeterministic.
	pendingClose bool

	// Fleet snapshot frozen at every job completion (machineJobDone):
	// the last one is the deterministic end-of-trace ledger Stats
	// reports.
	completed int64
	fleetAt   units.Time
	fleetSnap []Ledger

	// Submission side: the bridge from caller goroutines to the engine
	// goroutine. queued counts messages sent or being sent and not yet
	// received, so pump skips the channel poll when it reads zero.
	msgs   chan poolMsg
	queued atomic.Int64
	dead   chan struct{} // closed when the engine goroutine exits

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

// poolMsg is one message from a caller goroutine to the engine: a batch
// of arrivals, the close request, or a Stats call waiting on its reply.
type poolMsg struct {
	arrivals []*jobRun
	close    bool
	stats    chan<- ClusterStats
}

// arrivalHeap orders pending arrivals by (virtual time, job id).
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

// queueView is one machine's published queue size as the gossip tier
// last refreshed it.
type queueView struct {
	load int
	at   units.Time
}

// NewCluster validates cfg and starts the engine goroutine. An idle
// cluster parks every process (halted cores, no events, no wall-clock
// work) and costs nothing until the next arrival.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		eng:       sim.NewEngine(),
		rng:       rand.New(rand.NewSource(cfg.Machine.Seed*1_000_003 + clusterSeedSalt)),
		views:     make([]queueView, cfg.Machines),
		placed:    make([]int64, cfg.Machines),
		migrated:  make([]int64, cfg.Machines),
		fleetSnap: make([]Ledger, cfg.Machines),
		msgs:      make(chan poolMsg, 64),
		dead:      make(chan struct{}),
	}
	c.eng.SetTick(c.pump)
	c.eng.SetIdle(c.pumpBlocking)
	// The intake is created before any machine's processes. Engine.Inject
	// is a no-op on a process whose start event is still pending, so an
	// arrival at t = 0 is delivered when the intake's start event runs:
	// creation order is what puts that ahead of the workers' first
	// events (idle workers filing their spin-down) instead of behind.
	c.intake = c.eng.Go("intake", c.intakeLoop)
	for m := 0; m < cfg.Machines; m++ {
		mcfg := cfg.Machine
		mcfg.Seed = cfg.Machine.Seed + int64(m)
		s := newSched(c.eng, mcfg)
		s.mid = m
		s.tag = fmt.Sprintf("m%d/", m)
		s.onJobDone = func(end *Ledger) { c.machineJobDone(m, end) }
		if len(cfg.Faults) > 0 {
			s.onEvicted = c.requeue
		}
		c.ms = append(c.ms, s)
		s.start()
	}
	if cfg.Gossip {
		c.gossipd = c.eng.GoStep("gossipd", c.gossipStep)
	}
	if len(cfg.Faults) > 0 {
		c.frng = rand.New(rand.NewSource(cfg.Machine.Seed*1_000_003 + faultSeedSalt))
		c.fleetDown = make([]units.Time, cfg.Machines)
		c.faultd = c.eng.Go("faultd", c.faultLoop)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.failRemaining() // closes c.dead
		// The first submission or the close is applied before the
		// engine's first event, so whether it overtakes the start-up
		// events is fixed by construction and not by how fast the
		// caller was. Stats calls before it are answered here.
		for c.apply(c.recv()) {
		}
		c.eng.Run()
	}()
	return c, nil
}

// Config returns the validated cluster configuration.
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// --- PlacementView ----------------------------------------------------

func (c *Cluster) Machines() int    { return len(c.ms) }
func (c *Cluster) Load(m int) int   { return len(c.ms[m].pool.active) }
func (c *Cluster) Alive(m int) bool { return !c.ms[m].dead }

// IdleMachine scans for the lowest-indexed live machine with no jobs
// in its system.
func (c *Cluster) IdleMachine() (int, bool) {
	for m := range c.ms {
		if c.Load(m) == 0 && c.Alive(m) {
			return m, true
		}
	}
	return 0, false
}

// --- submission side --------------------------------------------------

// Submit enqueues a batch of jobs atomically and returns once they are
// handed to the engine. A cluster's first batch, and any batch handed
// to a quiescent cluster, is delivered exactly at its virtual arrival
// times, placement decided at each arrival's virtual instant; see the
// Cluster determinism contract.
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
		return fmt.Errorf("core: engine stopped: %v", c.runErr)
	}
	// The send happens under c.mu so submission batches and the close
	// message reach the engine in a well-defined order, and so a send
	// racing engine teardown always completes before failRemaining's
	// drain (which takes c.mu after setting broken). The dead case
	// covers a full channel with no consumer left.
	if !c.send(poolMsg{arrivals: jobs}) {
		return fmt.Errorf("core: engine stopped: %v", c.runErr)
	}
	return nil
}

// send hands msg to the engine goroutine, counting it in queued first,
// or reports false once the engine has exited. Submit and Close hold
// c.mu, so no batch is stranded after failRemaining's drain.
func (c *Cluster) send(msg poolMsg) bool {
	c.queued.Add(1)
	select {
	case c.msgs <- msg:
		return true
	case <-c.dead:
		c.queued.Add(-1)
		return false
	}
}

// recv takes the next message off the channel, blocking, and uncounts
// it.
func (c *Cluster) recv() poolMsg {
	msg := <-c.msgs
	c.queued.Add(-1)
	return msg
}

// Close rejects further submissions, delivers and completes every
// already-submitted job (pending virtual arrivals included), then
// stops the engine. Safe to call more than once.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.send(poolMsg{close: true})
	}
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runErr
}

// Stats returns the fleet aggregate through the cluster's last job
// completion; a cluster that never completed a job reports the zero
// aggregate. Before Close the engine goroutine answers between events,
// without scheduling one; after Close it is final. Every machine's
// snapshot shares the same Elapsed — the fleet's last completion — so
// summed energies compare policies at equal virtual windows.
func (c *Cluster) Stats() ClusterStats {
	reply := make(chan ClusterStats, 1)
	if c.send(poolMsg{stats: reply}) {
		select {
		case st := <-reply:
			return st
		case <-c.dead:
		}
	}
	return c.stats()
}

// stats renders the fleet ledger. It runs on the engine goroutine, or
// on any goroutine once the engine has exited.
func (c *Cluster) stats() ClusterStats {
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
	for m := range c.fleetSnap {
		st.Machines[m] = c.fleetSnap[m].MachineStats(c.fleetAt, c.ms[m].cfg.Freqs)
		st.EnergyJ += c.fleetSnap[m].Joules
	}
	return st
}

// EngineStats waits for the engine to exit and returns its counters:
// events dispatched, those that resumed a coroutine, and those that were
// steal probes (the engine's late wakes).
func (c *Cluster) EngineStats() (events, resumes, probes uint64) {
	<-c.dead
	return c.eng.Dispatched, c.eng.Resumes, c.eng.Late
}

// pump drains pending submissions without blocking; it is the engine's
// tick hook and runs on the engine goroutine between events. With
// nothing queued it returns without polling the channel.
func (c *Cluster) pump() {
	for c.queued.Load() > 0 {
		select {
		case msg := <-c.msgs:
			c.queued.Add(-1)
			if msg.close {
				c.pendingClose = true
				continue
			}
			c.apply(msg)
		default:
			return
		}
	}
}

// pumpBlocking waits for the next submission (or close) while the
// whole cluster is quiescent; it is the engine's idle hook, so a
// cluster with no jobs costs nothing until the next arrival. An idle
// engine with jobs still in flight anywhere is a genuine scheduling
// deadlock — refuse, so the engine's loud deadlock diagnostics fire
// instead of hanging silently.
func (c *Cluster) pumpBlocking() bool {
	if c.arrivals.Len() > 0 || c.totalActive() > 0 {
		return false
	}
	if c.pendingClose {
		c.pendingClose = false
		c.apply(poolMsg{close: true})
		return true
	}
	c.apply(c.recv())
	return true
}

// apply folds one external message into the engine-side state and
// injects the intake wake that will act on it, or answers a Stats
// call and reports so. Runs with no process current, so Inject is
// legal.
func (c *Cluster) apply(msg poolMsg) (answered bool) {
	if msg.stats != nil {
		msg.stats <- c.stats()
		return true
	}
	if msg.close {
		c.stop = true
		c.eng.Inject(c.intake, c.eng.Now())
		return false
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
	return false
}

// failRemaining runs when the engine goroutine exits: on a clean
// shutdown there is nothing left, but if the engine died to a
// scheduler panic every in-flight and queued job still needs its
// completion callback. It runs after sim.Engine.Run has returned or
// panicked, so the engine-side state is quiescent. Ordering matters:
// c.dead closes first (unblocking any sender stuck on a full
// channel), then broken is set and the channel drained under c.mu —
// a Submit that saw broken false completed its send under the same
// mutex, so the drain sees every message no late sender can strand.
func (c *Cluster) failRemaining() {
	cause := ErrPoolClosed
	if r := recover(); r != nil {
		cause = fmt.Errorf("core: engine panicked: %v", r)
	}
	close(c.dead)
	c.mu.Lock()
	c.broken = true
	if c.runErr == nil && cause != ErrPoolClosed {
		c.runErr = cause
	}
	// Batches sent but never pumped.
	for drained := false; !drained; {
		select {
		case msg := <-c.msgs:
			c.queued.Add(-1)
			for _, j := range msg.arrivals {
				j.finish(Report{}, cause)
			}
		default:
			drained = true
		}
	}
	c.mu.Unlock()
	if c.placing != nil {
		c.placing.finish(Report{}, cause)
	}
	for _, j := range c.arrivals {
		j.finish(Report{}, cause)
	}
	for _, s := range c.ms {
		for _, j := range s.pool.active {
			j.finish(Report{}, cause)
		}
	}
}

// --- engine-side processes --------------------------------------------

// intakeLoop is the virtual-time arrival process: it sleeps until the
// earliest pending arrival, pops every arrival that is due in
// (time, id) order, asks the placement policy for a machine at the
// arrival's virtual instant and delivers the job there, and parks when
// none are pending. External submissions reach it through
// front-priority injected wakes, job completions through Wake, so it
// also drives the shutdown handshake: once stopping, it drains its own
// heap AND waits for every in-flight job before shutting the machines
// and daemons down — a crash can push an in-flight job back into the
// arrival heap, so the intake must outlive the last active job, not
// just the last pristine arrival. Delivery can complete a job on this
// very process (one already cancelled at arrival), which is why every
// iteration re-evaluates the shutdown condition instead of parking
// past it.
func (c *Cluster) intakeLoop(p *sim.Proc) {
	for {
		if c.stop && c.arrivals.Len() == 0 && c.totalActive() == 0 {
			for _, s := range c.ms {
				s.poolShutdown()
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
	if c.gossipWait == waitIdle {
		c.gossipd.Wake()
	}
	if c.faultParked {
		c.faultd.Wake()
	}
	c.ms[m].deliver(j)
}

// machineJobDone is every machine's completion hook: freeze the fleet
// at this completion's instant.
func (c *Cluster) machineJobDone(m int, end *Ledger) {
	c.completed++
	c.freezeFleet(m, end)
	if c.stop && c.arrivals.Len() == 0 && c.totalActive() == 0 {
		c.wakeIntake()
	}
}

// freezeFleet copies every machine's ledger into the fleet snapshot at
// the current virtual instant — idle machines included, so the final
// snapshot (the one Stats reports) charges every machine's draw through
// the same deterministic window, not through the wall-clock-racy
// shutdown time. end is the copy machine m's jobDone just took; the
// other machines are copied here, into reused buffers.
func (c *Cluster) freezeFleet(m int, end *Ledger) {
	c.fleetAt = c.eng.Now()
	for i, s := range c.ms {
		if i == m {
			c.fleetSnap[i].CopyFrom(end)
		} else {
			s.touch()
			s.snapInto(&c.fleetSnap[i])
		}
		if c.fleetDown != nil {
			d := s.downTotal
			if s.dead {
				d += c.fleetAt - s.downAt
			}
			c.fleetDown[i] = d
		}
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

// gossipInterval is the gossip tier's tick: fine-grained against
// millisecond-scale service times, coarse against the simulator's
// microsecond events. A published queue view refreshes once it is an
// interval old.
const gossipInterval = 500 * units.Microsecond

// gossipStep is the cluster's migration daemon, a GoStep process: every
// gossipInterval it lets idle machines pull unstarted jobs from the
// most-loaded peer as seen through the last refreshed queue views, THEN
// refreshes views that have aged a whole interval — so thieves always
// act on information at least one interval old. It parks while the
// cluster is empty (an idle cluster generates no events) and exits once
// the cluster is stopping and drained.
func (c *Cluster) gossipStep() (units.Time, bool) {
	empty := func() bool { return c.arrivals.Len() == 0 && c.totalActive() == 0 }
	if c.gossipWait == waitPeriod && !(c.stop && empty()) {
		c.gossipTick()
	}
	switch {
	case c.stop && empty():
		return 0, false
	case empty():
		c.gossipWait = waitIdle
		return sim.UntilWake, true
	}
	c.gossipWait = waitPeriod
	return c.eng.Now() + gossipInterval, true
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
		// half (rounded up) of the victim's actual unstarted backlog
		// right now — the staleness cost is choosing the wrong victim,
		// not migrating phantom jobs.
		avail := len(c.ms[best].pool.injectq)
		if avail == 0 {
			continue
		}
		c.migrate(best, t, (avail+1)/2)
	}
	for m := range c.ms {
		if now-c.views[m].at >= gossipInterval {
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
		v.pool.dropActive(t.job)
		c.migrated[thief]++
		c.ms[thief].deliver(t.job)
	}
}
