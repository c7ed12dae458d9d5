package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"

	"hermes/internal/cpu"
	"hermes/internal/obs"
	"hermes/internal/sim"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// task is one deque item: a workload closure, the fork-join block it
// belongs to, and the job it is accounted against; a Fork2 task has no
// closure, and runs its block's body. root marks a job's injected root
// task, whose completion completes the job. Spawned tasks are pooled
// per worker: the worker that runs one (its own or stolen) recycles it
// into its own free list.
type task struct {
	fn   wl.Task
	blk  *block
	job  *jobRun
	root bool
}

// block tracks one Ctx.Go fork-join block: how many of its pushed
// tasks are still outstanding and, if the owning worker had to park
// waiting for stolen tasks, who to wake. A Fork2 block also carries
// its pushed call, body(x, y), and its result, 0 until that call
// returns. The forking worker recycles it once its join has drained
// it.
type block struct {
	pending   int
	waiter    *worker
	outer     *block // the worker's next open block out: see worker.open
	exhausted bool   // the join in progress found the local tail past its tasks
	body      wl.Body
	x, y, res int
}

// worker is one scheduler thread pinned to a core on its own clock
// domain (the paper's placement).
type worker struct {
	s    *sched
	id   int
	core *cpu.Core
	// dq keeps the paper's THE deque order (ring.go) without its
	// synchronization: the simulator is the measurement instrument,
	// deque overheads are modeled (pushPopCost, stealCost) rather than
	// paid, and the single-threaded engine never contends.
	dq   ring
	proc *sim.Proc
	rng  *rand.Rand

	// freeTasks and freeBlocks recycle spawned tasks and fork-join
	// blocks, bounded by freeListCap.
	freeTasks  []*task
	freeBlocks []*block
	// open is the innermost block the worker has forked and not yet
	// joined, linked outward through block.outer. A body that panics
	// joins every block it left open: see runBody.
	open *block

	// inWork marks an in-flight CPU work segment so the DVFS daemon
	// knows to wake us for re-rating when our domain's clock changes.
	inWork bool

	// curJob is the job of the innermost in-flight runTask frame (a
	// join runs other tasks — possibly other jobs' — inline): the job
	// this worker's busy time, and so its share of the machine's power
	// draw, belongs to right now; nil between tasks. idlePark marks a
	// worker halted in poolIdle, the only parked state a job arrival
	// should wake.
	curJob   *jobRun
	idlePark bool
	// resAt is when the worker's residency was last credited (credit).
	resAt units.Time

	// Run-ahead: Work and Mem append to pend and return; settle simulates
	// the frame's segments pend[base:] (cur is the one in flight).
	pend      []segment
	base, cur int
	stallEnd  units.Time // of the stall in flight

	// What seek's and settle's stepped waits carry from wake to wake;
	// the step funcs are bound once, so a wait allocates nothing.
	hunt struct {
		at  huntAt
		blk *block // the block a join waits on, nil in schedule
		got *task  // the task to hand the coroutine
		// A steal round's probe i looks at probeVictim(i) and falls due
		// at base + (i-from)·stealCost, from being the last probe taken
		// as an event (-1 at the round's start, at base). The wait in
		// flight ends at probe next; probes [done, next) are folded into
		// it: failed steals the ledger has not counted yet (creditProbes).
		first, from, done, next int
		base                    units.Time
	}
	slice struct {
		rem         units.Cycles // not yet retired
		f           units.Freq   // rated at this frequency
		slow        float64      // and this straggler factor
		start, full units.Time   // from start; rem retires at full
	}
	huntStep, settleStep func() (units.Time, bool)

	helpDepth int
	backoff   units.Time
	// preemptDepth bounds quantum-preemption nesting: each preemption
	// runs the overtaking job's root inline inside settle, so a
	// pathological trace could otherwise stack frames without limit.
	preemptDepth int
}

// maxPreemptDepth caps nested quantum preemptions per worker.
const maxPreemptDepth = 8

// freeListCap bounds each worker's task and block free lists, as the
// Native executor's do.
const freeListCap = 256

// segment is one accounting call not yet simulated: cy CPU cycles or,
// when cy is 0, a frequency-independent stall of d — a push's deque cost
// if pushed, after which the growth check runs.
type segment struct {
	cy     units.Cycles
	d      units.Time
	pushed bool
}

// pendBound caps a frame's unsettled segments (a full list settles
// early, invisibly); at 1, every segment settles as its call returns.
var pendBound = 256

func newWorker(s *sched, id int, c *cpu.Core) *worker {
	w := &worker{
		s:    s,
		id:   id,
		core: c,
		dq:   newRing(64),
		rng:  rand.New(rand.NewSource(s.cfg.Seed*1_000_003 + int64(id))),

		freeTasks:  make([]*task, 0, freeListCap),
		freeBlocks: make([]*block, 0, freeListCap),
	}
	w.huntStep, w.settleStep = w.stepHunt, w.stepSettle
	return w
}

func (w *worker) name() string { return fmt.Sprintf("%sworker%d", w.s.tag, w.id) }

// huntAt names the wait in flight in a worker's hunt for work.
type huntAt uint8

const (
	huntPopped  huntAt = iota // a local pop's deque cost
	huntProbe                 // steal probes' cost, a late wait
	huntBackoff               // yield's back-off spin
	huntIdle                  // halted in poolIdle, no timer
	huntBlock                 // halted on the joined block, no timer
)

// schedule is the process body, Algorithm 3.1: pop local work; failing
// that, relay immediacy and unlink (out of work), take a delivered
// root, then steal; failing that, yield — or, with no job in the
// system, halt the core until deliver hands the machine an arrival.
// All of that is seek's one stepped wait: the coroutine resumes only to
// run a task.
func (w *worker) schedule(*sim.Proc) {
	for t := w.seek(nil); t != nil; t = w.seek(nil) {
		w.runTask(t)
	}
}

// seek runs a no-work loop — schedule's, or with blk that of join(blk)
// — as one stepped wait ("Stepped waits" in internal/sim's doc): stepHunt
// spends its deque costs, probes, back-offs and halts without resuming
// the worker, which gets back the task to run, or nil once blk drains
// or the machine shuts down.
func (w *worker) seek(blk *block) *task {
	h := &w.hunt
	h.blk = blk
	if t, wait := w.huntTop(); wait {
		w.proc.WaitUntilStep(t, w.huntStep)
	}
	t := h.got
	h.got = nil
	return t
}

// huntTop is the top of the no-work loop: it returns the loop's next
// wait, or false when the hunt is over. A join runs the block's own
// pushed tasks from the local tail; once they are gone (run or stolen)
// it helps by stealing elsewhere, through the same out-of-work tempo
// path as schedule, and past the help-depth cap halts until the block
// drains. Re-halting after a spurious wake (job arrivals, DVFS
// re-rating) continues the same logical park and is not recounted.
func (w *worker) huntTop() (units.Time, bool) {
	s, blk := w.s, w.hunt.blk
	if blk == nil {
		if s.done {
			return 0, false
		}
		if t, ok := w.dq.Pop(); ok {
			w.restock()
			return w.popped(t)
		}
		s.tempo.OutOfWork(w.id, s.cfg.Mode)
		if t := s.poolTake(); t != nil {
			w.backoff = 0
			s.tempo.TookRoot(w.id, w.dq.Size(), s.cfg.Mode)
			w.hunt.got = t
			return 0, false
		}
		if w.poolIdle() {
			return sim.UntilWake, true
		}
		return w.stealRound()
	}
	if blk.pending == 0 {
		w.setState(cpu.Busy)
		return 0, false
	}
	if s.done {
		return 0, false
	}
	if !blk.exhausted {
		if t, ok := w.dq.Pop(); !ok {
			blk.exhausted = true
		} else if t.blk != blk {
			// Tail belongs to an enclosing block: not legal to run
			// before this join completes. Put it back (same position)
			// and stop popping — our remaining block tasks were stolen.
			w.dq.Push(t)
			blk.exhausted = true
		} else {
			w.restock()
			return w.popped(t)
		}
	}
	if w.helpDepth >= maxHelpDepth {
		if blk.waiter != w {
			blk.waiter = w
			s.led.Parks++
		}
		w.setState(cpu.IdleHalt)
		w.hunt.at = huntBlock
		return sim.UntilWake, true
	}
	s.tempo.OutOfWork(w.id, s.cfg.Mode)
	return w.stealRound()
}

// stepHunt is seek's step, run when the wait in flight ends or a wake
// cuts it short: finish what the wait was for, then carry on with the
// loop.
func (w *worker) stepHunt() (units.Time, bool) {
	s, h := w.s, &w.hunt
	switch h.at {
	case huntPopped:
		// Figure 5 POP: the workload-sensitive shrink check.
		s.tempo.Shrunk(w.id, w.dq.Size(), s.cfg.Mode)
		return 0, false
	case huntProbe:
		// The probe due now or, woken early, the first not yet due;
		// the folded ones before it failed.
		w.creditProbes()
		i := h.done
		h.next = i
		if s.done {
			return w.failedRound()
		}
		// An empty deque is a failed steal; the probe's cost is modeled.
		// A landed one applies the tempo policy's steal rules to thief
		// and victim.
		if v := s.workers[w.probeVictim(i)]; !v.dq.Empty() {
			t, _ := v.dq.Steal()
			v.restock()
			s.led.Steals++
			s.led.Workers[w.id].Steals++
			t.job.steals++
			s.emit(obs.Event{Kind: obs.Steal, Time: s.eng.Now(), Worker: w.id, Victim: v.id})
			s.tempo.Stole(w.id, v.id, w.dq.Size(), v.dq.Size(), s.cfg.Mode)
			w.backoff = 0
			h.got = t
			return 0, false
		}
		s.led.FailedSteals++
		if i == len(s.workers)-2 {
			return w.failedRound()
		}
		return w.probeFrom(i)
	case huntIdle:
		w.idlePark = false
	case huntBlock:
		w.setState(cpu.Busy)
	}
	return w.huntTop()
}

// popped starts the deque cost of a local pop (Figure 5 POP).
func (w *worker) popped(t *task) (units.Time, bool) {
	w.setState(cpu.Busy)
	w.hunt.at, w.hunt.got = huntPopped, t
	return w.s.eng.Now() + pushPopCost, true
}

// poolIdle halts the worker (core halted, no modeled draw) while the
// machine has no active jobs, instead of burning virtual time probing
// an empty machine: the tempo policy files the slowest tempo first.
// deliver wakes every idle worker when a job arrives.
func (w *worker) poolIdle() bool {
	if w.s.done || len(w.s.pool.active) > 0 {
		return false
	}
	w.backoff = 0
	w.s.tempo.Parked(w.id, w.s.cfg.Mode)
	w.setState(cpu.IdleHalt)
	w.idlePark = true
	w.hunt.at = huntIdle
	return true
}

// setState transitions the hosting core's activity state, integrating
// power first.
func (w *worker) setState(st cpu.CoreState) {
	if w.core.State == st {
		return
	}
	w.s.touch()
	w.credit()
	was := w.serving()
	w.core.State = st
	w.s.serving += w.serving() - was
}

// serving is 1 while w's core is Busy inside a job's task — touch
// splits the machine's energy among those workers — and 0 otherwise.
func (w *worker) serving() int {
	if w.core.State == cpu.Busy && w.curJob != nil {
		return 1
	}
	return 0
}

// credit moves w's residency since resAt into its (state, frequency)
// cell of the machine's ledger; a dead machine's time is no one's.
func (w *worker) credit() {
	s, now := w.s, w.s.eng.Now()
	if !s.dead {
		s.led.Workers[w.id].Res[w.core.State-1][s.domFi[w.core.Dom.ID]] += now - w.resAt
	}
	w.resAt = now
}

// push places a spawned task on the worker's own tail (Figure 5
// PUSH), once what the frame ran before it is settled: the deque op's
// cost is a stall segment of the frame, settled with the body's next
// segments, and the workload-sensitive growth check runs where it ends
// (stepSettle).
func (w *worker) push(t *task) {
	w.settle()
	w.s.led.Spawns++
	t.job.spawns++
	w.dq.Push(t)
	w.restock()
	w.pend = append(w.pend, segment{d: pushPopCost, pushed: true})
}

// stealRound starts a round that probes every other worker once,
// starting from a random victim and sweeping cyclically (the usual
// randomized SELECT loop), until a steal lands or the round is
// exhausted; stepHunt spends each probe's steal cost.
func (w *worker) stealRound() (units.Time, bool) {
	n := len(w.s.workers)
	if n == 1 || w.s.done {
		return w.failedRound()
	}
	h := &w.hunt
	h.first = w.rng.Intn(n)
	if h.first == w.id {
		h.first = (w.id + 1) % n
	}
	return w.probeFrom(-1)
}

// foldProbes folds a thief's probes of empty deques into one wait; off,
// each probe is an event of its own (TestProbeFoldIsInvisible's oracle).
var foldProbes = true

// probeFrom waits for the round's probes after probe from (-1: the
// round's start), taken now. Probes are late waits ("Late wakes" in
// internal/sim's doc), so a probe due at an instant sees everything else
// that happens at it. Each probe of a deque that is empty now is folded
// into a wait for the first probe of a non-empty one or the round's
// last: the deque stays empty unless a push refills it, and restock
// then gives the probe its event back.
func (w *worker) probeFrom(from int) (units.Time, bool) {
	h, s := &w.hunt, w.s
	h.at, h.base, h.from, h.done = huntProbe, s.eng.Now(), from, from+1
	i, last := from+1, len(s.workers)-2
	if foldProbes && i < last {
		i = last
		if v := s.firstStocked(w.probeVictim(from+1), w.id); v >= 0 {
			if j := w.probeIndex(v); j > from {
				i = min(j, last)
			}
		}
	}
	h.next = i
	w.setState(cpu.Spin)
	w.proc.Late()
	return w.probeDue(i), true
}

// probeVictim is the worker a round's probe i looks at: the others in
// cyclic order from hunt.first.
func (w *worker) probeVictim(i int) int {
	n, first := len(w.s.workers), w.hunt.first
	if i >= (w.id-first+n)%n {
		i++ // past w itself
	}
	return (first + i) % n
}

// probeIndex is the index of the round's probe of worker v.
func (w *worker) probeIndex(v int) int {
	n, first := len(w.s.workers), w.hunt.first
	i := (v - first + n) % n
	if i > (w.id-first+n)%n {
		i-- // past w itself
	}
	return i
}

// probeDue is when the round's probe i falls due.
func (w *worker) probeDue(i int) units.Time {
	return w.hunt.base + units.Time(i-w.hunt.from)*stealCost
}

// creditProbes counts the folded probes whose wakes have passed as the
// failed steals they were. Whoever reads the ledger calls it first
// (snapInto), so no read can tell a fold from a probe per event.
func (w *worker) creditProbes() {
	h, e := &w.hunt, w.s.eng
	if h.done >= h.next {
		return
	}
	k := min(h.from+int((e.Now()-h.base)/stealCost), h.next-1) // due by now
	if !e.LatePassed(w.probeDue(k), w.proc) {
		k--
	}
	if k >= h.done {
		w.s.led.FailedSteals += int64(k + 1 - h.done)
		h.done = k + 1
	}
}

// restock keeps w's bit in sched.stocked in step with its deque after a
// push, pop or steal. A push that refills an empty deque unfolds the
// thieves' probes of it: every thief whose wait folds a probe of w not
// yet due gets that probe back as its event. A push onto a non-empty
// deque needs none, since no fold planned after the deque last emptied
// can include it.
func (w *worker) restock() {
	word, bit := &w.s.stocked[w.id>>6], uint64(1)<<(w.id&63)
	if w.dq.Empty() {
		*word &^= bit
		return
	}
	if *word&bit != 0 {
		return
	}
	*word |= bit
	e := w.s.eng
	for _, t := range w.s.workers {
		h := &t.hunt
		if h.done >= h.next {
			continue
		}
		i := t.probeIndex(w.id)
		if at := t.probeDue(i); i >= h.done && i < h.next && !e.LatePassed(at, t.proc) {
			h.next = i
			t.proc.WakeLate(at)
		}
	}
}

// failedRound ends a steal round that landed nothing: a join whose
// block drained meanwhile is done, an empty machine halts the worker,
// and otherwise it yields — backs off, spinning at the core's current
// tempo (the paper does not adjust frequency for idle workers). Backoff
// grows exponentially to a cap and resets on the next successful pop or
// steal.
func (w *worker) failedRound() (units.Time, bool) {
	if blk := w.hunt.blk; blk != nil {
		if blk.pending == 0 {
			w.setState(cpu.Busy)
			return 0, false
		}
	} else if w.poolIdle() {
		return sim.UntilWake, true
	}
	if w.backoff == 0 {
		w.backoff = yieldSpin
	} else {
		w.backoff *= 2
		if w.backoff > yieldSpinMax {
			w.backoff = yieldSpinMax
		}
	}
	w.setState(cpu.Spin)
	w.hunt.at = huntBackoff
	return w.s.eng.Now() + w.backoff, true
}

// runTask executes one task: under dynamic scheduling the worker pays
// the affinity set/reset cost around the WORK invocation
// (Section 3.4); on completion the task's block is notified. The
// worker's curJob tracks the innermost frame's job while it runs, so
// every power-integration interval attributes this worker's busy time
// (and energy share) to the right job, and completing a job's root
// task completes the job.
func (w *worker) runTask(t *task) {
	w.setState(cpu.Busy)
	j := t.job
	prevJob := w.curJob
	w.setJob(j)
	if !j.started {
		j.started = true
		j.startAt = w.s.eng.Now()
	}
	if w.s.cfg.Scheduling == Dynamic {
		w.proc.Sleep(2 * affinityCost)
	}
	if !w.s.taskCancelled(j) {
		w.s.led.Tasks++
		j.tasks++
		w.runBody(t)
	}
	if blk := t.blk; blk != nil {
		blk.pending--
		if blk.pending == 0 && blk.waiter != nil {
			waiter := blk.waiter
			blk.waiter = nil
			waiter.proc.Wake()
		}
	}
	if t.root {
		// Completion runs while curJob still points at j, so the final
		// power-integration sliver inside jobDone's touch lands on the
		// finishing job.
		w.s.jobDone(j)
	} else {
		w.putTask(t)
	}
	w.setJob(prevJob)
}

// getTask recycles a task from the worker's free list, or allocates
// when the list is dry.
func (w *worker) getTask(fn wl.Task, blk *block, j *jobRun) *task {
	if n := len(w.freeTasks); n > 0 {
		t := w.freeTasks[n-1]
		w.freeTasks = w.freeTasks[:n-1]
		t.fn, t.blk, t.job = fn, blk, j
		return t
	}
	return &task{fn: fn, blk: blk, job: j}
}

// putTask clears and recycles a spawned task once runTask is done with
// it; a full list drops it to the collector.
func (w *worker) putTask(t *task) {
	if len(w.freeTasks) < cap(w.freeTasks) {
		t.fn, t.blk, t.job = nil, nil, nil
		w.freeTasks = append(w.freeTasks, t)
	}
}

// getBlock recycles a fork-join block, or allocates one, and opens it:
// it becomes w.open.
func (w *worker) getBlock(pending int) *block {
	var blk *block
	if n := len(w.freeBlocks); n > 0 {
		blk = w.freeBlocks[n-1]
		w.freeBlocks = w.freeBlocks[:n-1]
		blk.pending = pending
	} else {
		blk = &block{pending: pending}
	}
	blk.outer, w.open = w.open, blk
	return blk
}

// putBlock closes a joined block and recycles it if its join drained
// it: no task and no waiter refers to it any more. One left pending by
// a shutdown is not recycled.
func (w *worker) putBlock(blk *block) {
	w.open = blk.outer
	if blk.pending == 0 && len(w.freeBlocks) < cap(w.freeBlocks) {
		blk.body, blk.res = nil, 0
		w.freeBlocks = append(w.freeBlocks, blk)
	}
}

// setJob moves the worker's energy-attribution pointer. The core may
// stay Busy straight across a job switch (setState would early-return,
// leaving no integration boundary), so the interval run under the old
// job must be integrated before the pointer moves — otherwise the
// whole stretch since the last touch lands on whichever job is
// current at the next one.
func (w *worker) setJob(j *jobRun) {
	if w.curJob == j {
		return
	}
	w.s.touch()
	was := w.serving()
	w.curJob = j
	w.s.serving += w.serving() - was
}

// runBody invokes the task closure as a frame of its own in pend. A
// panicking body fails only its own job, once what it accounted is
// settled — the error surfaces from the job's completion, the rest of
// the job drains like a cancellation, and concurrent jobs on the shared
// machine are untouched (matching the Native backend). The failed job
// then joins every block the body left open, innermost first, so its
// pushed tasks, which the job now skips, drain before the body returns.
func (w *worker) runBody(t *task) {
	outer, open := w.base, w.open
	w.base = len(w.pend)
	defer func() {
		if p := recover(); p != nil {
			if sim.IsUnwind(p) {
				panic(p) // engine teardown, not a task fault
			}
			w.settle()
			t.job.fail(fmt.Errorf("core: job %d task panicked: %v\n%s",
				t.job.id, p, debug.Stack()))
			for w.open != open {
				blk := w.open
				w.join(blk)
				w.putBlock(blk)
			}
		}
		w.base = outer
	}()
	if t.fn != nil {
		t.fn(t.job.ctx(w))
	} else {
		t.blk.res = t.blk.body(t.job.ctx(w), t.blk.x, t.blk.y)
	}
	w.settle()
}

// join completes a fork-join block: seek runs its no-work loop, and the
// worker resumes only to run one of the block's tasks or, one help-steal
// deeper, a stolen one — never the block's, which only this worker's
// deque holds.
func (w *worker) join(blk *block) {
	blk.exhausted = false
	for t := w.seek(blk); t != nil; t = w.seek(blk) {
		if t.blk != blk {
			w.helpDepth++
			w.runTask(t)
			w.helpDepth--
		} else {
			w.runTask(t)
		}
		w.setState(cpu.Busy)
	}
}

// account adds a non-empty segment to the running frame, settling the
// frame early when its list is full.
func (w *worker) account(sg segment) {
	if sg.cy <= 0 && sg.d <= 0 {
		return
	}
	w.pend = append(w.pend, sg)
	if len(w.pend)-w.base >= pendBound {
		w.settle()
	}
}

// settle simulates the frame's segments in order as one stepped wait,
// as blocking calls would have: CPU cycles retire at the core's clock,
// re-rated when a DVFS commit or straggler change lands mid-segment,
// chopped at quantum boundaries, and abandoned on eviction (the job
// re-runs elsewhere); a stall waits out its span. The worker resumes
// only at the end, or to run an overtaking root inline (maybePreempt),
// which settles its own segments above ours.
func (w *worker) settle() {
	t, wait := w.advance(w.base, true)
	for {
		if wait {
			w.proc.WaitUntilStep(t, w.settleStep)
		}
		if w.cur == len(w.pend) {
			break
		}
		cur, rem := w.cur, w.slice.rem
		w.maybePreempt()
		w.cur, w.slice.rem = cur, rem
		if w.s.done {
			t, wait = w.advance(cur+1, true)
		} else {
			t, wait = w.planSlice(), true
		}
	}
	w.pend = w.pend[:w.base]
}

// advance starts the segments from pend[i] on — i with the cycles left
// in slice.rem unless fresh — and returns the wake of the first that
// must wait, or false when the frame is settled or a preemption is due.
// A CPU segment is skipped on eviction or shutdown; a stall always waits.
func (w *worker) advance(i int, fresh bool) (units.Time, bool) {
	for w.cur = i; w.cur < len(w.pend); w.cur, fresh = w.cur+1, true {
		sg := w.pend[w.cur]
		if sg.cy == 0 {
			w.stallEnd = w.s.eng.Now() + sg.d
			return w.stallEnd, true
		}
		if fresh {
			w.slice.rem = sg.cy
		}
		switch {
		case w.curJob.evicted: // abandoned: the job re-runs elsewhere
		case w.preemptor() >= 0:
			return 0, false
		case !w.s.done:
			return w.planSlice(), true
		}
	}
	return 0, false
}

// planSlice rates the cycles left at the current frequency and straggler
// factor and returns when they retire, or the quantum boundary if sooner.
func (w *worker) planSlice() units.Time {
	sl := &w.slice
	sl.f, sl.slow, sl.start = w.core.Dom.Freq(), w.s.slowFactor, w.s.eng.Now()
	dur := sl.rem.DurationAt(sl.f)
	if sl.slow > 1 {
		dur = units.Time(float64(dur) * sl.slow)
	}
	sl.full = sl.start + dur
	w.inWork = true
	if q := w.s.cfg.PreemptQuantum; w.preemptible() && dur > q {
		return sl.start + q
	}
	return sl.full
}

// stepSettle is settle's step, run when a slice or stall ends or a wake
// cuts it short: retire what ran, then re-plan, or re-run the segment's
// checks if there is an eviction, a shutdown or a ready root to see.
func (w *worker) stepSettle() (units.Time, bool) {
	s, now := w.s, w.s.eng.Now()
	if sg := w.pend[w.cur]; sg.cy == 0 {
		if now < w.stallEnd && !s.done && !w.curJob.evicted {
			return w.stallEnd, true
		}
		if sg.pushed {
			s.tempo.Pushed(w.id, w.dq.Size(), s.cfg.Mode)
		}
		return w.advance(w.cur+1, true)
	}
	sl := &w.slice
	w.inWork = false
	if now >= sl.full {
		return w.advance(w.cur+1, true) // retired whole at constant frequency
	}
	el := now - sl.start
	if sl.slow > 1 {
		el = units.Time(float64(el) / sl.slow)
	}
	if sl.rem -= min(units.CyclesIn(el, sl.f), sl.rem); sl.rem == 0 {
		return w.advance(w.cur+1, true)
	}
	if w.core.Dom.Freq() != sl.f {
		s.rerates++
	}
	if w.curJob.evicted || s.done || (w.preemptible() && len(s.pool.injectq) > 0) {
		return w.advance(w.cur, false)
	}
	return w.planSlice(), true
}

// preemptible reports whether this worker's CPU segments are subject
// to quantum preemption: a quantum is configured, a ranked dispatch
// policy is active, and the nesting cap is not exhausted. FIFO never
// preempts, so the default configuration retires segments exactly as
// before the quantum existed.
func (w *worker) preemptible() bool {
	return w.s.cfg.PreemptQuantum > 0 &&
		w.s.cfg.Dispatch != DispatchFIFO &&
		w.preemptDepth < maxPreemptDepth
}

// preemptor is the ready-queue index of a root that strictly outranks
// the job this worker is executing and may take it now, or -1.
func (w *worker) preemptor() int {
	if q := w.s.pool.injectq; w.preemptible() && len(q) > 0 {
		if i := w.s.poolPick(); w.s.outranks(q[i].job, w.curJob) {
			return i
		}
	}
	return -1
}

// maybePreempt lets a waiting root that strictly outranks the job this
// worker is executing take the worker now (Shinjuku-style quantum
// preemption): the overtaking job runs inline to completion on this
// worker — runTask's curJob save/restore keeps energy attribution
// exact across the switch — then the preempted segment resumes.
func (w *worker) maybePreempt() {
	s, i := w.s, w.preemptor()
	if i < 0 {
		return
	}
	t := s.pool.injectq[i]
	s.pool.injectq = append(s.pool.injectq[:i], s.pool.injectq[i+1:]...)
	w.preemptDepth++
	w.runTask(t)
	w.preemptDepth--
	w.setState(cpu.Busy)
}

// --- wl.Ctx implementation ------------------------------------------

// ctx adapts a worker to the workload API; j is the owning job. Each
// job keeps one per worker of its machine (jobRun.ctx), so handing a
// task its Ctx allocates nothing.
type ctx struct {
	w *worker
	j *jobRun
}

var _ wl.Ctx = (*ctx)(nil)

// Go implements Cilk block semantics: push tasks[n-1]…tasks[1] (so
// the head of the deque holds the serially-latest work), run tasks[0]
// inline, then join. A block drained by its join is recycled; one left
// pending by a shutdown is not.
func (c *ctx) Go(tasks ...wl.Task) {
	w := c.w
	w.settle()
	if w.s.taskCancelled(c.j) {
		return // spawn boundary: a cancelled run forks no new work
	}
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0](c)
		return
	}
	blk := w.getBlock(len(tasks) - 1)
	for i := len(tasks) - 1; i >= 1; i-- {
		w.push(w.getTask(tasks[i], blk, c.j))
	}
	tasks[0](c)
	w.settle()
	w.join(blk)
	w.putBlock(blk)
}

// Fork2 is Go's two-task block, event for event, with the pushed call
// and its result in the pooled block.
func (c *ctx) Fork2(f wl.Body, a0, a1, b0, b1 int) (int, int) {
	w := c.w
	w.settle()
	if w.s.taskCancelled(c.j) {
		return 0, 0
	}
	blk := w.getBlock(1)
	blk.body, blk.x, blk.y = f, b0, b1
	w.push(w.getTask(nil, blk, c.j))
	a := f(c, a0, a1)
	w.settle()
	w.join(blk)
	b := blk.res
	w.putBlock(blk)
	return a, b
}

// Work accounts CPU-bound cycles, settled at the next spawn or return.
func (c *ctx) Work(cy units.Cycles) { c.w.account(segment{cy: cy}) }

// Mem accounts a frequency-independent stall, settled likewise.
func (c *ctx) Mem(d units.Time) { c.w.account(segment{d: d}) }

// WorkMix splits c into a CPU-bound part (scales with DVFS) and a
// memory-bound part (converted to time at the machine's maximum
// frequency, insensitive to DVFS).
func (c *ctx) WorkMix(cy units.Cycles, memFrac float64) {
	memCycles := units.Cycles(float64(cy) * min(max(memFrac, 0), 1))
	c.Work(cy - memCycles)
	if memCycles > 0 {
		c.Mem(memCycles.DurationAt(c.w.s.cfg.Spec.MaxFreq()))
	}
}

// Worker returns the executing worker id.
func (c *ctx) Worker() int { return c.w.id }
