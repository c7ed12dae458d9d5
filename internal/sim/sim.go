package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"strings"

	"hermes/internal/units"
)

// entry is one scheduled wake, held by value in the queue. key packs
// the tie-break priority above the schedule order, so the dispatch order
// — virtual time, then priority, then schedule order — is two integer
// compares; a late wake's key packs its owner's index where the others
// have seq (see lateKey). An entry whose key is not its owner's wakeKey
// was superseded and is dropped when popped. own names the owner by
// index, so the queue holds no pointers and moving entries costs no
// write barrier; the zero entry is no entry.
type entry struct {
	t   units.Time
	key uint64
	own int32 // the owner's index in Engine.procs, plus one
}

// UntilWake, as the time a stepped wait's step waits until, parks the
// process with no timer: only Wake or Inject ends that wait.
const UntilWake units.Time = math.MaxInt64

func (a entry) before(b entry) bool { return a.t < b.t || a.t == b.t && a.key < b.key }

// lateKey is the priority byte of a late wake ("Late wakes" in the
// package doc), above the injected (0) and ordinary (1) ones: below it
// the key holds the owner's index (24 bits), then a count of the
// owner's late schedulings, so late wakes at one instant sort by
// process id and a superseded one never matches its owner's live key.
const lateKey uint64 = 2 << 56

// frontCap bounds the queue's sorted front tier. A pool or cluster point
// holds one wake per process, 15–18 of them, and a new one lands a few
// slots from the earliest: the front serves those with no heap at all.
const frontCap = 64

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateParked
	stateDone
)

// Proc is a simulated process: a coroutine the engine resumes and that
// gives control back by parking.
type Proc struct {
	eng     *Engine
	ID      int
	Name    string
	wakeKey uint64     // key of the one live wake, 0 for none
	wakeAt  units.Time // its time
	state   procState
	fn      func(*Proc)                          // nil for a GoStep process
	step    func() (next units.Time, again bool) // of the stepped wait it is in, or nil
	late    bool                                 // the next timed wait is late (Late)
	lateGen uint32                               // late wakes scheduled, for their keys

	// The two halves of iter.Pull over run, created at first dispatch,
	// and the yield it hands to run. Only Run calls next; only park
	// calls yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Engine owns the virtual clock and the event queue. The queue has two
// tiers: front, the earliest entries sorted latest-first, so a pop takes
// the last one; and heap, a 4-ary min-heap of every entry after them.
type Engine struct {
	now     units.Time
	front   []entry
	heap    []entry
	seq     uint64
	procs   []*Proc
	alive   int
	current *Proc

	// Events fired, those of them that resumed a coroutine (the rest a
	// parking process took itself, or were steps), and those that were
	// late wakes. Read after Run.
	Dispatched, Resumes, Late uint64
	// lateMark is the owner (index plus one) of the last late wake fired
	// at now, 0 if none has fired at now yet: LatePassed's position.
	lateMark int32

	// A parking process that popped an entry it does not own leaves it
	// here for Run to dispatch, so no entry is popped twice. A panic out
	// of a hook it ran travels the same way, in hookPanic.
	handoff   entry
	hookPanic any

	// trapped puts the engine in unwind mode: no more events are
	// dispatched and a process that parks, or is resumed from a park,
	// panics with abortSignal so its defers run. The first panic inside
	// a process sets it, and so does unwind. trap is that first panic,
	// re-raised from Run on the caller's goroutine — where it can be
	// recovered like any function panic — once everyone has unwound.
	trapped bool
	trap    any

	// tick, if set, runs before every dispatch, and idle runs when the
	// event queue is empty with processes still alive (idle returning
	// true retries instead of declaring deadlock). Both run with no
	// process current — on Run's goroutine, or on the coroutine of a
	// process that is in the middle of parking — so they may call
	// Inject to hand external stimuli (job arrivals, shutdown) into the
	// deterministic event order.
	tick func()
	idle func() bool
}

// abortSignal unwinds a parked process during trap cleanup.
type abortSignal struct{}

// TaskPanic is the value Engine.Run re-raises when a process
// panicked: the original panic value plus the stack of the faulting
// process, which would otherwise be lost in the trap/re-raise handoff.
type TaskPanic struct {
	Value any
	Stack []byte
}

func (t *TaskPanic) Error() string {
	return fmt.Sprintf("%v\n%s", t.Value, t.Stack)
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// SetTick installs fn to run before every dispatch. Use it to poll
// external (non-virtual) inputs without blocking event processing.
func (e *Engine) SetTick(fn func()) { e.tick = fn }

// SetIdle installs fn to run when the event queue is empty while
// processes are still alive — the quiescent state a persistent
// simulation reaches between stimuli. fn returning true resumes the
// loop (it is expected to have scheduled new events, typically via
// Inject); false falls through to the deadlock panic.
func (e *Engine) SetIdle(fn func() bool) { e.idle = fn }

// Inject schedules an out-of-band wake for p at virtual time t (never
// before now), replacing any later pending wake. It may only be called
// when no process is running — from the tick/idle hooks or between
// runs. Injected wakes carry front priority: at equal virtual time
// they dispatch before ordinary events, so the order of the simulation
// cannot depend on *when* in wall-clock time the stimulus was handed
// in, only on its virtual timestamp.
func (e *Engine) Inject(p *Proc, t units.Time) {
	if e.current != nil {
		panic("sim: Inject while a process is running")
	}
	if p.state == stateDone {
		return
	}
	if t < e.now {
		t = e.now
	}
	if p.wakeKey != 0 && p.wakeAt <= t {
		return // already waking at or before t
	}
	e.scheduleAt(t, -1, p)
}

// IsUnwind reports whether a recovered panic value is the engine's
// internal teardown signal. Recover blocks inside process bodies must
// re-raise it untouched so trap cleanup can finish unwinding.
func IsUnwind(v any) bool {
	_, ok := v.(abortSignal)
	return ok
}

// Now returns the current virtual time. Only the running process (or
// the caller of Run, between runs) may call it.
func (e *Engine) Now() units.Time { return e.now }

// Current returns the process executing right now, or nil between
// events (hooks, or the caller of Run). Engine-side plumbing that may
// run on several processes uses it to avoid illegal self-wakes.
func (e *Engine) Current() *Proc { return e.current }

// Go registers a new process whose body starts at the current virtual
// time, after already-scheduled events at that time. It may be called
// before Run or from a running process. The coroutine behind it is
// created when Run first dispatches it.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, ID: len(e.procs), Name: name, fn: fn}
	e.procs = append(e.procs, p)
	e.alive++
	e.scheduleAt(e.now, 0, p)
	return p
}

// GoStep registers a process that is nothing but a step ("Stepped
// waits" in the package doc): Go's process whose body is one stepped wait
// that starts at once, except that it never has a coroutine. step runs
// at the process's start event and at every wake after it; the process
// ends the first time step answers false.
func (e *Engine) GoStep(name string, step func() (next units.Time, again bool)) *Proc {
	p := e.Go(name, nil)
	p.step = step
	return p
}

// run is the coroutine body. Whatever way fn leaves — return, panic,
// abortSignal, runtime.Goexit — the process ends up done; the first
// real panic is trapped for Run to re-raise.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.state = stateDone
		p.eng.trapPanic(recover())
	}()
	p.fn(p)
}

// trapPanic makes r, just recovered on a process's behalf by the caller,
// the engine's trap if it is the first real panic.
func (e *Engine) trapPanic(r any) {
	if r == nil || IsUnwind(r) || e.trapped {
		return
	}
	e.trapped = true
	e.trap = &TaskPanic{Value: r, Stack: debug.Stack()}
}

// stepped runs the step of the stepped wait p is in, in p's place: p has
// just fired and is current. It reports whether p stays parked: the step
// asked to wait again — scheduled here as p's own WaitUntil would have,
// or with no timer for UntilWake — or panicked, which traps like a panic
// in p's body.
func (e *Engine) stepped(p *Proc) (parked bool) {
	defer func() {
		if r := recover(); r != nil {
			e.trapPanic(r)
			p.state, e.current, parked = stateParked, nil, true
		}
	}()
	next, again := p.step()
	if !again {
		p.step, p.late = nil, false
		return false
	}
	e.timer(next, p)
	p.state, e.current = stateParked, nil
	return true
}

// timer sets the timer of the wait p enters: late if p asked for that,
// none for UntilWake.
func (e *Engine) timer(t units.Time, p *Proc) {
	switch {
	case t == UntilWake:
		p.wakeKey = 0
	case p.late:
		e.scheduleLate(t, p)
	default:
		e.scheduleAt(t, 0, p)
	}
	p.late = false
}

// scheduleAt queues a wake for p at t with tie-break priority prio and
// makes it p's one live wake, superseding any wake p had before.
func (e *Engine) scheduleAt(t units.Time, prio int8, p *Proc) {
	e.seq++
	e.insert(t, uint64(prio+1)<<56|e.seq, p)
}

// scheduleLate queues a late wake for p at t and makes it p's one live
// wake. It takes no seq: its place at t is p's index, whenever it was
// scheduled.
func (e *Engine) scheduleLate(t units.Time, p *Proc) {
	p.lateGen++
	e.insert(t, lateKey|uint64(p.ID)<<32|uint64(p.lateGen), p)
}

// insert queues p's new live wake, at t with key.
func (e *Engine) insert(t units.Time, key uint64, p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	x := entry{t: t, key: key, own: int32(p.ID) + 1}
	p.wakeKey, p.wakeAt = key, t
	if len(e.heap) > 0 && e.heap[0].before(x) {
		e.heapPush(x)
		return
	}
	// Insert x into the front, scanning from its earliest end; a full
	// front spills its latest entry into the heap, which stays after it.
	f := append(e.front, x)
	i := len(f) - 1
	for ; i > 0 && f[i-1].before(x); i-- {
		f[i] = f[i-1]
	}
	f[i] = x
	if len(f) > frontCap {
		e.heapPush(f[0])
		f = f[:copy(f, f[1:])]
	}
	e.front = f
}

func (e *Engine) heapPush(x entry) {
	h := append(e.heap, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	e.heap = h
}

func (e *Engine) heapPop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	// Sift the old last leaf down from the root.
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if h[k].before(h[m]) {
				m = k
			}
		}
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// pop removes and returns the earliest live entry — the front's last, or
// the heap's top when the front is empty — dropping superseded ones on
// the way; no entry when the queue is empty.
func (e *Engine) pop() entry {
	for {
		var x entry
		if n := len(e.front) - 1; n >= 0 {
			x, e.front = e.front[n], e.front[:n]
		} else if len(e.heap) > 0 {
			x = e.heapPop()
		} else {
			return x
		}
		if x.key == e.procs[x.own-1].wakeKey {
			return x
		}
	}
}

// pick is the step before every dispatch: run tick, pop the next live
// event, and on an empty queue let idle feed the engine and start over.
// It returns no entry when the queue is empty and idle declines —
// deadlock. The caller must have cleared current.
func (e *Engine) pick() entry {
	for {
		if e.tick != nil {
			e.tick()
		}
		if ev := e.pop(); ev.own != 0 {
			return ev
		}
		if e.idle == nil || !e.idle() {
			return entry{}
		}
	}
}

// pickParking is pick on behalf of a process that is parking. A panic
// out of a hook must not unwind that process's stack, where a recover
// meant for the process's own faults would swallow it; it is held for
// Run to raise, as if Run had run the hook.
func (e *Engine) pickParking() entry {
	defer func() {
		if r := recover(); r != nil {
			e.hookPanic = r
		}
	}()
	return e.pick()
}

// fire moves the clock to ev and makes its owner the current, running
// process, with no live wake.
func (e *Engine) fire(ev entry) *Proc {
	p := e.procs[ev.own-1]
	e.Dispatched++
	if ev.t != e.now {
		e.lateMark = 0
	}
	if ev.key >= lateKey {
		e.Late++
		e.lateMark = ev.own
	}
	e.now = ev.t
	p.wakeKey = 0
	p.state = stateRunning
	e.current = p
	return p
}

// Run executes events until every process has finished. It panics on
// deadlock: no runnable events while processes are still alive. A
// panic inside a process is re-raised here, on the caller's
// goroutine, after every other process has been unwound. However Run
// ends, it leaves no coroutine behind.
func (e *Engine) Run() {
	defer e.unwind() // the deadlock panic, a hook's panic, a Goexit
	for e.alive > 0 && !e.trapped {
		if r := e.hookPanic; r != nil {
			e.hookPanic = nil
			panic(r)
		}
		ev := e.handoff
		e.handoff = entry{}
		if ev.own == 0 {
			ev = e.pick()
		}
		if ev.own == 0 {
			panic("sim: deadlock — " + e.describeStall())
		}
		if ev.t < e.now {
			panic("sim: time went backwards")
		}
		p := e.fire(ev)
		if p.step != nil && e.stepped(p) {
			continue
		}
		if p.fn == nil { // a GoStep process whose step ended it
			p.state, e.current = stateDone, nil
			e.alive--
			continue
		}
		if p.next == nil {
			p.next, p.stop = iter.Pull(p.run)
		}
		e.Resumes++
		p.next() // a runtime.Goexit inside the process carries on here
		e.current = nil
		if p.state == stateDone {
			e.alive--
		}
	}
	e.unwind()
	if e.trap != nil {
		panic(e.trap)
	}
}

// unwind finishes every process that is not done (none is running, so
// each is suspended or was never started): stopping a suspended one
// resumes it inside park, in unwind mode, to panic with abortSignal and
// run its defers; one that never started has none to run.
func (e *Engine) unwind() {
	for _, p := range e.procs {
		if p.state == stateDone {
			continue
		}
		e.trapped = true
		if p.stop != nil {
			e.current = p
			p.stop()
			e.current = nil
		}
		p.state = stateDone
		e.alive--
	}
}

func (e *Engine) describeStall() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d processes alive at %v with empty event queue:", e.alive, e.now)
	for _, p := range e.procs {
		if p.state != stateDone {
			fmt.Fprintf(&b, " [%d %s state=%d]", p.ID, p.Name, p.state)
		}
	}
	return b.String()
}

// park gives up the processor until the process's next wake. The
// parking process runs the pick step itself: if the next live event is
// its own it moves the clock and carries on with no switch at all — or,
// in a stepped wait whose step asks to wait again, picks again; any
// other entry it leaves for Run, which it yields to and which picks anew
// if there was none. If a process panicked meanwhile it resumes by
// unwinding (its defers still run).
func (p *Proc) park() {
	e := p.eng
	p.state = stateParked
	e.current = nil
	for !e.trapped {
		ev := e.pickParking()
		if int(ev.own) != p.ID+1 || ev.t < e.now {
			e.handoff = ev
			break
		}
		e.fire(ev)
		if p.step == nil || !e.stepped(p) {
			return
		}
	}
	p.yield(struct{}{})
	if e.trapped {
		panic(abortSignal{})
	}
}

// WaitUntil parks until virtual time t (or an early Wake); t UntilWake
// sets no timer. It returns the time at which the process resumed.
func (p *Proc) WaitUntil(t units.Time) units.Time { return p.WaitUntilStep(t, nil) }

// WaitUntilStep is WaitUntil with a continuation the dispatcher runs in
// the parked process's place ("Stepped waits" in the package doc): at
// every wake, timer or early Wake, step runs with the process current;
// again parks it until next (UntilWake: no timer), unresumed. A step
// must not park.
func (p *Proc) WaitUntilStep(t units.Time, step func() (next units.Time, again bool)) units.Time {
	p.mustBeCurrent("WaitUntil")
	if t < p.eng.now {
		panic("sim: WaitUntil into the past")
	}
	p.step = step
	p.eng.timer(t, p)
	p.park()
	return p.eng.now
}

// Sleep parks for span d (or until an early Wake) and returns the
// resume time.
func (p *Proc) Sleep(d units.Time) units.Time {
	if d < 0 {
		panic("sim: negative sleep")
	}
	return p.WaitUntil(p.eng.now + d)
}

// ParkUntilWake parks with no timer; only Wake resumes the process.
func (p *Proc) ParkUntilWake() units.Time { return p.WaitUntil(UntilWake) }

// Wake makes a parked process runnable at the current virtual time,
// superseding any pending timer — a late one due now too, since an
// ordinary wake at now sorts before it. The caller must be the
// currently running process (or the engine owner between runs); a
// process cannot wake itself. Waking an already-runnable or finished
// process is a no-op, so completion broadcasts are safe.
func (p *Proc) Wake() {
	if p.eng.current == p {
		panic("sim: process woke itself")
	}
	if p.state == stateDone {
		return
	}
	if p.wakeKey != 0 && p.wakeKey < lateKey && p.wakeAt == p.eng.now {
		return // already scheduled to run now
	}
	p.eng.scheduleAt(p.eng.now, 0, p)
}

// Late makes the next timed wait the running process enters — its
// WaitUntil, or the one its step answers again with — a late wait ("Late
// wakes" in the package doc). A wait with no timer ignores it.
func (p *Proc) Late() {
	if p.eng.current != p {
		panic("sim: Late called by non-current process " + p.Name)
	}
	p.late = true
}

// WakeLate supersedes a parked process's pending wake with a late wake
// at t, never before now: its step, if it is in a stepped wait, runs
// then. Like Wake, another process or the engine owner calls it; a
// finished process ignores it.
func (p *Proc) WakeLate(t units.Time) {
	if p.eng.current == p {
		panic("sim: process woke itself")
	}
	if p.state != stateDone {
		p.eng.scheduleLate(t, p)
	}
}

// LatePassed reports whether a late wake of p at t sorts before the
// dispatch position — before now, or at now below the last late wake
// fired at now — so that, had one been queued, it would have fired.
func (e *Engine) LatePassed(t units.Time, p *Proc) bool {
	return t < e.now || t == e.now && int32(p.ID)+1 < e.lateMark
}

func (p *Proc) mustBeCurrent(op string) {
	if p.eng.current != nil && p.eng.current != p {
		panic("sim: " + op + " called by non-current process " + p.Name)
	}
	if p.step != nil {
		panic("sim: " + op + " inside a step of " + p.Name)
	}
}
