package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"strings"

	"hermes/internal/units"
)

// Event is a scheduled wake-up for a process. Cancelled events stay in
// the heap and are skipped lazily. Events are pooled: popping one, live
// or cancelled, returns it to the engine's free list — safe because its
// owner's Proc.pending, the only reference outside the heap, is cleared
// when it fires and replaced before it is cancelled.
type Event struct {
	t        units.Time
	prio     int8
	seq      uint64
	p        *Proc
	canceled bool
}

// Cancel marks the event so it will not fire. Safe to call on an
// already-cancelled event.
func (e *Event) Cancel() { e.canceled = true }

// before is the dispatch order: virtual time, then priority, then
// schedule order.
func (e *Event) before(o *Event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

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
	pending *Event
	state   procState
	fn      func(*Proc)
	step    func() (next units.Time, again bool) // of the stepped wait it is in, or nil

	// The two halves of iter.Pull over run, created at first dispatch,
	// and the yield it hands to run. Only Run calls next; only park
	// calls yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Engine owns the virtual clock and the event queue.
type Engine struct {
	now     units.Time
	events  []*Event // 4-ary min-heap in Event.before order
	free    []*Event
	seq     uint64
	procs   []*Proc
	alive   int
	current *Proc

	// Events fired, and those of them that resumed a coroutine (the rest
	// a parking process took itself, or were steps). Read after Run.
	Dispatched, Resumes uint64

	// A parking process that popped an event it does not own leaves it
	// here for Run to dispatch (nil with handed set: it found the queue
	// empty and idle refused), so no event is popped twice. A panic out
	// of a hook it ran travels the same way, in hookPanic.
	handoff   *Event
	handed    bool
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
	if p.pending != nil {
		if p.pending.t <= t {
			return // already waking at or before t
		}
		p.pending.Cancel()
	}
	p.pending = e.scheduleAt(t, -1, p)
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
	p.pending = e.scheduleAt(e.now, 0, p)
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
// asked to wait again — scheduled here as p's own WaitUntil would have —
// or panicked, which traps like a panic in p's body.
func (e *Engine) stepped(p *Proc) (parked bool) {
	defer func() {
		if r := recover(); r != nil {
			e.trapPanic(r)
			p.state, e.current, parked = stateParked, nil, true
		}
	}()
	next, again := p.step()
	if !again {
		p.step = nil
		return false
	}
	p.pending = e.scheduleAt(next, 0, p)
	p.state, e.current = stateParked, nil
	return true
}

// scheduleAt enqueues a wake with an explicit tie-break priority; the
// priority must be fixed before the heap insert or ordering breaks.
func (e *Engine) scheduleAt(t units.Time, prio int8, p *Proc) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev, e.free = e.free[n-1], e.free[:n-1]
	} else {
		ev = new(Event)
	}
	*ev = Event{t: t, prio: prio, seq: e.seq, p: p}

	// Sift up from a new last leaf.
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
	return ev
}

// pop removes and returns the earliest live event, or nil when none is
// left. Cancelled events it meets on the way are recycled.
func (e *Engine) pop() *Event {
	for len(e.events) > 0 {
		h := e.events
		top := h[0]
		n := len(h) - 1
		last := h[n]
		h[n] = nil
		h = h[:n]
		e.events = h
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
		if !top.canceled {
			return top
		}
		e.free = append(e.free, top)
	}
	return nil
}

// pick is the step before every dispatch: run tick, pop the next live
// event, and on an empty queue let idle feed the engine and start over.
// It returns nil when the queue is empty and idle declines — deadlock.
// The caller must have cleared current.
func (e *Engine) pick() *Event {
	for {
		if e.tick != nil {
			e.tick()
		}
		if ev := e.pop(); ev != nil {
			return ev
		}
		if e.idle == nil || !e.idle() {
			return nil
		}
	}
}

// pickParking is pick on behalf of a process that is parking. A panic
// out of a hook must not unwind that process's stack, where a recover
// meant for the process's own faults would swallow it; it is held for
// Run to raise, as if Run had run the hook.
func (e *Engine) pickParking() *Event {
	defer func() {
		if r := recover(); r != nil {
			e.hookPanic = r
		}
	}()
	return e.pick()
}

// fire moves the clock to ev, recycles it, and makes its owner the
// current, running process.
func (e *Engine) fire(ev *Event) *Proc {
	p := ev.p
	e.Dispatched++
	e.now = ev.t
	e.free = append(e.free, ev)
	p.pending = nil
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
		ev := e.handoff
		if e.handed {
			e.handoff, e.handed = nil, false
		} else {
			ev = e.pick()
		}
		if r := e.hookPanic; r != nil {
			e.hookPanic = nil
			panic(r)
		}
		if ev == nil {
			panic("sim: deadlock — " + e.describeStall())
		}
		if ev.t < e.now {
			panic("sim: time went backwards")
		}
		p := e.fire(ev)
		if p.step != nil && e.stepped(p) {
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
// other pick it leaves for Run, which it yields to. If a process
// panicked meanwhile it resumes by unwinding (its defers still run).
func (p *Proc) park() {
	e := p.eng
	p.state = stateParked
	e.current = nil
	for !e.trapped {
		ev := e.pickParking()
		if ev == nil || ev.p != p || ev.t < e.now {
			e.handoff, e.handed = ev, true
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

// WaitUntil parks until virtual time t (or an early Wake). It returns
// the time at which the process resumed.
func (p *Proc) WaitUntil(t units.Time) units.Time { return p.WaitUntilStep(t, nil) }

// WaitUntilStep is WaitUntil with a continuation the dispatcher runs in
// the parked process's place ("Stepped waits" in the package doc): at
// every wake, timer or early Wake, step runs with the process current;
// again parks it until next, unresumed. A step must not park.
func (p *Proc) WaitUntilStep(t units.Time, step func() (next units.Time, again bool)) units.Time {
	p.mustBeCurrent("WaitUntil")
	if t < p.eng.now {
		panic("sim: WaitUntil into the past")
	}
	p.step = step
	p.pending = p.eng.scheduleAt(t, 0, p)
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
func (p *Proc) ParkUntilWake() units.Time {
	p.mustBeCurrent("ParkUntilWake")
	p.pending = nil
	p.park()
	return p.eng.now
}

// Wake makes a parked process runnable at the current virtual time,
// cancelling any pending timer. The caller must be the currently
// running process (or the engine owner between runs); a process cannot
// wake itself. Waking an already-runnable or finished process is a
// no-op, so completion broadcasts are safe.
func (p *Proc) Wake() {
	if p.eng.current == p {
		panic("sim: process woke itself")
	}
	if p.state == stateDone {
		return
	}
	if p.pending != nil {
		if p.pending.t == p.eng.now {
			return // already scheduled to run now
		}
		p.pending.Cancel()
	}
	p.pending = p.eng.scheduleAt(p.eng.now, 0, p)
}

func (p *Proc) mustBeCurrent(op string) {
	if p.eng.current != nil && p.eng.current != p {
		panic("sim: " + op + " called by non-current process " + p.Name)
	}
	if p.step != nil {
		panic("sim: " + op + " inside a step of " + p.Name)
	}
}
