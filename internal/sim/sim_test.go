package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"hermes/internal/units"
)

func TestSingleProcSleep(t *testing.T) {
	e := NewEngine()
	var resumed units.Time
	e.Go("a", func(p *Proc) {
		resumed = p.Sleep(5 * units.Microsecond)
	})
	e.Run()
	if resumed != 5*units.Microsecond {
		t.Fatalf("resumed at %v, want 5µs", resumed)
	}
	if e.Now() != 5*units.Microsecond {
		t.Fatalf("engine now = %v", e.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() string {
		var log []string
		e := NewEngine()
		for i := 0; i < 3; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(units.Time(i+1) * units.Microsecond)
					log = append(log, fmt.Sprintf("p%d@%v", i, e.Now()))
				}
			})
		}
		e.Run()
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Same-time events fire in schedule order: p0's 3µs wake (scheduled
	// 3rd overall among its own) vs p2's first — verify expected total
	// ordering by spot-checking the trace begins with p0@1µs.
	if !strings.HasPrefix(first, "p0@1.000µs") {
		t.Fatalf("unexpected trace start: %s", first)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(time1())
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(time1())
		order = append(order, "b")
	})
	e.Run()
	if strings.Join(order, "") != "ab" {
		t.Fatalf("same-time order = %v, want a before b", order)
	}
}

func time1() units.Time { return 1 * units.Microsecond }

// TestLateWakes: late wakes fire after every ordinary event at their
// instant, among themselves by process id whatever order they were
// scheduled in; a Wake at that instant supersedes one; and LatePassed
// tells which late wakes at the current instant would already have
// fired.
func TestLateWakes(t *testing.T) {
	e := NewEngine()
	var order []string
	var procs []*Proc
	lateAt := func(name string) func(*Proc) {
		return func(p *Proc) {
			p.Late()
			p.WaitUntil(time1())
			order = append(order, name)
			for _, q := range procs {
				if got := e.LatePassed(time1(), q); got != (q.ID < p.ID) {
					t.Errorf("in %s's late wake: LatePassed(1µs, %s) = %v", name, q.Name, got)
				}
				if !e.LatePassed(0, q) {
					t.Errorf("in %s's late wake: LatePassed(0, %s) = false", name, q.Name)
				}
			}
		}
	}
	// Three late waits at 1µs, scheduled in the order d, c, a against
	// their ids c < a < d, and two ordinary sleeps: b wakes a at 1µs,
	// after e, whose wake was scheduled first.
	procs = append(procs, e.Go("c", func(p *Proc) {
		p.Sleep(0)
		lateAt("c")(p)
	}))
	procs = append(procs, e.Go("a", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(0)
		p.Late()
		p.WaitUntil(time1())
		order = append(order, "a")
	}))
	procs = append(procs, e.Go("d", lateAt("d")))
	procs = append(procs, e.Go("e", func(p *Proc) {
		p.Sleep(time1())
		order = append(order, "e")
	}))
	procs = append(procs, e.Go("b", func(p *Proc) {
		p.Sleep(time1())
		order = append(order, "b")
		procs[1].Wake() // a's late wake is due now: the Wake supersedes it
	}))
	e.Run()
	if got := strings.Join(order, " "); got != "e b a c d" {
		t.Fatalf("dispatch order %q, want \"e b a c d\"", got)
	}
	if e.Late != 2 {
		t.Fatalf("%d late wakes fired, want 2", e.Late)
	}
}

func TestParkAndWake(t *testing.T) {
	e := NewEngine()
	var parked *Proc
	var wokenAt units.Time
	parked = e.Go("sleeper", func(p *Proc) {
		wokenAt = p.ParkUntilWake()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(7 * units.Microsecond)
		parked.Wake()
	})
	e.Run()
	if wokenAt != 7*units.Microsecond {
		t.Fatalf("woken at %v, want 7µs", wokenAt)
	}
}

func TestEarlyWakeCancelsTimer(t *testing.T) {
	e := NewEngine()
	var resumed units.Time
	var wakes int
	sleeper := e.Go("sleeper", func(p *Proc) {
		resumed = p.Sleep(100 * units.Microsecond)
		// Park again; if the stale timer still fired we'd resume at
		// 100µs instead of the partner's second wake at 20µs.
		resumed2 := p.ParkUntilWake()
		if resumed2 != 20*units.Microsecond {
			t.Errorf("second resume at %v, want 20µs", resumed2)
		}
		wakes++
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(10 * units.Microsecond)
		sleeper.Wake()
		p.Sleep(10 * units.Microsecond)
		sleeper.Wake()
	})
	e.Run()
	if resumed != 10*units.Microsecond {
		t.Fatalf("early wake at %v, want 10µs", resumed)
	}
	if wakes != 1 {
		t.Fatalf("sleeper body incomplete")
	}
}

func TestDoubleWakeSameInstant(t *testing.T) {
	e := NewEngine()
	count := 0
	sleeper := e.Go("sleeper", func(p *Proc) {
		p.ParkUntilWake()
		count++
	})
	e.Go("w1", func(p *Proc) {
		p.Sleep(time1())
		sleeper.Wake()
		sleeper.Wake() // duplicate at the same instant: no-op
	})
	e.Run()
	if count != 1 {
		t.Fatalf("sleeper ran %d times", count)
	}
}

func TestWakeFinishedProcIsNoop(t *testing.T) {
	e := NewEngine()
	done := e.Go("short", func(p *Proc) {})
	e.Go("late", func(p *Proc) {
		p.Sleep(time1())
		done.Wake() // must not panic or hang
	})
	e.Run()
}

func TestSpawnFromRunningProc(t *testing.T) {
	e := NewEngine()
	var childRan units.Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(3 * units.Microsecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(2 * units.Microsecond)
			childRan = e.Now()
		})
		p.Sleep(10 * units.Microsecond)
	})
	e.Run()
	if childRan != 5*units.Microsecond {
		t.Fatalf("child ran at %v, want 5µs", childRan)
	}
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		p.ParkUntilWake() // nobody will wake it
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on negative sleep")
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	const n = 100
	total := 0
	for i := 0; i < n; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < 50; k++ {
				p.Sleep(units.Time(1+(i*7+k*13)%23) * units.Microsecond)
			}
			total++
		})
	}
	e.Run()
	if total != n {
		t.Fatalf("%d procs finished, want %d", total, n)
	}
}

// TestIdleHookFeedsQuiescentEngine: a parked process plus an empty
// event queue triggers the idle hook instead of the deadlock panic;
// the hook injects a future wake and the simulation proceeds at that
// virtual time.
func TestIdleHookFeedsQuiescentEngine(t *testing.T) {
	e := NewEngine()
	var woke units.Time
	p := e.Go("sleeper", func(p *Proc) {
		woke = p.ParkUntilWake()
	})
	fed := false
	e.SetIdle(func() bool {
		if fed {
			return false // second quiescence: let the engine drain
		}
		fed = true
		e.Inject(p, 3*units.Millisecond)
		return true
	})
	e.Run()
	if woke != 3*units.Millisecond {
		t.Fatalf("woke at %v, want 3ms", woke)
	}
}

// TestInjectFrontPriority: an injected wake at a virtual time where an
// ordinary event is already scheduled dispatches first, regardless of
// how late (in wall-clock terms) it was injected — the determinism
// property external arrivals rely on.
func TestInjectFrontPriority(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("timer", func(p *Proc) {
		p.Sleep(units.Millisecond)
		order = append(order, "timer")
	})
	parked := false
	target := e.Go("injected", func(p *Proc) {
		parked = true
		p.ParkUntilWake()
		order = append(order, "injected")
	})
	armed := false
	e.SetTick(func() {
		if parked && !armed {
			armed = true
			e.Inject(target, units.Millisecond) // same instant as the timer, injected later
		}
	})
	e.Run()
	if strings.Join(order, ",") != "injected,timer" {
		t.Fatalf("order = %v, want injected before timer at the same instant", order)
	}
}

// TestInjectKeepsEarlierWake: injecting a later wake than the one
// already pending must not postpone the process.
func TestInjectKeepsEarlierWake(t *testing.T) {
	e := NewEngine()
	var woke units.Time
	p := e.Go("sleeper", func(p *Proc) {
		woke = p.Sleep(units.Microsecond)
	})
	armed := false
	e.SetTick(func() {
		if !armed {
			armed = true
			e.Inject(p, units.Millisecond) // later than the pending 1µs timer
		}
	})
	e.Run()
	if woke != units.Microsecond {
		t.Fatalf("woke at %v; a later Inject displaced an earlier wake", woke)
	}
}

// TestIsUnwind distinguishes the teardown signal from user panics.
func TestIsUnwind(t *testing.T) {
	if !IsUnwind(abortSignal{}) {
		t.Fatal("abortSignal not recognized")
	}
	if IsUnwind("boom") || IsUnwind(nil) {
		t.Fatal("user values misclassified as unwind")
	}
}

// --- the coroutine engine against a reference --------------------------

// scriptOp is one step of a scripted process; the same scripts drive
// the engine and the reference below.
type scriptOp struct {
	kind   byte // 's' Sleep, 'u' WaitUntil, 'k' WaitUntilStep, 'p' ParkUntilWake, 'w' Wake, 'W' WakeLate, 'g' Go, 'G' GoStep
	d      units.Time
	late   bool       // 's', 'u', 'k': the wait (each of the step's too) is late
	steps  int        // 'k': wakes the wait spans, each d after the last
	park   bool       // 'k': the step's waits set no timer (UntilWake)
	target int        // 'w', 'W': index into the processes that exist at that moment
	child  []scriptOp // 'g'; 'G': only 's', 'p' and 'w', which the step interprets
}

func genScript(rng *rand.Rand, depth int) []scriptOp {
	n := 3 + rng.Intn(8)
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		d := units.Time(rng.Intn(5)) * units.Microsecond // 0 included: same-instant ties
		late := rng.Intn(3) == 0
		switch r := rng.Intn(14); {
		case r < 4:
			ops = append(ops, scriptOp{kind: 's', d: d, late: late})
		case r < 6:
			ops = append(ops, scriptOp{kind: 'u', d: d, late: late})
		case r >= 10 && r < 12:
			ops = append(ops, scriptOp{kind: 'k', d: d, late: late, steps: 1 + rng.Intn(5), park: r == 11})
		case r == 12:
			ops = append(ops, scriptOp{kind: 'G', child: genStepScript(rng)})
		case r == 13:
			ops = append(ops, scriptOp{kind: 'W', d: d, target: rng.Intn(64)})
		case r < 7:
			ops = append(ops, scriptOp{kind: 'p'})
		case r < 9:
			ops = append(ops, scriptOp{kind: 'w', target: rng.Intn(64)})
		default:
			if depth < 2 {
				ops = append(ops, scriptOp{kind: 'g', child: genScript(rng, depth+1)})
			}
		}
	}
	return ops
}

// genStepScript is the life of a GoStep process: waits with and
// without a timer, late or not, and wakes of others in between.
func genStepScript(rng *rand.Rand) []scriptOp {
	ops := make([]scriptOp, 1+rng.Intn(6))
	for i := range ops {
		switch rng.Intn(3) {
		case 0:
			ops[i] = scriptOp{kind: 's', d: units.Time(rng.Intn(5)) * units.Microsecond, late: rng.Intn(3) == 0}
		case 1:
			ops[i] = scriptOp{kind: 'p'}
		default:
			ops[i] = scriptOp{kind: 'w', target: rng.Intn(64)}
		}
	}
	return ops
}

// The hooks both sides install: every fifth tick injects a wake for
// some process a little ahead of now, and idle rescues the lowest
// unfinished process (all of them are parked without a timer by then).
func hookTarget(tickN, procs int) (target int, d units.Time, fire bool) {
	return (tickN / 5) % procs, units.Time(tickN%4) * units.Microsecond, tickN%5 == 0
}

const idleRescue = 3 * units.Microsecond

// runScripted runs the scripts on the real engine and returns one log
// line per dispatch. probe, if not nil, looks at the engine after every
// tick, just before the pop.
func runScripted(roots [][]scriptOp, probe func(*Engine)) []string {
	e := NewEngine()
	var log []string
	var body func(script []scriptOp) func(*Proc)
	var stepBody func(script []scriptOp) func() (units.Time, bool)
	body = func(script []scriptOp) func(*Proc) {
		return func(p *Proc) {
			log = append(log, fmt.Sprintf("%d@%d", p.ID, e.Now()))
			for _, op := range script {
				if op.late {
					p.Late()
				}
				switch op.kind {
				case 's':
					p.Sleep(op.d)
				case 'u':
					p.WaitUntil(e.Now() + op.d)
				case 'k':
					// One wait spanning op.steps wakes: all but the last
					// are logged by the step, in the dispatcher.
					left := op.steps
					p.WaitUntilStep(e.Now()+op.d, func() (units.Time, bool) {
						if e.Current() != p {
							panic("step ran without its process current")
						}
						if left--; left == 0 {
							return 0, false
						}
						log = append(log, fmt.Sprintf("%d@%d", p.ID, e.Now()))
						if op.park {
							return UntilWake, true
						}
						if op.late {
							p.Late()
						}
						return e.Now() + op.d, true
					})
				case 'p':
					p.ParkUntilWake()
				case 'w':
					if t := e.procs[op.target%len(e.procs)]; t != p {
						t.Wake()
					}
					continue
				case 'W':
					if t := e.procs[op.target%len(e.procs)]; t != p {
						t.WakeLate(e.Now() + op.d)
					}
					continue
				case 'g':
					e.Go("child", body(op.child))
					continue
				case 'G':
					e.GoStep("stepper", stepBody(op.child))
					continue
				}
				log = append(log, fmt.Sprintf("%d@%d", p.ID, e.Now()))
			}
		}
	}
	stepBody = func(script []scriptOp) func() (units.Time, bool) {
		pc, id := 0, len(e.procs) // the process GoStep is about to make
		return func() (units.Time, bool) {
			log = append(log, fmt.Sprintf("%d@%d", id, e.Now()))
			for ; pc < len(script); pc++ {
				switch op := script[pc]; op.kind {
				case 's':
					pc++
					if op.late {
						e.procs[id].Late()
					}
					return e.Now() + op.d, true
				case 'p':
					pc++
					return UntilWake, true
				case 'w':
					if t := e.procs[op.target%len(e.procs)]; t.ID != id {
						t.Wake()
					}
				}
			}
			return 0, false
		}
	}
	for _, script := range roots {
		e.Go("root", body(script))
	}
	tickN := 0
	e.SetTick(func() {
		tickN++
		if target, d, fire := hookTarget(tickN, len(e.procs)); fire {
			e.Inject(e.procs[target], e.Now()+d)
		}
		if probe != nil {
			probe(e)
		}
	})
	e.SetIdle(func() bool {
		for _, p := range e.procs {
			if p.state != stateDone {
				e.Inject(p, e.Now()+idleRescue)
				break
			}
		}
		return true
	})
	e.Run()
	return log
}

// refEngine is the trivial reference: the pending wakes in a slice that
// is sorted before every pick, processes as interpreted scripts. It
// restates the documented semantics of Wake, WakeLate, Inject and late
// waits and nothing of how the engine is built.
type refEvent struct {
	t        units.Time
	prio     int // -1 injected, 0 ordinary, 1 late
	seq      int
	pid      int
	canceled bool
}

// refLate is a late wake's prio.
const refLate = 1

type refProc struct {
	script  []scriptOp
	pc      int
	left    int // wakes left in the 'k' op at pc
	pending *refEvent
	done    bool
}

type refEngine struct {
	now    units.Time
	seq    int
	events []*refEvent
	procs  []*refProc
}

func (r *refEngine) schedule(t units.Time, prio, pid int) *refEvent {
	r.seq++
	ev := &refEvent{t: t, prio: prio, seq: r.seq, pid: pid}
	r.events = append(r.events, ev)
	return ev
}

func (r *refEngine) spawn(script []scriptOp) {
	p := &refProc{script: script}
	r.procs = append(r.procs, p)
	p.pending = r.schedule(r.now, 0, len(r.procs)-1)
}

func (r *refEngine) inject(pid int, t units.Time) {
	p := r.procs[pid]
	if p.done {
		return
	}
	if p.pending != nil {
		if p.pending.t <= t {
			return
		}
		p.pending.canceled = true
	}
	p.pending = r.schedule(t, -1, pid)
}

func (r *refEngine) run(roots [][]scriptOp) []string {
	for _, script := range roots {
		r.spawn(script)
	}
	var log []string
	alive := func() int {
		n := 0
		for _, p := range r.procs {
			if !p.done {
				n++
			}
		}
		return n
	}
	tickN := 0
	for alive() > 0 {
		tickN++
		if target, d, fire := hookTarget(tickN, len(r.procs)); fire {
			r.inject(target, r.now+d)
		}
		live := r.events[:0]
		for _, ev := range r.events {
			if !ev.canceled {
				live = append(live, ev)
			}
		}
		r.events = live
		if len(r.events) == 0 {
			for pid, p := range r.procs {
				if !p.done {
					r.inject(pid, r.now+idleRescue)
					break
				}
			}
			continue
		}
		sort.Slice(r.events, func(i, j int) bool {
			a, b := r.events[i], r.events[j]
			if a.t != b.t {
				return a.t < b.t
			}
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			if a.prio == refLate {
				return a.pid < b.pid // late wakes: last at their instant, by process id
			}
			return a.seq < b.seq
		})
		ev := r.events[0]
		r.events = r.events[1:]
		r.now = ev.t
		pid := ev.pid
		p := r.procs[pid]
		p.pending = nil
		log = append(log, fmt.Sprintf("%d@%d", pid, r.now))
		parked := false
		for !parked && p.pc < len(p.script) {
			op := p.script[p.pc]
			p.pc++
			prio := 0
			if op.late {
				prio = refLate
			}
			switch op.kind {
			case 's', 'u':
				p.pending = r.schedule(r.now+op.d, prio, pid)
				parked = true
			case 'k':
				// The reference knows no stepped wait: it is op.steps
				// plain WaitUntils in a row, or one and then ParkUntilWakes.
				first := p.left == 0
				if first {
					p.left = op.steps
				}
				if p.left--; p.left > 0 {
					p.pc--
				}
				if first || !op.park {
					p.pending = r.schedule(r.now+op.d, prio, pid)
				}
				parked = true
			case 'p':
				parked = true
			case 'w':
				tid := op.target % len(r.procs)
				t := r.procs[tid]
				if t == p || t.done {
					break
				}
				if t.pending != nil {
					if t.pending.t == r.now && t.pending.prio != refLate {
						break
					}
					t.pending.canceled = true
				}
				t.pending = r.schedule(r.now, 0, tid)
			case 'W':
				tid := op.target % len(r.procs)
				t := r.procs[tid]
				if t == p || t.done {
					break
				}
				if t.pending != nil {
					t.pending.canceled = true
				}
				t.pending = r.schedule(r.now+op.d, refLate, tid)
			case 'g', 'G':
				// Nor a GoStep process: it is a script of its waits.
				r.spawn(op.child)
			}
		}
		if !parked {
			p.done = true
		}
	}
	return log
}

// TestRandomSchedulesMatchReference: seeded random mixes of Sleep,
// WaitUntil, ParkUntilWake, Wake, Go from a process, Inject from the
// tick hook and rescue from the idle hook dispatch in exactly the order
// the reference gives, time for time — and so do stepped waits of up to
// five wakes, timed or UntilWake, with early Wakes and Injects landing
// mid-chain, against the same number of plain waits in the reference,
// and GoStep processes against the script of their waits.
func TestRandomSchedulesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roots := make([][]scriptOp, 1+rng.Intn(6))
		for i := range roots {
			roots[i] = genScript(rng, 0)
		}
		got := runScripted(roots, nil)
		want := (&refEngine{}).run(roots)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d dispatches, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d is %s, reference %s\n got  %v\n want %v",
					seed, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestSupersededWakeNeverFires: a timer superseded by an early Wake,
// or by an earlier Inject, stays queued — in the front tier with three
// processes, in the heap tier behind 70 sleepers — and is dropped when
// it is popped. Its owner resumes only at its live wakes: parked with no
// timer by then, or waiting again at the stale timer's exact instant,
// where the stale entry is the earlier of the two in schedule order.
func TestSupersededWakeNeverFires(t *testing.T) {
	us := units.Microsecond
	for _, fillers := range []int{0, 70} {
		for _, by := range []string{"Wake", "Inject"} {
			for _, again := range []bool{false, true} {
				e := NewEngine()
				var resumes []units.Time
				a := e.Go("a", func(p *Proc) {
					resumes = append(resumes, p.Sleep(100*us)) // superseded at 10µs
					if again {
						resumes = append(resumes, p.WaitUntil(100*us))
					}
					resumes = append(resumes, p.ParkUntilWake())
				})
				inject := false
				e.SetTick(func() {
					if inject {
						inject = false
						e.Inject(a, e.Now())
					}
				})
				inHeap := false
				e.Go("b", func(p *Proc) {
					p.Sleep(10 * us)
					inHeap = !slices.ContainsFunc(e.front, func(x entry) bool { return x.key == a.wakeKey })
					if by == "Wake" {
						a.Wake()
					} else {
						inject = true
					}
					p.Sleep(290 * us)
					a.Wake()
				})
				for i := 0; i < fillers; i++ {
					e.Go("filler", func(p *Proc) {
						for e.Now() < 400*us {
							p.Sleep(us)
						}
					})
				}
				e.Run()
				want := []units.Time{10 * us, 300 * us}
				if again {
					want = []units.Time{10 * us, 100 * us, 300 * us}
				}
				if fmt.Sprint(resumes) != fmt.Sprint(want) || inHeap != (fillers > 0) {
					t.Errorf("%d fillers, by %s, again %v: resumed at %v, want %v; stale timer in the heap tier: %v",
						fillers, by, again, resumes, want, inHeap)
				}
			}
		}
	}
}

// TestManyProcsMatchReference: the scripts of
// TestRandomSchedulesMatchReference with 70–270 roots, so the start
// burst alone overflows the front tier, dispatch exactly as the
// reference does — and the run really did spill into the heap tier and
// pop from it with the front empty.
func TestManyProcsMatchReference(t *testing.T) {
	var spilled, heapPopped bool
	probe := func(e *Engine) {
		// An empty heap gains its first entry only by a full front's spill.
		spilled = spilled || len(e.heap) > 0
		heapPopped = heapPopped || len(e.front) == 0 && len(e.heap) > 0
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roots := make([][]scriptOp, 70+rng.Intn(201))
		for i := range roots {
			roots[i] = genScript(rng, 0)
		}
		got := runScripted(roots, probe)
		want := (&refEngine{}).run(roots)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d dispatches, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d is %s, reference %s", seed, i, got[i], want[i])
			}
		}
	}
	if !spilled || !heapPopped {
		t.Fatalf("spilled into the heap tier: %v, popped from it: %v; want both", spilled, heapPopped)
	}
}

// TestQueueTiersPopInOrder: scheduleAt and pop alone, with no process
// run, against the minimum of the live wakes: times spread over 1 ms,
// both priorities, 1–300 owners and superseded wakes among them, so
// front inserts, spills of the front's latest entry, heap pushes and
// heap-tier pops all happen.
func TestQueueTiersPopInOrder(t *testing.T) {
	frontSpills := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		procs := make([]*Proc, 1+rng.Intn(300))
		live := map[*Proc]entry{}
		for i := range procs {
			procs[i] = &Proc{ID: i}
		}
		e.procs = procs
		for k := 0; k < 3000; k++ {
			if rng.Intn(3) > 0 {
				p := procs[rng.Intn(len(procs))]
				latest := entry{}
				if len(e.front) == frontCap {
					latest = e.front[0]
				}
				e.scheduleAt(e.now+units.Time(rng.Intn(1000))*units.Microsecond, int8(rng.Intn(2)-1), p)
				live[p] = entry{t: p.wakeAt, key: p.wakeKey, own: int32(p.ID) + 1}
				if latest.own != 0 && e.front[0] != latest {
					frontSpills++
				}
				continue
			}
			var want entry
			for _, x := range live {
				if want.own == 0 || x.before(want) {
					want = x
				}
			}
			got := e.pop()
			if got != want {
				t.Fatalf("seed %d, op %d: popped %+v, want %+v", seed, k, got, want)
			}
			if got.own != 0 {
				p := procs[got.own-1]
				e.now, p.wakeKey = got.t, 0
				delete(live, p)
			}
		}
	}
	if frontSpills == 0 {
		t.Fatal("no front entry was ever spilled into the heap tier")
	}
}

// TestSelfWakeTicksOncePerEvent: a process that owns every next event
// never switches, and tick still runs exactly once per dispatch.
func TestSelfWakeTicksOncePerEvent(t *testing.T) {
	e := NewEngine()
	const sleeps = 1000
	ticks := 0
	e.SetTick(func() { ticks++ })
	e.Go("only", func(p *Proc) {
		for i := 0; i < sleeps; i++ {
			p.Sleep(units.Microsecond)
		}
	})
	e.Run()
	if ticks != sleeps+1 {
		t.Fatalf("%d ticks for %d events", ticks, sleeps+1)
	}
}

// TestSelfWakeHonoursEarlierInject: the tick a parking process runs
// injects a wake that lands before the parker's own timer. The injected
// process must run first, and the parker's timer must still fire, once.
func TestSelfWakeHonoursEarlierInject(t *testing.T) {
	e := NewEngine()
	var order []string
	var other *Proc
	armed := false
	e.Go("parker", func(p *Proc) {
		armed = true
		p.Sleep(100 * units.Microsecond) // tick runs inside this park
		order = append(order, fmt.Sprintf("parker@%v", e.Now()))
	})
	other = e.Go("other", func(p *Proc) {
		p.ParkUntilWake()
		order = append(order, fmt.Sprintf("other@%v", e.Now()))
	})
	e.SetTick(func() {
		if armed && other.state == stateParked && other.wakeKey == 0 && len(order) == 0 {
			e.Inject(other, 50*units.Microsecond)
		}
	})
	e.Run()
	if got := strings.Join(order, " "); got != "other@50.000µs parker@100.000µs" {
		t.Fatalf("order = %s", got)
	}
}

// TestSteadyStateEventAllocatesNothing: once the queue's tiers have
// grown, an event costs no allocation — neither on the self-wake path
// (one process) nor through Run (sixteen, and two hundred, past the
// front tier), and neither does a stepped wait of four events whose
// step func was bound once.
func TestSteadyStateEventAllocatesNothing(t *testing.T) {
	for _, procs := range []int{1, 16, 200} {
		e := NewEngine()
		var allocs, stepAllocs float64
		stop := false
		e.Go("measured", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(units.Microsecond)
			}
			allocs = testing.AllocsPerRun(1000, func() { p.Sleep(units.Microsecond) })
			left := 0
			step := func() (units.Time, bool) {
				left--
				return e.Now() + units.Microsecond, left > 0
			}
			stepAllocs = testing.AllocsPerRun(1000, func() {
				left = 4
				p.WaitUntilStep(e.Now()+units.Microsecond, step)
			})
			stop = true
		})
		for i := 1; i < procs; i++ {
			e.Go("filler", func(p *Proc) {
				for !stop {
					p.Sleep(units.Microsecond)
				}
			})
		}
		e.Run()
		if allocs != 0 || stepAllocs != 0 {
			t.Errorf("%d processes: %.2f allocations per event, %.2f per stepped wait, want 0", procs, allocs, stepAllocs)
		}
	}
}

// settledGoroutines reads the goroutine count, giving goroutines that
// have done their work but not quite exited — a subtest's runner after
// it reported — up to two seconds to be gone. Exit can only be polled.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunLeavesNoGoroutines: however Run ends — cleanly, by re-raising
// a trapped process panic, by the deadlock panic — every coroutine it
// started is gone when it returns, and the ones it unwound ran their
// defers.
func TestRunLeavesNoGoroutines(t *testing.T) {
	// Eight processes, the last of them in one stepped wait for as long
	// as the others sleep: a trap or a deadlock finds it parked there.
	sleepers := func(e *Engine, unwound *int) {
		for i := 0; i < 8; i++ {
			stepped := i == 7
			e.Go("sleeper", func(p *Proc) {
				defer func() { *unwound++ }()
				k := 0
				if stepped {
					p.WaitUntilStep(e.Now()+units.Microsecond, func() (units.Time, bool) {
						k++
						return e.Now() + units.Microsecond, k < 20
					})
				}
				for ; k < 20; k++ {
					p.Sleep(units.Microsecond)
				}
			})
		}
	}
	before := runtime.NumGoroutine()

	t.Run("clean", func(t *testing.T) {
		var unwound int
		e := NewEngine()
		sleepers(e, &unwound)
		e.Run()
		if unwound != 8 {
			t.Fatalf("%d of 8 processes finished", unwound)
		}
	})
	if n := settledGoroutines(before); n > before {
		t.Fatalf("clean run: %d goroutines, started with %d", n, before)
	}

	t.Run("trapped", func(t *testing.T) {
		var unwound int
		e := NewEngine()
		sleepers(e, &unwound)
		e.Go("faulty", func(p *Proc) {
			p.Sleep(5 * units.Microsecond)
			e.Go("late", func(p *Proc) { t.Error("a process started after the trap") })
			panic("boom")
		})
		defer func() {
			tp, ok := recover().(*TaskPanic)
			if !ok || tp.Value != "boom" || !strings.Contains(string(tp.Stack), "TestRunLeavesNoGoroutines") {
				t.Fatalf("Run re-raised %v, want the TaskPanic of boom with its stack", tp)
			}
			if unwound != 8 {
				t.Fatalf("%d of 8 parked processes ran their defers", unwound)
			}
		}()
		e.Run()
	})
	if n := settledGoroutines(before); n > before {
		t.Fatalf("trapped run: %d goroutines, started with %d", n, before)
	}

	t.Run("deadlock", func(t *testing.T) {
		var unwound int
		e := NewEngine()
		sleepers(e, &unwound)
		e.Go("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.ParkUntilWake()
		})
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sim: deadlock — 1 processes alive") {
				t.Fatalf("Run raised %v, want the deadlock diagnosis", r)
			}
			if unwound != 9 {
				t.Fatalf("%d of 9 processes ran their defers", unwound)
			}
		}()
		e.Run()
	})
	if n := settledGoroutines(before); n > before {
		t.Fatalf("deadlocked run: %d goroutines, started with %d", n, before)
	}
}

// TestGoexitInProcessEndsRun: runtime.Goexit inside a process body —
// what t.FailNow and t.Skip do — ends Run's goroutine too, deferred
// calls and all, in place of leaving Run waiting for a process that
// will never report back.
func TestGoexitInProcessEndsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	var unwound int
	ended := make(chan bool)
	go func() {
		returned := false
		defer func() { ended <- returned }()
		e := NewEngine()
		for i := 0; i < 4; i++ {
			e.Go("bystander", func(p *Proc) {
				defer func() { unwound++ }()
				p.Sleep(units.Millisecond)
			})
		}
		e.Go("quitter", func(p *Proc) {
			p.Sleep(units.Microsecond)
			runtime.Goexit()
		})
		e.Run()
		returned = true
	}()
	select {
	case returned := <-ended:
		if returned {
			t.Fatal("Run returned normally past a Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hangs after a Goexit in a process")
	}
	if unwound != 4 {
		t.Fatalf("%d of 4 bystanders ran their defers", unwound)
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines, started with %d", n, before)
	}
}

// TestHookPanicSurfacesFromRun: a tick that panics while a parking
// process is running it must not be taken for that process's fault —
// the body's own recover never sees it — and comes out of Run as
// itself, not as a TaskPanic.
func TestHookPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.SetTick(func() {
		if ticks++; ticks == 3 {
			panic("hook boom")
		}
	})
	swallowed := false
	e.Go("guarded", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil && !IsUnwind(r) {
				swallowed = true
			} else if r != nil {
				panic(r)
			}
		}()
		for {
			p.Sleep(units.Microsecond)
		}
	})
	defer func() {
		if r := recover(); r != "hook boom" {
			t.Fatalf("Run raised %v, want the hook's own panic", r)
		}
		if swallowed {
			t.Fatal("the process body recovered the hook's panic")
		}
	}()
	e.Run()
}

// TestStepPanicSurfacesFromRun: a panic inside a step — whether Run was
// running it or its own process on the way out of park — is that
// process's fault: the body's recover never sees it (the step is not on
// its stack when Run dispatches it, and must not be when it is), Run
// re-raises it as a *TaskPanic after every process has unwound, the
// faulty one included.
func TestStepPanicSurfacesFromRun(t *testing.T) {
	for _, bystanders := range []int{0, 3} { // 0: every step runs inside park
		e := NewEngine()
		unwound, swallowed := 0, false
		for i := 0; i < bystanders; i++ {
			e.Go("bystander", func(p *Proc) {
				defer func() { unwound++ }()
				for {
					p.Sleep(units.Microsecond)
				}
			})
		}
		e.Go("faulty", func(p *Proc) {
			defer func() {
				unwound++
				if r := recover(); r != nil && !IsUnwind(r) {
					swallowed = true
				} else if r != nil {
					panic(r)
				}
			}()
			k := 0
			p.WaitUntilStep(e.Now()+units.Microsecond, func() (units.Time, bool) {
				if k++; k == 5 {
					panic("step boom")
				}
				return e.Now() + units.Microsecond, true
			})
			t.Error("the process resumed past a step that panicked")
		})
		func() {
			defer func() {
				tp, ok := recover().(*TaskPanic)
				if !ok || tp.Value != "step boom" || !strings.Contains(string(tp.Stack), "TestStepPanicSurfacesFromRun") {
					t.Fatalf("%d bystanders: Run re-raised %v, want the TaskPanic of the step with its stack", bystanders, tp)
				}
			}()
			e.Run()
		}()
		if swallowed || unwound != bystanders+1 {
			t.Fatalf("%d bystanders: %d processes unwound, body recovered the step's panic: %v", bystanders, unwound, swallowed)
		}
	}
}

// TestParkInsideStepPanics: a step runs in the dispatcher and has no
// stack to park on.
func TestParkInsideStepPanics(t *testing.T) {
	e := NewEngine()
	e.Go("bad", func(p *Proc) {
		p.WaitUntilStep(units.Microsecond, func() (units.Time, bool) {
			p.Sleep(units.Microsecond)
			return 0, false
		})
	})
	defer func() {
		if tp, ok := recover().(*TaskPanic); !ok || !strings.Contains(fmt.Sprint(tp.Value), "inside a step") {
			t.Fatalf("Run raised %v, want the park-inside-a-step panic", tp)
		}
	}()
	e.Run()
}

// BenchmarkEngine is the engine alone at 16, 256 and 4096 processes,
// each sleeping a fixed period of its own spread over 1–1000 µs: plain
// sleepers (a Sleep loop, one resume per event unless the sleeper owns
// the next event too) and stepped sleepers (one WaitUntilStep whose step
// waits again, no resume at all). The 4096 case keeps most wakes in the
// queue's heap tier. One op is one event; coroutine start-up and the
// queue's growth are outside the timed part.
func BenchmarkEngine(b *testing.B) {
	for _, kind := range []string{"plain", "stepped"} {
		for _, procs := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/procs=%d", kind, procs), func(b *testing.B) {
				e := NewEngine()
				warm, events := 4*procs, 0
				var m0, m1 runtime.MemStats
				// count is every event's first act: it starts the clock
				// after the warm-up and stops it after b.N events.
				count := func() bool {
					switch events++; events {
					case warm:
						runtime.ReadMemStats(&m0)
						b.ResetTimer()
					case warm + b.N:
						b.StopTimer()
						runtime.ReadMemStats(&m1)
					}
					return events < warm+b.N
				}
				for i := 0; i < procs; i++ {
					period := units.Time(1+i*7919%1000) * units.Microsecond
					if kind == "plain" {
						e.Go("sleeper", func(p *Proc) {
							for count() {
								p.Sleep(period)
							}
						})
						continue
					}
					e.Go("stepper", func(p *Proc) {
						if count() {
							p.WaitUntilStep(e.Now()+period, func() (units.Time, bool) {
								return e.Now() + period, count()
							})
						}
					})
				}
				e.Run()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/event")
			})
		}
	}
}
