//go:build hermescheck

package rt

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/wl"
)

// The interleaving checker: run with go test -tags hermescheck.
//
// Each worker of a small pool runs on a goroutine of its own, and the
// checker lets exactly one of them run at a time: a worker runs until
// its next yield (sites.go), where the checker picks who takes the
// next step. Every schedule of the seamed steps is thereby one path
// through a tree of choices, which the checker walks depth-first,
// re-executing from a fresh pool each time, up to preemptBound
// switches away from a worker that could have gone on (iterative
// context bounding, as in CHESS; Musuvathi & Qadeer, PLDI 2007). Go's
// atomics are sequentially consistent, so the interleavings of the
// seamed steps are every ordering the memory model allows among them.

// preemptBound bounds the preemptions per schedule.
const preemptBound = 3

// maxSteps ends a schedule that makes no progress: a livelock.
const maxSteps = 5_000

var siteNames = [...]string{
	sitePush: "push", sitePop: "pop", siteSteal: "steal", siteResult: "res",
	siteCount: "count", siteWake: "wake", sitePark: "park",
}

// thread is one checked worker goroutine.
type thread struct {
	w     *worker
	run   chan struct{}
	at    string      // the step it takes when next run
	ready func() bool // nil: it can take that step now
	ended bool
}

// ctl runs one schedule: it resumes one thread at a time and waits on
// back until that thread pauses again or ends.
type ctl struct {
	th    []*thread
	back  chan struct{}
	trace []string
	bad   []string // property violations seen inside the run
}

func (c *ctl) yield(w *worker, s site) {
	var ready func() bool
	if s == sitePark {
		ready = func() bool { return len(w.wake) > 0 }
	}
	c.pause(w, siteNames[s], ready)
}

// pause hands the turn back to the checker until ready holds and the
// checker picks w.
func (c *ctl) pause(w *worker, at string, ready func() bool) {
	th := c.th[w.id]
	th.at, th.ready = at, ready
	c.back <- struct{}{}
	<-th.run
}

// fail records a property violation; the schedule is reported with it.
func (c *ctl) fail(format string, args ...any) {
	c.bad = append(c.bad, fmt.Sprintf(format, args...))
}

// broken records an invariant that rt asserts (worker.assert).
func (c *ctl) broken(what string) { c.fail("%s", what) }

// await pauses a task body until cond holds: it forces the interleaving
// a tree needs (a steal, say) in every schedule.
func await(c wl.Ctx, cond func() bool) {
	w := c.(*wctx).w
	w.seam.ctl.(*ctl).pause(w, "await", cond)
}

// checkerOf returns the checker driving the worker behind c.
func checkerOf(c wl.Ctx) *ctl { return c.(*wctx).w.seam.ctl.(*ctl) }

// node is one choice of a schedule: alts lists the threads that could
// take the step (the default first: the thread that took the previous
// one, if it still can), alts[i] is the one taken.
type node struct {
	alts []int
	i    int
	cur  int // thread that took the previous step, -1 at the start
	pre  int // preemptions before this choice
}

// cost is 1 when taking t preempts a thread that could have gone on.
func (n *node) cost(t int) int {
	if n.cur >= 0 && t != n.cur && slices.Contains(n.alts, n.cur) {
		return 1
	}
	return 0
}

// tree is one fork-join shape under check. build returns a fresh root
// and a check of the finished job, both over the run's own state.
type tree struct {
	name    string
	workers int
	build   func() (root wl.Task, check func(r core.Report, err error) error)
}

// execute runs one schedule: it replays the choices on stack, extends
// it with default choices, and returns the first violation with the
// schedule's trace ("" when every property holds).
func execute(tr tree, tokens bool, stack *[]node) string {
	e, err := newExec(core.Config{Spec: cpu.SystemB(), Workers: tr.workers, Mode: core.Baseline, Seed: 1})
	if err != nil {
		return err.Error()
	}
	c := &ctl{back: make(chan struct{})}
	for _, w := range e.workers {
		w.seam.ctl = c
		c.th = append(c.th, &thread{w: w, run: make(chan struct{}), at: "start"})
		if tokens {
			w.wake <- struct{}{} // a stale token in every wake channel
		}
	}
	root, check := tr.build()
	j, err := e.Submit(context.Background(), func(x wl.Ctx) {
		root(x)
		// The root's joins are done: no task of the job may be left.
		for _, w := range e.workers {
			if n := w.dq.Size(); n != 0 {
				c.fail("root returned with %d task(s) on worker %d's deque", n, w.id)
			}
		}
	}, core.Class{})
	if err != nil {
		return err.Error()
	}
	done := func() bool {
		select {
		case <-j.Done():
			return true
		default:
			return false
		}
	}
	stealable := func(w *worker) bool {
		for _, v := range e.workers {
			if v != w && v.dq.Size() > 0 {
				return true
			}
		}
		return false
	}
	for i, th := range c.th {
		w := th.w
		go func() {
			<-th.run
			if i == 0 {
				w.runTask(<-e.injectq)
			} else {
				for !done() {
					if t, ok := w.stealRound(); ok {
						w.runTask(t)
						continue
					}
					c.pause(w, "idle", func() bool { return done() || stealable(w) })
				}
			}
			th.ended = true
			c.back <- struct{}{}
		}()
	}
	runnable := func(i int) bool {
		th := c.th[i]
		return !th.ended && (th.ready == nil || th.ready())
	}
	cur, pre := -1, 0
	for k := 0; ; k++ {
		var alts []int
		if cur >= 0 && runnable(cur) {
			alts = append(alts, cur)
		}
		live := 0
		for i, th := range c.th {
			if !th.ended {
				live++
			}
			if i != cur && runnable(i) {
				alts = append(alts, i)
			}
		}
		if live == 0 {
			break
		}
		if len(alts) == 0 {
			var at []string
			for i, th := range c.th {
				if !th.ended {
					at = append(at, fmt.Sprintf("w%d at %s", i, th.at))
				}
			}
			return report(c, "deadlock: every worker blocks ("+strings.Join(at, ", ")+")")
		}
		if k == maxSteps {
			return report(c, fmt.Sprintf("no end after %d steps", maxSteps))
		}
		if k < len(*stack) {
			n := &(*stack)[k]
			if !slices.Equal(n.alts, alts) || n.cur != cur {
				return report(c, fmt.Sprintf("replay diverged at step %d: %v after w%d, recorded %v after w%d", k, alts, cur, n.alts, n.cur))
			}
		} else {
			*stack = append(*stack, node{alts: alts, cur: cur, pre: pre})
		}
		n := &(*stack)[k]
		t := n.alts[n.i]
		pre = n.pre + n.cost(t)
		cur = t
		c.trace = append(c.trace, fmt.Sprintf("w%d:%s", t, c.th[t].at))
		c.th[t].run <- struct{}{}
		<-c.back
	}
	r, jerr := j.Wait()
	if err := check(r, jerr); err != nil {
		c.fail("%v", err)
	}
	for _, w := range e.workers {
		if n := w.dq.Size(); n != 0 {
			c.fail("worker %d's deque holds %d task(s) after the job", w.id, n)
		}
	}
	faults, _ := pooledBlockFaults(e)
	c.bad = append(c.bad, faults...)
	e.Close()
	if len(c.bad) > 0 {
		return report(c, "")
	}
	return ""
}

// report renders a violation, with any the run recorded before it,
// and the schedule that led to it.
func report(c *ctl, msg string) string {
	if msg != "" {
		c.bad = append(c.bad, msg)
	}
	return strings.Join(c.bad, "; ") + "\n\tschedule: " + strings.Join(c.trace, " ")
}

// explore walks every schedule of tr within preemptBound and returns
// how many it ran, or the first violation.
func explore(tr tree, tokens bool) (int, string) {
	var stack []node
	for runs := 1; ; runs++ {
		if bad := execute(tr, tokens, &stack); bad != "" {
			return runs, bad
		}
		for len(stack) > 0 {
			n := &stack[len(stack)-1]
			for n.i++; n.i < len(n.alts) && n.pre+n.cost(n.alts[n.i]) > preemptBound; n.i++ {
			}
			if n.i < len(n.alts) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return runs, ""
		}
	}
}

// leafTree is a Fork2 tree of depth d whose leaves return their index
// v and count their runs; its serial value is the sum of the leaves.
func leafTree(ran map[int]int) wl.Body {
	var f wl.Body
	f = func(c wl.Ctx, d, v int) int {
		if d == 0 {
			ran[v]++
			return v
		}
		a, b := c.Fork2(f, d-1, 2*v, d-1, 2*v+1)
		return a + b
	}
	return f
}

// forcedSteal forks f(x, 1) inline and f(y, 0) pushed; the inline call
// waits until the pushed one has started, which only a thief can do.
// The pushed call forks a depth-1 tree under it on the thief.
func forcedSteal(c wl.Ctx, ran map[int]int, x, y int) (int, int) {
	started := false
	leaves := leafTree(ran)
	return c.Fork2(func(c wl.Ctx, v, inline int) int {
		if inline == 1 {
			await(c, func() bool { return started })
			return v
		}
		started = true
		return leaves(c, 1, v)
	}, x, 1, y, 0)
}

// exact checks a finished job's counts and error.
func exact(r core.Report, err error, tasks, spawns int64) error {
	if err != nil {
		return fmt.Errorf("job failed: %v", err)
	}
	if r.Tasks != tasks || r.Spawns != spawns {
		return fmt.Errorf("%d tasks, %d spawns; want %d and %d", r.Tasks, r.Spawns, tasks, spawns)
	}
	return nil
}

// onceEach checks that the leaves in want each ran exactly once.
func onceEach(ran map[int]int, want ...int) error {
	for _, v := range want {
		if ran[v] != 1 {
			return fmt.Errorf("leaf %d ran %d times", v, ran[v])
		}
	}
	if len(ran) != len(want) {
		return fmt.Errorf("leaves ran: %v, want each of %v once", ran, want)
	}
	return nil
}

func checkedTrees() []tree {
	return []tree{{
		name: "Fork2 depth 3", workers: 2,
		build: func() (wl.Task, func(core.Report, error) error) {
			ran := map[int]int{}
			var got int
			return func(c wl.Ctx) { got = leafTree(ran)(c, 3, 1) },
				func(r core.Report, err error) error {
					if got != 8+9+10+11+12+13+14+15 {
						return fmt.Errorf("tree returned %d, want 92", got)
					}
					if err := onceEach(ran, 8, 9, 10, 11, 12, 13, 14, 15); err != nil {
						return err
					}
					return exact(r, err, 8, 7)
				}
		},
	}, {
		name: "Fork2 depth 2", workers: 2,
		build: func() (wl.Task, func(core.Report, error) error) {
			ran := map[int]int{}
			var got int
			return func(c wl.Ctx) { got = leafTree(ran)(c, 2, 1) },
				func(r core.Report, err error) error {
					if got != 4+5+6+7 {
						return fmt.Errorf("tree returned %d, want 22", got)
					}
					if err := onceEach(ran, 4, 5, 6, 7); err != nil {
						return err
					}
					return exact(r, err, 4, 3)
				}
		},
	}, {
		name: "three-way Go", workers: 3,
		build: func() (wl.Task, func(core.Report, error) error) {
			var ran, out [3]int
			return func(c wl.Ctx) {
					c.Go(
						func(wl.Ctx) { ran[0]++; out[0] = 10 },
						func(wl.Ctx) { ran[1]++; out[1] = 11 },
						func(wl.Ctx) { ran[2]++; out[2] = 12 },
					)
					if ran != [3]int{1, 1, 1} || out != [3]int{10, 11, 12} {
						checkerOf(c).fail("Go returned with runs %v, results %v", ran, out)
					}
				}, func(r core.Report, err error) error {
					return exact(r, err, 3, 2)
				}
		},
	}, {
		name: "forced steal, then a join", workers: 2,
		build: func() (wl.Task, func(core.Report, error) error) {
			ran := map[int]int{}
			var a, b int
			return func(c wl.Ctx) { a, b = forcedSteal(c, ran, 1, 2) },
				func(r core.Report, err error) error {
					if a != 1 || b != 4+5 {
						return fmt.Errorf("got (%d, %d), want (1, 9)", a, b)
					}
					if err := onceEach(ran, 4, 5); err != nil {
						return err
					}
					if r.Steals == 0 {
						return fmt.Errorf("no steal")
					}
					return exact(r, err, 3, 2)
				}
		},
	}, {
		name: "block reused across two generations", workers: 2,
		build: func() (wl.Task, func(core.Report, error) error) {
			ran := map[int]int{}
			var got [4]int
			return func(c wl.Ctx) {
					w := c.(*wctx).w
					got[0], got[1] = forcedSteal(c, ran, 1, 2)
					gen1 := w.freeBlocks[len(w.freeBlocks)-1]
					got[2], got[3] = forcedSteal(c, ran, 3, 6)
					if w.freeBlocks[len(w.freeBlocks)-1] != gen1 {
						checkerOf(c).fail("the second generation did not reuse the first's block")
					}
				}, func(r core.Report, err error) error {
					if got != [4]int{1, 4 + 5, 3, 12 + 13} {
						return fmt.Errorf("got %v, want [1 9 3 25]", got)
					}
					if err := onceEach(ran, 4, 5, 12, 13); err != nil {
						return err
					}
					return exact(r, err, 5, 4)
				}
		},
	}, {
		name: "a task whose inline call panics", workers: 2,
		build: func() (wl.Task, func(core.Report, error) error) {
			nop := func(wl.Ctx) {}
			sib := 0
			return func(c wl.Ctx) {
					c.Go(nop, func(c wl.Ctx) {
						c.Go(func(wl.Ctx) { panic("boom") }, func(wl.Ctx) { sib++ })
					}, nop)
				}, func(r core.Report, err error) error {
					if err == nil || !strings.Contains(err.Error(), "boom") {
						return fmt.Errorf("err = %v, want the panic", err)
					}
					if sib > 1 || r.Spawns != 3 {
						return fmt.Errorf("sibling ran %d times, %d spawns; want at most once and 3", sib, r.Spawns)
					}
					return nil
				}
		},
	}}
}

// TestInterleavings runs every tree over every schedule within the
// preemption bound, with clean wake channels and with a stale token in
// each.
func TestInterleavings(t *testing.T) {
	for _, tr := range checkedTrees() {
		for _, tokens := range []bool{false, true} {
			runs, bad := explore(tr, tokens)
			if bad != "" {
				t.Fatalf("%s (stale tokens %v), schedule %d: %s", tr.name, tokens, runs, bad)
			}
			t.Logf("%s (stale tokens %v): %d schedules", tr.name, tokens, runs)
		}
	}
}
