package wl

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hermes/internal/units"
)

// Script is the recording of one execution of a Task: per task, the
// Work, Mem, WorkMix and Go calls its body made, with their arguments,
// in call order. Record makes one; Task replays it.
type Script struct {
	root   node
	spawns int64
}

// node is one recorded task body.
type node struct{ ops []op }

// op is one recorded call: kind is 'w' (Work, n cycles), 'm' (Mem, a
// stall of n), 'x' (WorkMix, n cycles with memory fraction f) or 'g'
// (Go, the block kids). A 'g' op also holds the replay Task of each
// kid, built once as it is recorded, so a replay allocates nothing.
// Replays share them read-only.
type op struct {
	kind  byte
	n     int64
	f     float64
	kids  []node
	tasks []Task
}

// Record executes root for real on the host and returns the recording
// of its calls. In every Go, the serially-latest tasks each run on a
// helper goroutine while fewer than GOMAXPROCS−1 helpers of the
// recording are alive, and the rest run inline in serial order,
// tasks[0] first; no body waits for a free helper, and at GOMAXPROCS 1
// the run is serial. The tasks of one block must communicate only
// through its join, as on Native. A panic in any body re-raises here,
// on the caller's goroutine, once every goroutine of the recording has
// returned. Worker panics while recording.
func Record(root Task) *Script {
	r := &recorder{limit: int32(runtime.GOMAXPROCS(0) - 1)}
	s := &Script{}
	root(recCtx{r, &s.root})
	if r.cause != nil {
		panic(r.cause)
	}
	s.spawns = r.spawns.Load()
	return s
}

// Task returns a Task that makes the recorded calls, in their order,
// against whatever Ctx runs it, and computes nothing else.
func (s *Script) Task() Task { return s.root.replay }

// Tasks is the number of tasks a work-stealing scheduler runs for the
// script: the root and every task a Go pushes.
func (s *Script) Tasks() int64 { return 1 + s.spawns }

// Spawns is the number of tasks the script's Go calls push: all but
// tasks[0] of each block of two or more (a one-task Go runs inline).
func (s *Script) Spawns() int64 { return s.spawns }

func (n *node) replay(c Ctx) {
	for _, o := range n.ops {
		switch o.kind {
		case 'w':
			c.Work(units.Cycles(o.n))
		case 'm':
			c.Mem(units.Time(o.n))
		case 'x':
			c.WorkMix(units.Cycles(o.n), o.f)
		default:
			c.Go(o.tasks...)
		}
	}
}

// recorder is the state one Record shares with its goroutines.
type recorder struct {
	limit   int32
	helpers atomic.Int32 // helper goroutines alive
	spawns  atomic.Int64
	fail    sync.Once
	cause   any // the first panic on a helper goroutine
}

type recCtx struct {
	r *recorder
	n *node
}

func (c recCtx) Go(tasks ...Task) {
	r, kids, replays := c.r, make([]node, len(tasks)), make([]Task, len(tasks))
	for i := range kids {
		replays[i] = kids[i].replay
	}
	c.n.ops = append(c.n.ops, op{kind: 'g', kids: kids, tasks: replays})
	if len(tasks) >= 2 {
		r.spawns.Add(int64(len(tasks) - 1))
	}
	var wg sync.WaitGroup
	inline := len(tasks) - 1
	for ; inline > 0 && r.helpers.Add(1) <= r.limit; inline-- {
		wg.Add(1)
		go func(t Task, n *node) {
			defer func() {
				if p := recover(); p != nil {
					r.fail.Do(func() { r.cause = p })
				}
				r.helpers.Add(-1)
				wg.Done()
			}()
			t(recCtx{r, n})
		}(tasks[inline], &kids[inline])
	}
	if inline > 0 {
		r.helpers.Add(-1) // the failed claim
	}
	defer wg.Wait() // the join, also when a body panics
	for i := 0; i <= inline; i++ {
		tasks[i](recCtx{r, &kids[i]})
	}
}

// Fork2 is Go with its two tasks, so it records the same block.
func (c recCtx) Fork2(f Body, a0, a1, b0, b1 int) (a, b int) {
	c.Go(func(c Ctx) { a = f(c, a0, a1) }, func(c Ctx) { b = f(c, b0, b1) })
	return a, b
}

func (c recCtx) Work(cy units.Cycles) { c.n.ops = append(c.n.ops, op{kind: 'w', n: int64(cy)}) }

func (c recCtx) Mem(d units.Time) { c.n.ops = append(c.n.ops, op{kind: 'm', n: int64(d)}) }

func (c recCtx) WorkMix(cy units.Cycles, memFrac float64) {
	c.n.ops = append(c.n.ops, op{kind: 'x', n: int64(cy), f: memFrac})
}

func (c recCtx) Worker() int { panic("wl: Worker called while recording: no worker runs the body") }
