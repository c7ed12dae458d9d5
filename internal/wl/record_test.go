package wl

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/units"
)

// logCtx runs every task inline and logs each call with its arguments
// and the nesting of Go blocks.
type logCtx struct{ log *[]string }

func (c logCtx) Go(tasks ...Task) {
	*c.log = append(*c.log, fmt.Sprintf("go %d", len(tasks)))
	for i, t := range tasks {
		*c.log = append(*c.log, fmt.Sprintf("task %d", i))
		t(c)
	}
	*c.log = append(*c.log, "join")
}
func (c logCtx) Work(cy units.Cycles) { *c.log = append(*c.log, fmt.Sprint("work ", cy)) }
func (c logCtx) Mem(d units.Time)     { *c.log = append(*c.log, fmt.Sprint("mem ", int64(d))) }
func (c logCtx) WorkMix(cy units.Cycles, f float64) {
	*c.log = append(*c.log, fmt.Sprint("mix ", cy, " ", f))
}
func (c logCtx) Worker() int { return 0 }

// program is a task tree with every kind of call: empty and one-task
// blocks, wide and nested blocks, wl.For, and costs that depend on
// which task makes them.
func program(c Ctx) {
	c.Work(7)
	c.Go()
	c.Go(func(c Ctx) { c.Mem(3) })
	For(c, 0, 37, 4, func(c Ctx, lo, hi int) {
		c.WorkMix(units.Cycles(100*lo+hi), float64(hi-lo)/8)
		if lo%8 == 0 {
			c.Go(
				func(c Ctx) { c.Work(units.Cycles(lo)) },
				func(c Ctx) { c.Mem(units.Time(hi)) },
				func(c Ctx) { c.WorkMix(units.Cycles(lo*hi), -0.5) },
			)
		}
		c.Work(1)
	})
	c.Mem(2)
}

func TestRecordReplaysCallSequence(t *testing.T) {
	var live, replay []string
	program(logCtx{&live})
	s := Record(program)
	s.Task()(logCtx{&replay})
	if strings.Join(live, "\n") != strings.Join(replay, "\n") {
		t.Fatalf("replay differs from the live run:\nlive:   %q\nreplay: %q", live, replay)
	}
	// Blocks of two or more push all but tasks[0], counted here from
	// the live run's log.
	var spawns int64
	for _, l := range live {
		var n int64
		if _, err := fmt.Sscanf(l, "go %d", &n); err == nil && n >= 2 {
			spawns += n - 1
		}
	}
	if spawns < 10 || s.Spawns() != spawns || s.Tasks() != 1+spawns {
		t.Fatalf("Spawns %d, Tasks %d; the live run pushed %d", s.Spawns(), s.Tasks(), spawns)
	}
}

// TestRecordIsDeterministic: whichever goroutines run which bodies,
// two recordings of one program are equal.
func TestRecordIsDeterministic(t *testing.T) {
	a, b := Record(program), Record(program)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two recordings of one program differ")
	}
}

// TestRecordPanicSurfacesAfterHelpers: a panic in a sibling that may
// run on a helper, or in the inline tasks[0] while a helper still
// runs, re-raises from Record, and only once the slow sibling, if it
// started, has finished. (Serially, a panicking tasks[0] stops the
// block before its siblings start.)
func TestRecordPanicSurfacesAfterHelpers(t *testing.T) {
	for _, at := range []int{0, 2} {
		var slowStarted, slowDone atomic.Bool
		tasks := []Task{
			func(Ctx) {},
			func(Ctx) {
				slowStarted.Store(true)
				time.Sleep(20 * time.Millisecond)
				slowDone.Store(true)
			},
			func(Ctx) {},
		}
		tasks[at] = func(Ctx) { panic(fmt.Sprintf("fault in task %d", at)) }
		got := func() (p any) {
			defer func() { p = recover() }()
			Record(func(c Ctx) { c.Go(tasks...) })
			return nil
		}()
		if got != fmt.Sprintf("fault in task %d", at) {
			t.Fatalf("task %d: Record raised %v", at, got)
		}
		if slowStarted.Load() != slowDone.Load() || (at == 2 && !slowDone.Load()) {
			t.Fatalf("task %d: Record raised before the slow sibling returned", at)
		}
	}
}

func TestRecordWorkerPanics(t *testing.T) {
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "while recording") {
			t.Fatalf("Worker while recording: recovered %v", p)
		}
	}()
	Record(func(c Ctx) { c.Worker() })
}
