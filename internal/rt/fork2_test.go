package rt

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// fibRef is the serial reference the trees below must return.
func fibRef(n int) int {
	if n < 2 {
		return n
	}
	return fibRef(n-1) + fibRef(n-2)
}

// fibFork2 is fib as a Fork2 tree over a serial cutoff.
func fibFork2(cutoff int) wl.Body {
	var f wl.Body
	f = func(c wl.Ctx, n, _ int) int {
		if n < cutoff {
			return fibRef(n)
		}
		a, b := c.Fork2(f, n-1, 0, n-2, 0)
		return a + b
	}
	return f
}

// fibGo is fibFork2's two-closure twin: the same spawn tree through Go.
func fibGo(c wl.Ctx, n, cutoff int, out *int) {
	if n < cutoff {
		*out = fibRef(n)
		return
	}
	var a, b int
	c.Go(
		func(c wl.Ctx) { fibGo(c, n-1, cutoff, &a) },
		func(c wl.Ctx) { fibGo(c, n-2, cutoff, &b) },
	)
	*out = a + b
}

// TestFork2MatchesGo: a Fork2 tree returns what its closure twin
// computes, and the two jobs report the same tasks and spawns.
func TestFork2MatchesGo(t *testing.T) {
	const n, cutoff = 20, 6
	for _, mode := range []core.Mode{core.Baseline, core.Unified} {
		cfg := core.Config{Spec: cpu.SystemB(), Workers: 2, Mode: mode, Seed: 31}
		var viaFork2, viaGo int
		r2, err := run(cfg, func(c wl.Ctx) { viaFork2 = fibFork2(cutoff)(c, n, 0) })
		if err != nil {
			t.Fatal(err)
		}
		rg, err := run(cfg, func(c wl.Ctx) { fibGo(c, n, cutoff, &viaGo) })
		if err != nil {
			t.Fatal(err)
		}
		if want := fibRef(n); viaFork2 != want || viaGo != want {
			t.Fatalf("%v: Fork2 tree %d, Go tree %d, want %d", mode, viaFork2, viaGo, want)
		}
		if r2.Tasks != rg.Tasks || r2.Spawns != rg.Spawns || r2.Spawns == 0 {
			t.Fatalf("%v: Fork2 job %d tasks / %d spawns, Go job %d / %d",
				mode, r2.Tasks, r2.Spawns, rg.Tasks, rg.Spawns)
		}
	}
}

// TestFork2PanicFailsJob: a panicking pushed Body fails its job with
// the panic's stack, and with nothing else.
func TestFork2PanicFailsJob(t *testing.T) {
	f := func(c wl.Ctx, x, _ int) int {
		if x == 1 {
			panic("pushed body failed")
		}
		return x
	}
	_, err := run(core.Config{Spec: cpu.SystemB(), Workers: 2, Seed: 32}, func(c wl.Ctx) {
		c.Fork2(f, 0, 0, 1, 0)
	})
	if err == nil || !strings.HasPrefix(err.Error(), "rt: job 1 task panicked: pushed body failed") ||
		!strings.Contains(err.Error(), "fork2_test.go") {
		t.Fatalf("err = %v, want the pushed body's panic with its stack", err)
	}
}

// TestFork2CancelMidTree: a job cancelled while its Fork2 tree runs
// drains and ends with ctx's error.
func TestFork2CancelMidTree(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 2, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var leaf wl.Body
	leaf = func(c wl.Ctx, lo, hi int) int {
		if hi-lo > 1 {
			mid := lo + (hi-lo)/2
			a, b := c.Fork2(leaf, lo, mid, mid, hi)
			return a + b
		}
		select {
		case started <- struct{}{}:
		default:
		}
		c.Mem(200 * units.Microsecond)
		return 1
	}
	const leaves = 1 << 14
	var ran int
	j, err := e.Submit(ctx, func(c wl.Ctx) { ran = leaf(c, 0, leaves) }, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job did not drain")
	}
	if _, err := j.Wait(); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran >= leaves {
		t.Fatalf("cancellation did not stop the tree (%d of %d leaves)", ran, leaves)
	}
}

// TestFork2CancelSkipYieldsZero: on one worker the inline call cancels
// the job, so the owner's join pops the pushed task and skips it. Its
// result is 0, not the 42 that the block's previous generation left.
func TestFork2CancelSkipYieldsZero(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 1, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := func(c wl.Ctx, x, _ int) int {
		if x == 0 {
			cancel()
			for !c.(*wctx).js.cancelled.Load() {
				runtime.Gosched()
			}
		}
		return x
	}
	var warm, a, b int
	j, err := e.Submit(ctx, func(c wl.Ctx) {
		_, warm = c.Fork2(f, 1, 0, 42, 0) // this generation of the pooled block returns 42
		a, b = c.Fork2(f, 0, 0, 42, 0)
	}, core.Class{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := j.Wait()
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if warm != 42 || a != 0 || b != 0 {
		t.Fatalf("warm-up %d (want 42), cancelled block (%d, %d) (want 0, 0)", warm, a, b)
	}
	if r.Tasks != 2 || r.Spawns != 2 {
		t.Fatalf("%d tasks, %d spawns; want 2 (the skipped body not counted) and 2", r.Tasks, r.Spawns)
	}
}

// TestFork2StealsWriteResult forces a thief to run a pushed Body: the
// inline call waits until the pushed one has started, which on two
// workers only a steal can do. Under it, a small-grain tree steals
// throughout. Run it under -race: the thief's result write must be
// ordered before the joiner's read.
func TestFork2StealsWriteResult(t *testing.T) {
	for _, mode := range []core.Mode{core.Baseline, core.Unified} {
		var a, b, fib int
		r, err := run(core.Config{Spec: cpu.SystemB(), Workers: 2, Mode: mode, Seed: 35}, func(c wl.Ctx) {
			pushed := make(chan struct{})
			a, b = c.Fork2(func(c wl.Ctx, x, _ int) int {
				if x == 2 {
					close(pushed)
					return fibFork2(2)(c, 16, 0)
				}
				<-pushed
				return fibFork2(2)(c, 14, 0)
			}, 1, 0, 2, 0)
			fib = fibFork2(2)(c, 18, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		if a != fibRef(14) || b != fibRef(16) || fib != fibRef(18) {
			t.Fatalf("%v: got %d, %d, %d; want %d, %d, %d",
				mode, a, b, fib, fibRef(14), fibRef(16), fibRef(18))
		}
		if r.Steals == 0 {
			t.Fatalf("%v: no steal recorded", mode)
		}
	}
}

// fork2Calls counts the Fork2 calls of fibFork2(2) at n: the spawns
// of that tree.
func fork2Calls(n int) int64 {
	if n < 2 {
		return 0
	}
	return 1 + fork2Calls(n-1) + fork2Calls(n-2)
}

// staleWake leaves a token in w's wake channel, as a thief's signal
// that lands after the join it counted for has returned does.
func staleWake(w *worker) {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// forkStolen is TestFork2StealsWriteResult's forced steal with a stale
// token on the owner's wake channel: the inline fib(x0) waits until a
// thief has started the pushed fib(x1), which first sleeps, so the
// owner's join finds its kid stolen and parks while done is still 0.
func forkStolen(c wl.Ctx, x0, x1 int) (int, int) {
	staleWake(c.(*wctx).w)
	pushed := make(chan struct{})
	return c.Fork2(func(c wl.Ctx, x, inline int) int {
		if inline == 1 {
			<-pushed
		} else {
			close(pushed)
			time.Sleep(time.Millisecond)
		}
		return fibFork2(2)(c, x, 0)
	}, x0, 1, x1, 0)
}

// pooledBlockFaults lists what e's pooled blocks get wrong once its
// jobs are done: a block in another worker's free list, a done not
// back at 0, a body or job still pinned, or an embedded task that is
// no longer its block's or sits in a free task list.
func pooledBlockFaults(e *Exec) (faults []string, pooled int) {
	own := map[*task]bool{}
	for _, w := range e.workers {
		for _, blk := range w.freeBlocks {
			pooled++
			own[&blk.t] = true
			if blk.owner != w {
				faults = append(faults, fmt.Sprintf("worker %d's free list holds worker %d's block", w.id, blk.owner.id))
			}
			if n := blk.done.Load(); n != 0 {
				faults = append(faults, fmt.Sprintf("a pooled block of worker %d has done %d", w.id, n))
			}
			if blk.body != nil || blk.t.job != nil {
				faults = append(faults, fmt.Sprintf("a pooled block of worker %d pins a body or a job", w.id))
			}
			if blk.t.blk != blk {
				faults = append(faults, fmt.Sprintf("a pooled block of worker %d has lost its task", w.id))
			}
		}
	}
	for _, w := range e.workers {
		for _, t := range w.freeTasks {
			if own[t] {
				faults = append(faults, fmt.Sprintf("worker %d's free task list holds a block's task", w.id))
			}
		}
	}
	return faults, pooled
}

// TestStaleWakeTokens starts every job, and every forced steal, with a
// stale token in the workers' wake channels. A join that takes one
// wakes a turn early and must go on waiting until done counts every
// stolen kid: every result is the serial one and the task and spawn
// counts are exact. After Close every pooled block is clean and sits
// in its owner's free list (pooledBlockFaults).
func TestStaleWakeTokens(t *testing.T) {
	e, err := NewExec(core.Config{Spec: cpu.SystemB(), Workers: 2, Mode: core.Unified, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		root   func(c wl.Ctx) error
		spawns int64
	}{{
		name: "forced steal",
		root: func(c wl.Ctx) error {
			a, b := forkStolen(c, 14, 16)
			if fib := fibFork2(2)(c, 18, 0); a != fibRef(14) || b != fibRef(16) || fib != fibRef(18) {
				return fmt.Errorf("got %d, %d, %d", a, b, fib)
			}
			return nil
		},
		spawns: 1 + fork2Calls(14) + fork2Calls(16) + fork2Calls(18),
	}, {
		name: "three-way Go",
		root: func(c wl.Ctx) error {
			var r [3]int
			stolen := make(chan struct{})
			staleWake(c.(*wctx).w)
			c.Go(
				func(c wl.Ctx) { <-stolen; r[0] = fibFork2(2)(c, 12, 0) },
				func(c wl.Ctx) { r[1] = fibFork2(2)(c, 13, 0) },
				func(c wl.Ctx) {
					close(stolen)
					time.Sleep(time.Millisecond)
					r[2] = fibFork2(2)(c, 14, 0)
				},
			)
			if r != [3]int{fibRef(12), fibRef(13), fibRef(14)} {
				return fmt.Errorf("got %v", r)
			}
			return nil
		},
		spawns: 2 + fork2Calls(12) + fork2Calls(13) + fork2Calls(14),
	}, {
		name: "block reused",
		root: func(c wl.Ctx) error {
			w := c.(*wctx).w
			a1, b1 := forkStolen(c, 10, 11)
			gen1 := w.freeBlocks[len(w.freeBlocks)-1]
			a2, b2 := forkStolen(c, 12, 13)
			if w.freeBlocks[len(w.freeBlocks)-1] != gen1 {
				return fmt.Errorf("second generation did not reuse the first's block")
			}
			if a1 != fibRef(10) || b1 != fibRef(11) || a2 != fibRef(12) || b2 != fibRef(13) {
				return fmt.Errorf("got (%d, %d), (%d, %d)", a1, b1, a2, b2)
			}
			return nil
		},
		spawns: 2 + fork2Calls(10) + fork2Calls(11) + fork2Calls(12) + fork2Calls(13),
	}} {
		for _, w := range e.workers {
			staleWake(w)
		}
		var rootErr error
		j, err := e.Submit(context.Background(), func(c wl.Ctx) { rootErr = tc.root(c) }, core.Class{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := j.Wait()
		if err != nil || rootErr != nil {
			t.Fatalf("%s: job err %v, root %v", tc.name, err, rootErr)
		}
		if r.Spawns != tc.spawns || r.Tasks != tc.spawns+1 {
			t.Fatalf("%s: %d tasks, %d spawns; want %d and %d", tc.name, r.Tasks, r.Spawns, tc.spawns+1, tc.spawns)
		}
	}
	e.Close()
	faults, pooled := pooledBlockFaults(e)
	if len(faults) > 0 {
		t.Fatal(strings.Join(faults, "; "))
	}
	if pooled == 0 {
		t.Fatal("no block was pooled")
	}
}
