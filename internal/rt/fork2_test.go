package rt

import (
	"context"
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
// the panic's stack.
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
	if err == nil || !strings.Contains(err.Error(), "pushed body failed") ||
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
