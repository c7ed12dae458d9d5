package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/wl"
)

// fibRef is the serial reference the trees below must return.
func fibRef(n int) int {
	if n < 2 {
		return n
	}
	return fibRef(n-1) + fibRef(n-2)
}

// fibFork2 is fib as a Fork2 tree over a serial cutoff, each node
// accounting work so the tree takes virtual time and steals.
func fibFork2(cutoff int) wl.Body {
	var f wl.Body
	f = func(c wl.Ctx, n, _ int) int {
		c.WorkMix(40_000, 0.2)
		if n < cutoff {
			return fibRef(n)
		}
		a, b := c.Fork2(f, n-1, 0, n-2, 0)
		return a + b
	}
	return f
}

// fibGo is fibFork2's two-closure twin: the same calls through Go.
func fibGo(c wl.Ctx, n, cutoff int, out *int) {
	c.WorkMix(40_000, 0.2)
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

// TestFork2IsGoWithTwoTasks: on Sim a Fork2 tree is its closure twin
// event for event — the same report in every field and the same
// observer stream — and returns the same result.
func TestFork2IsGoWithTwoTasks(t *testing.T) {
	const n, cutoff = 16, 4
	for _, mode := range []Mode{Baseline, Unified} {
		run := func(root func(c wl.Ctx)) string {
			rec := &recorder{}
			cfg := baseCfg(4, mode)
			cfg.Observer = rec
			r := Run(cfg, root)
			if r.Steals == 0 {
				t.Fatalf("%v: no steals; the tree is too small to compare schedules", mode)
			}
			return goldenDump([]Report{r}, []error{nil}, rec.events, nil)
		}
		var viaFork2, viaGo int
		a := run(func(c wl.Ctx) { viaFork2 = fibFork2(cutoff)(c, n, 0) })
		b := run(func(c wl.Ctx) { fibGo(c, n, cutoff, &viaGo) })
		if want := fibRef(n); viaFork2 != want || viaGo != want {
			t.Fatalf("%v: Fork2 tree %d, Go tree %d, want %d", mode, viaFork2, viaGo, want)
		}
		if a != b {
			t.Fatalf("%v: the Fork2 run differs from its Go twin", mode)
		}
	}
}

// fork2Job runs root as the one job of a one-machine pool whose
// cancellation hook is cancelled, and returns its report and error.
func fork2Job(t *testing.T, workers int, root wl.Task, cancelled func() error) (Report, error) {
	t.Helper()
	p, err := oneMachine(Config{Spec: cpu.SystemB(), Workers: workers, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	var jobErr error
	var wg sync.WaitGroup
	wg.Add(1)
	if err := p.Submit(JobRequest{ID: 1, Root: root, Cancelled: cancelled,
		Done: func(r Report, err error) { rep, jobErr = r, err; wg.Done() }}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, jobErr
}

// TestFork2PanicFailsJob: a panicking pushed Body fails its job with
// the panic's stack, and with nothing else.
func TestFork2PanicFailsJob(t *testing.T) {
	f := func(c wl.Ctx, x, _ int) int {
		c.Work(100_000)
		if x == 1 {
			panic("pushed body failed")
		}
		return x
	}
	_, err := fork2Job(t, 2, func(c wl.Ctx) { c.Fork2(f, 0, 0, 1, 0) }, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "core: job 1 task panicked: pushed body failed") ||
		!strings.Contains(err.Error(), "fork2_test.go") {
		t.Fatalf("err = %v, want the pushed body's panic with its stack", err)
	}
}

// TestFork2CancelMidTree: a job cancelled while its Fork2 tree runs
// drains and ends with its cancellation's cause.
func TestFork2CancelMidTree(t *testing.T) {
	var leaf wl.Body
	leaves := 0
	leaf = func(c wl.Ctx, lo, hi int) int {
		if hi-lo > 1 {
			mid := lo + (hi-lo)/2
			a, b := c.Fork2(leaf, lo, mid, mid, hi)
			return a + b
		}
		leaves++ // the engine runs one body at a time
		c.Work(100_000)
		return 1
	}
	const total = 4096
	var sum int
	_, err := fork2Job(t, 2, func(c wl.Ctx) { sum = leaf(c, 0, total) },
		func() error { return cancelledAt(leaves >= 3) })
	if err != errCancelled {
		t.Fatalf("err = %v, want errCancelled", err)
	}
	if leaves >= total || sum >= total {
		t.Fatalf("cancellation did not stop the tree (%d leaves ran, sum %d)", leaves, sum)
	}
}

// TestFork2CancelSkipYieldsZero: on one worker the inline call cancels
// the job, so the join pops the pushed task and skips it. Its result
// is 0, not the 42 that the block's previous generation left.
func TestFork2CancelSkipYieldsZero(t *testing.T) {
	cancelled := false
	f := func(c wl.Ctx, x, _ int) int {
		c.Work(10_000)
		if x == 0 {
			cancelled = true
		}
		return x
	}
	var warm, a, b int
	r, err := fork2Job(t, 1, func(c wl.Ctx) {
		_, warm = c.Fork2(f, 1, 0, 42, 0) // this generation of the pooled block returns 42
		a, b = c.Fork2(f, 0, 0, 42, 0)
	}, func() error { return cancelledAt(cancelled) })
	if err != errCancelled {
		t.Fatalf("err = %v, want errCancelled", err)
	}
	if warm != 42 || a != 0 || b != 0 {
		t.Fatalf("warm-up %d (want 42), cancelled block (%d, %d) (want 0, 0)", warm, a, b)
	}
	if got := fmt.Sprint(r.Tasks, r.Spawns); got != "2 2" {
		t.Fatalf("tasks and spawns %s, want 2 2 (the skipped body not counted)", got)
	}
}
