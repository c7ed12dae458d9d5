package workload

import (
	"fmt"

	"hermes/internal/bench"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// The built-in catalog, in presentation order: the synthetic request
// workloads first (ported from the old internal/synth), then the
// scheduler hot-path fixpoints the benchmark's Native workloads and
// rungs run, then the paper's figure benchmarks (internal/bench).
func init() {
	catalog = []Def{{
		Name:     "fib",
		Desc:     "binary fib recursion with serial cutoff; every node accounts work cycles",
		Defaults: Spec{N: 18, Grain: 10, Work: 20_000},
		MaxN:     32,
		Build: func(s Spec) (wl.Task, error) {
			fib := s.fib()
			return func(c wl.Ctx) { fib(c, s.N, 0) }, nil
		},
	}, {
		Name:     "matmul",
		Desc:     "dense N×N multiply parallelized over rows; each element accounts work cycles",
		Defaults: Spec{N: 64, Grain: 8, Work: 1_500, MemFrac: 0.3},
		MaxN:     2048,
		Build:    func(s Spec) (wl.Task, error) { return s.matmul(), nil },
	}, {
		Name:     "ticks",
		Desc:     "flat loop of N independent units of work cycles each — a batch of homogeneous requests",
		Defaults: Spec{N: 256, Grain: 16, Work: 100_000},
		MaxN:     1 << 20,
		Build:    func(s Spec) (wl.Task, error) { return s.ticks(), nil },
	}, {
		Name:     "spawnjoin",
		Desc:     "hot-path fixpoint: N two-way fork-join blocks with no-op bodies (pure scheduler hot path)",
		Defaults: Spec{N: 4096},
		MaxN:     1 << 20,
		Build:    func(s Spec) (wl.Task, error) { return spawnJoinLoop(s.N), nil },
	}, {
		Name:     "fibtree",
		Desc:     "hot-path fixpoint: real fib(n) spawn tree with serial cutoff grain, checked against the sequential reference",
		Defaults: Spec{N: 21, Grain: 12},
		MaxN:     32,
		Build: func(s Spec) (wl.Task, error) {
			want, fib := serialFib(s.N), fibTree(s.Grain)
			return func(c wl.Ctx) {
				if got := fib(c, s.N, 0); got != want {
					panic(fmt.Sprintf("workload: fibtree(%d) = %d, want %d", s.N, got, want))
				}
			}, nil
		},
	}}
	// The figure benchmarks run real computation on a deterministic
	// seeded instance and verify their output inside the task, so a
	// wrong answer fails the job instead of returning silently. The
	// defaults are service-sized (well under the figure-scale inputs
	// the harness uses); MaxN caps requests at figure scale.
	for _, b := range bench.All() {
		catalog = append(catalog, Def{
			Name:     b.Name,
			Desc:     b.Desc,
			Defaults: Spec{N: benchDefaultN[b.Name], Seed: 42},
			MaxN:     b.DefaultN,
			Build:    benchBuild(b),
		})
	}
}

// benchDefaultN holds the service-sized default input per figure
// benchmark — small enough that one request completes in milliseconds
// on either backend.
var benchDefaultN = map[string]int{
	"knn":     4_000,
	"ray":     4_000,
	"sort":    100_000,
	"compare": 50_000,
	"hull":    50_000,
}

// benchBuild wraps one figure benchmark as a self-verifying task.
func benchBuild(b *bench.Bench) func(Spec) (wl.Task, error) {
	return func(s Spec) (wl.Task, error) {
		w := b.Build(s.N, s.Seed)
		return func(c wl.Ctx) {
			w.Root(c)
			if w.Check != nil {
				if err := w.Check(); err != nil {
					panic(fmt.Sprintf("workload: %s(n=%d seed=%d) check failed: %v", b.Name, s.N, s.Seed, err))
				}
			}
		}, nil
	}
}

// spawnJoinLoop returns a root task performing ops two-way fork-join
// blocks with no-op bodies: the steady-state PUSH + POP/STEAL + join
// cycle with everything else stripped away. The pair slice is hoisted
// so the workload measures the runtime's allocations, not the
// caller's variadic.
func spawnJoinLoop(ops int) wl.Task {
	noop := func(wl.Ctx) {}
	pair := []wl.Task{noop, noop}
	return func(c wl.Ctx) {
		for i := 0; i < ops; i++ {
			c.Go(pair...)
		}
	}
}

// fibTree returns a Body computing fib(n) as a binary spawn tree with
// a serial cutoff — the paper's fine-grained stress whose
// task-boundary rate exposes any lock or allocation on the scheduler
// hot path. Its spawns are Fork2s, so the tree allocates nothing and
// the result comes back through the joins for validation against
// serialFib.
func fibTree(cutoff int) wl.Body {
	var fib wl.Body
	fib = func(c wl.Ctx, n, _ int) int {
		if n < cutoff {
			return serialFib(n)
		}
		a, b := c.Fork2(fib, n-1, 0, n-2, 0)
		return a + b
	}
	return fib
}

// serialFib is the sequential reference.
func serialFib(n int) int {
	if n < 2 {
		return n
	}
	a, b := 0, 1
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

// fib returns the canonical binary recursion as a Body of n: every
// node accounts work cycles, and subtrees of height <= Grain run
// serially on the owning worker (the usual Cilk granularity control).
func (s Spec) fib() wl.Body {
	work, memFrac, cutoff := s.Work, s.MemFrac, s.Grain
	var fib wl.Body
	fib = func(c wl.Ctx, n, _ int) int {
		c.WorkMix(work, memFrac)
		if n < 2 {
			return 0
		}
		if n <= cutoff {
			fibSerial(c, n-1, work, memFrac)
			fibSerial(c, n-2, work, memFrac)
		} else {
			c.Fork2(fib, n-1, 0, n-2, 0)
		}
		return 0
	}
	return fib
}

func fibSerial(c wl.Ctx, n int, work units.Cycles, memFrac float64) {
	c.WorkMix(work, memFrac)
	if n < 2 {
		return
	}
	fibSerial(c, n-1, work, memFrac)
	fibSerial(c, n-2, work, memFrac)
}

// matmul models a dense N×N multiply parallelized over rows: each row
// accounts N·work cycles with the spec's memory fraction (dense
// kernels stall on loads, so the default mixes in 30%).
func (s Spec) matmul() wl.Task {
	n, work, memFrac := s.N, s.Work, s.MemFrac
	return func(c wl.Ctx) {
		wl.For(c, 0, n, s.Grain, func(c wl.Ctx, lo, hi int) {
			for range hi - lo {
				c.WorkMix(units.Cycles(n)*work, memFrac)
			}
		})
	}
}

// ticks is a flat loop of N independent units of work cycles each —
// the shape of a batch of homogeneous service requests.
func (s Spec) ticks() wl.Task {
	n, work, memFrac := s.N, s.Work, s.MemFrac
	return func(c wl.Ctx) {
		wl.For(c, 0, n, s.Grain, func(c wl.Ctx, lo, hi int) {
			for range hi - lo {
				c.WorkMix(work, memFrac)
			}
		})
	}
}
