// Package wl defines the programming interface parallel workloads use
// against the HERMES runtime: Cilk-style fork-join blocks over a
// work-stealing scheduler, plus explicit cost accounting that lets the
// same workload code run on the discrete-event simulator (costs drive
// virtual time) and on the real-concurrency executor (costs drive
// calibrated throttling). Record executes a Task on the host's cores
// and keeps its calls as a Script, whose Task makes the same calls on
// either executor; Worker is unavailable while recording.
//
// Go forks any number of closures. Fork2 forks two calls of one Body
// on ints, which the executors carry in their pooled fork-join block,
// so a Fork2 tree (For's splits, a divide and conquer) allocates
// nothing per spawn. Use Go where the children need more, or differ.
package wl

import "hermes/internal/units"

// Task is a unit of parallel work.
type Task func(Ctx)

// Body is a unit of parallel work that takes two ints and returns one:
// what Fork2 spawns.
type Body func(c Ctx, x, y int) int

// Ctx is the per-task handle into the runtime.
type Ctx interface {
	// Go executes a fork-join block with Cilk spawn semantics: the
	// serial order is tasks[0], tasks[1], …; the runtime pushes
	// tasks[n-1] … tasks[1] onto the worker's deque (so a thief
	// stealing from the head takes the serially-latest, least
	// immediate work) and runs tasks[0] inline, then joins the whole
	// block before returning.
	Go(tasks ...Task)

	// Fork2 is Go with two tasks that call f: f(c, b0, b1) is pushed,
	// f(c, a0, a1) runs inline, and the block is joined before both
	// results return, inline first. It records, schedules and costs
	// exactly as that Go, but the executors allocate nothing for it. A
	// task that a cancelled job skips yields 0.
	Fork2(f Body, a0, a1, b0, b1 int) (int, int)

	// Work accounts c cycles of CPU-bound computation. The cycles
	// retire at the hosting core's current frequency; a DVFS
	// transition mid-task re-rates the remainder. The tasks of one
	// block communicate only through the block's join: on Sim, Work
	// and Mem return at once and are simulated at the body's next
	// fork or return, which no body can tell from being simulated in
	// place.
	Work(c units.Cycles)

	// Mem accounts d of frequency-independent time (memory-bound
	// stalls, which do not speed up or slow down with DVFS).
	Mem(d units.Time)

	// WorkMix accounts c total cycles of which memFrac (0..1) is
	// memory-bound: the memory share is converted to time at the
	// machine's maximum frequency and does not scale with DVFS.
	WorkMix(c units.Cycles, memFrac float64)

	// Worker returns the executing worker's id, for diagnostics. It
	// panics while Record runs the body.
	Worker() int
}

// For runs body(i, j) over [lo, hi) in parallel chunks of at most
// grain elements, using recursive binary splitting — the standard
// Cilk parallel-for skeleton. The serially-first half is the inline
// branch, so deque order preserves work-first immediacy.
func For(c Ctx, lo, hi, grain int, body func(Ctx, int, int)) {
	if grain < 1 {
		grain = 1
	}
	var split Body
	split = func(c Ctx, lo, hi int) int {
		if hi-lo <= grain {
			body(c, lo, hi)
		} else {
			mid := lo + (hi-lo)/2
			c.Fork2(split, lo, mid, mid, hi)
		}
		return 0
	}
	if lo < hi {
		split(c, lo, hi)
	}
}

// Seq runs tasks serially in order on the current worker. It exists so
// workload code can switch a block between parallel and serial without
// restructuring.
func Seq(c Ctx, tasks ...Task) {
	for _, t := range tasks {
		t(c)
	}
}
