package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/obs"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// replayN is a kernel's input size in the replay tests: a fiftieth of
// the figures' and at least 12 000, small but enough for every kernel
// to fork past its grains (sort and compare fork above 36 000 keys).
func replayN(b *bench.Bench) int { return max(b.DefaultN/50, 12_000) }

// simulate runs root under cfg and returns the %#v of its report and
// of its observer stream.
func simulate(cfg core.Config, root wl.Task) (core.Report, string) {
	var events []obs.Event
	cfg.Observer = obs.Func(func(e obs.Event) { events = append(events, e) })
	r := core.Run(cfg, root)
	return r, fmt.Sprintf("%#v\n%#v", r, events)
}

// TestReplayEqualsExecution: simulating a recording gives the report
// and observer stream of simulating the live kernel, for every kernel
// in two modes on both systems, and both runs' outputs verify.
func TestReplayEqualsExecution(t *testing.T) {
	for _, sys := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
		for _, b := range bench.All() {
			for _, mode := range []core.Mode{core.Baseline, core.Unified} {
				cfg := core.Config{Spec: sys, Workers: 3, Mode: mode, Seed: 5}
				live := b.Build(replayN(b), 8)
				_, want := simulate(cfg, live.Root)
				rec := b.Build(replayN(b), 8)
				script := wl.Record(rec.Root)
				r, got := simulate(cfg, script.Task())
				if got != want {
					t.Errorf("%s %s %v: replay differs from live execution", sys.Name, b.Name, mode)
				}
				if r.Tasks != script.Tasks() || r.Spawns != script.Spawns() {
					t.Errorf("%s %s %v: simulated %d tasks, %d spawns; recorded %d, %d",
						sys.Name, b.Name, mode, r.Tasks, r.Spawns, script.Tasks(), script.Spawns())
				}
				if err := live.Check(); err != nil {
					t.Errorf("%s %s live: %v", sys.Name, b.Name, err)
				}
				if err := rec.Check(); err != nil {
					t.Errorf("%s %s recorded: %v", sys.Name, b.Name, err)
				}
			}
		}
	}
}

// TestRecordingsOfOneInputAreEqual: two builds of one input record
// equal scripts, however the host's goroutines shared the bodies. It
// is what lets a Session record an input once for all its trials.
// Scripts are compared by their serial replay, every call with its
// arguments and block structure: a script holds its blocks' replay
// Tasks, and reflect.DeepEqual never finds two funcs equal.
func TestRecordingsOfOneInputAreEqual(t *testing.T) {
	for _, b := range bench.All() {
		n := replayN(b)
		a, c := wl.Record(b.Build(n, 9).Root), wl.Record(b.Build(n, 9).Root)
		if callDigest(a) != callDigest(c) || a.Spawns() != c.Spawns() {
			t.Errorf("%s: two recordings of one input differ", b.Name)
		}
	}
}

// callDigest hashes a script's serial replay: every call with its
// arguments, and each task's place in its block.
func callDigest(s *wl.Script) uint64 {
	h := fnv.New64a()
	s.Task()(callLog{h})
	return h.Sum64()
}

type callLog struct{ h io.Writer }

func (c callLog) Go(tasks ...wl.Task) {
	fmt.Fprintf(c.h, "go %d\n", len(tasks))
	for i, t := range tasks {
		fmt.Fprintf(c.h, "task %d\n", i)
		t(c)
	}
	fmt.Fprint(c.h, "join\n")
}
func (c callLog) Fork2(f wl.Body, a0, a1, b0, b1 int) (a, b int) {
	c.Go(func(c wl.Ctx) { a = f(c, a0, a1) }, func(c wl.Ctx) { b = f(c, b0, b1) })
	return a, b
}
func (c callLog) Work(cy units.Cycles) { fmt.Fprintf(c.h, "w %d\n", cy) }
func (c callLog) Mem(d units.Time)     { fmt.Fprintf(c.h, "m %d\n", int64(d)) }
func (c callLog) WorkMix(cy units.Cycles, f float64) {
	fmt.Fprintf(c.h, "x %d %v\n", cy, f)
}
func (c callLog) Worker() int { return 0 }

// workSpan prices a recorded task at one frequency as the simulator
// prices its segments, each cycle count rounded by DurationAt on its
// own: work is the sum over every task (T₁), span the longest chain
// through the blocks' joins (T∞).
type workSpan struct {
	f          units.Freq
	work, span units.Time
}

func (c *workSpan) Work(cy units.Cycles) { c.Mem(cy.DurationAt(c.f)) }
func (c *workSpan) Mem(d units.Time)     { c.work, c.span = c.work+d, c.span+d }
func (c *workSpan) WorkMix(cy units.Cycles, memFrac float64) {
	mem := units.Cycles(float64(cy) * min(max(memFrac, 0), 1))
	c.Work(cy - mem)
	if mem > 0 {
		c.Mem(mem.DurationAt(c.f))
	}
}
func (c *workSpan) Go(tasks ...wl.Task) {
	var longest units.Time
	for _, t := range tasks {
		k := &workSpan{f: c.f}
		t(k)
		c.work += k.work
		longest = max(longest, k.span)
	}
	c.span += longest
}
func (c *workSpan) Fork2(f wl.Body, a0, a1, b0, b1 int) (a, b int) {
	c.Go(func(c wl.Ctx) { a = f(c, a0, a1) }, func(c wl.Ctx) { b = f(c, b0, b1) })
	return a, b
}
func (c *workSpan) Worker() int { return 0 }

// TestRecordedWorkSpanBounds: no Baseline schedule, which runs every
// core at the maximum frequency, beats the work and span laws of the
// recorded tree: Span ≥ T∞ and Span ≥ T₁/P on P workers.
func TestRecordedWorkSpanBounds(t *testing.T) {
	for _, sys := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
		for _, b := range bench.All() {
			script := wl.Record(b.Build(replayN(b), 10).Root)
			ws := &workSpan{f: sys.MaxFreq()}
			script.Task()(ws)
			for _, p := range workerCounts(sys) {
				r := core.Run(core.Config{Spec: sys, Workers: p, Mode: core.Baseline, Seed: 3}, script.Task())
				if r.Span < ws.span || r.Span < ws.work/units.Time(p) {
					t.Errorf("%s %s P=%d: span %v below a bound: T∞ %v, T₁/P %v",
						sys.Name, b.Name, p, r.Span, ws.span, ws.work/units.Time(p))
				}
			}
		}
	}
}

// TestSessionRecordsEachInputOnce: a Session builds, records and checks
// an input once, on its first use, and simulates every trial of every
// Spec over it; a different NFactor is a second input, and a failing
// Check panics on the input's first use.
func TestSessionRecordsEachInputOnce(t *testing.T) {
	var builds, checks, runs int
	var fail error
	fake := &bench.Bench{Name: "fake", DefaultN: 4000, Build: func(n int, seed int64) bench.Workload {
		builds++
		return bench.Workload{
			Root: func(c wl.Ctx) {
				wl.For(c, 0, n, 500, func(c wl.Ctx, lo, hi int) { c.Work(units.Cycles(1000 * (hi - lo))) })
			},
			Check: func() error { checks++; return fail },
		}
	}}
	s := NewSession(Options{Trials: 3, InputSeed: 5})
	s.Log = func(string) { runs++ }
	var specs []Spec
	for _, sys := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
		for _, mode := range []core.Mode{core.Baseline, core.Unified} {
			specs = append(specs, Spec{System: sys, Bench: fake, Workers: 2, Mode: mode})
		}
	}
	for _, spec := range specs {
		s.Run(spec)
	}
	if builds != 1 || checks != 1 || runs != 3*len(specs) {
		t.Fatalf("%d Specs × 3 trials over one input: %d builds, %d checks, %d runs; want 1, 1, %d",
			len(specs), builds, checks, runs, 3*len(specs))
	}

	spec := specs[0]
	spec.NFactor = 2
	s.Run(spec)
	if builds != 2 || checks != 2 || runs != 3*len(specs)+3 {
		t.Fatalf("a second input: %d builds, %d checks, %d runs", builds, checks, runs)
	}

	fail = errors.New("corrupt output")
	spec.NFactor = 3
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "verification failed") {
			t.Fatalf("a failing Check on first use: recovered %v, want a verification failure", p)
		}
	}()
	s.Run(spec)
}
