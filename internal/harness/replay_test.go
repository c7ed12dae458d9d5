package harness

import (
	"fmt"
	"reflect"
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
				runs := b.Factory(replayN(b), 8)
				live := runs()
				_, want := simulate(cfg, live.Root)
				rec := runs()
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

// TestRecordingsOfOneInputAreEqual: two runs over one input record
// equal scripts, however the host's goroutines shared the bodies.
func TestRecordingsOfOneInputAreEqual(t *testing.T) {
	for _, b := range bench.All() {
		runs := b.Factory(replayN(b), 9)
		if a, c := wl.Record(runs().Root), wl.Record(runs().Root); !reflect.DeepEqual(a, c) {
			t.Errorf("%s: two recordings of one input differ", b.Name)
		}
	}
}

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
func (c *workSpan) Worker() int { return 0 }

// TestRecordedWorkSpanBounds: no Baseline schedule, which runs every
// core at the maximum frequency, beats the work and span laws of the
// recorded tree: Span ≥ T∞ and Span ≥ T₁/P on P workers.
func TestRecordedWorkSpanBounds(t *testing.T) {
	for _, sys := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
		for _, b := range bench.All() {
			runs := b.Factory(replayN(b), 10)
			script := wl.Record(runs().Root)
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
