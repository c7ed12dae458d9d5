package core

import (
	"reflect"
	"strings"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/obs"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// spinTree spawns a binary tree of depth d whose leaves each burn c
// cycles — an irregular-enough workload to exercise stealing.
func spinTree(d int, c units.Cycles) wl.Task {
	var node func(depth int) wl.Task
	node = func(depth int) wl.Task {
		return func(ctx wl.Ctx) {
			if depth == 0 {
				ctx.Work(c)
				return
			}
			ctx.Go(node(depth-1), node(depth-1))
		}
	}
	return node(d)
}

func baseCfg(workers int, mode Mode) Config {
	return Config{Spec: cpu.SystemA(), Workers: workers, Mode: mode, Seed: 1}
}

func TestRunTrivialSpan(t *testing.T) {
	// 24e6 cycles at 2.4 GHz = 10 ms, plus sub-µs overheads.
	r := Run(baseCfg(1, Baseline), func(c wl.Ctx) { c.Work(24_000_000) })
	if r.Span < 10*units.Millisecond || r.Span > 10*units.Millisecond+100*units.Microsecond {
		t.Fatalf("span = %v, want ≈10ms", r.Span)
	}
	if r.Tasks != 1 {
		t.Fatalf("tasks = %d, want 1", r.Tasks)
	}
	if r.EnergyJ <= 0 {
		t.Fatal("no energy integrated")
	}
}

func TestEveryTaskRunsExactlyOnce(t *testing.T) {
	const n = 500
	counts := make([]int, n)
	root := func(c wl.Ctx) {
		wl.For(c, 0, n, 1, func(c wl.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i]++
				c.Work(30_000)
			}
		})
	}
	r := Run(baseCfg(8, Unified), root)
	for i, v := range counts {
		if v != 1 {
			t.Fatalf("element %d ran %d times", i, v)
		}
	}
	if r.Steals == 0 {
		t.Fatal("8-worker parallel-for produced no steals")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Report { return Run(baseCfg(8, Unified), spinTree(8, 120_000)) }
	a, b := run(), run()
	if a.Span != b.Span || a.EnergyJ != b.EnergyJ || a.Steals != b.Steals ||
		a.TempoSwitches != b.TempoSwitches || a.Tasks != b.Tasks {
		t.Fatalf("non-deterministic runs:\n%v\n%v", a, b)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	cfg := baseCfg(8, Unified)
	a := Run(cfg, spinTree(8, 120_000))
	cfg.Seed = 99
	b := Run(cfg, spinTree(8, 120_000))
	// Same total work, different victim choices: spans will differ at
	// sub-percent scale, steals almost surely differ.
	if a.Steals == b.Steals && a.Span == b.Span && a.FailedSteals == b.FailedSteals {
		t.Log("warning: identical schedules across seeds (possible but unlikely)")
	}
	if a.Tasks != b.Tasks {
		t.Fatalf("task counts differ across seeds: %d vs %d", a.Tasks, b.Tasks)
	}
}

func TestParallelSpeedup(t *testing.T) {
	work := spinTree(9, 200_000) // 512 leaves × 200k cycles
	r1 := Run(baseCfg(1, Baseline), work)
	r8 := Run(baseCfg(8, Baseline), work)
	speedup := r1.Span.Seconds() / r8.Span.Seconds()
	if speedup < 5 {
		t.Fatalf("8-worker speedup = %.2fx, want ≥5x (r1=%v r8=%v)", speedup, r1.Span, r8.Span)
	}
}

func TestBaselineNeverLeavesMaxFreq(t *testing.T) {
	r := Run(baseCfg(8, Baseline), spinTree(8, 120_000))
	if r.TempoSwitches != 0 {
		t.Fatalf("baseline made %d tempo switches", r.TempoSwitches)
	}
	if r.SlowBusyTime != 0 {
		t.Fatalf("baseline spent %v busy below max frequency", r.SlowBusyTime)
	}
	for f := range r.FreqBusy {
		if f != cpu.SystemA().MaxFreq() {
			t.Fatalf("baseline busy at %v", f)
		}
	}
}

func TestHermesUsesSlowTempo(t *testing.T) {
	for _, mode := range []Mode{WorkpathOnly, WorkloadOnly, Unified} {
		r := Run(baseCfg(8, mode), spinTree(9, 150_000))
		if r.TempoSwitches == 0 {
			t.Fatalf("%v: no tempo switches", mode)
		}
		if r.SlowBusyTime == 0 {
			t.Fatalf("%v: no busy time below max frequency", mode)
		}
	}
}

// mixTree is a paper-like workload: an uneven task tree whose leaves
// are 80% memory-bound, the regime where DVFS slowdown is cheap (the
// PBBS benchmarks at full-machine scale are bandwidth-bound).
func mixTree(d int, c units.Cycles) wl.Task {
	var node func(depth int, cy units.Cycles) wl.Task
	node = func(depth int, cy units.Cycles) wl.Task {
		return func(ctx wl.Ctx) {
			if depth == 0 {
				ctx.WorkMix(cy, 0.8)
				return
			}
			ctx.Go(
				node(depth-1, cy/3),
				node(depth-1, cy-cy/3),
			)
		}
	}
	return node(d, c)
}

func TestHermesSavesEnergy(t *testing.T) {
	work := mixTree(10, 2_000_000_000)
	base := Run(baseCfg(8, Baseline), work)
	herm := Run(baseCfg(8, Unified), work)
	if herm.EnergyJ >= base.EnergyJ {
		t.Fatalf("hermes energy %.3fJ not below baseline %.3fJ", herm.EnergyJ, base.EnergyJ)
	}
	loss := herm.Span.Seconds()/base.Span.Seconds() - 1
	if loss > 0.15 {
		t.Fatalf("time loss %.1f%% unreasonably high", 100*loss)
	}
	if herm.EDP >= base.EDP {
		t.Fatalf("hermes EDP %.4f not below baseline %.4f", herm.EDP, base.EDP)
	}
}

// TestImmediacyRelayRerating builds the paper's Figure 3 situation at
// run scale: a victim finishes while its thief still holds a long
// stolen task. The relay must raise the thief's tempo mid-task, so the
// span lands strictly between the all-fast and all-slow bounds.
func TestImmediacyRelayRerating(t *testing.T) {
	const bigCycles = 48_000_000 // 20ms at 2.4GHz, 30ms at 1.6GHz
	root := func(c wl.Ctx) {
		c.Go(
			func(c wl.Ctx) { c.Work(2_400_000) }, // victim's own work: 1ms
			func(c wl.Ctx) { c.Work(bigCycles) }, // stolen by the thief
		)
	}
	cfg := baseCfg(2, WorkpathOnly)
	r := Run(cfg, root)
	fast := units.Cycles(bigCycles).DurationAt(2_400_000 * units.KHz)
	slow := units.Cycles(bigCycles).DurationAt(1_600_000 * units.KHz)
	if r.Steals == 0 {
		t.Skip("no steal occurred; scenario needs the second worker to take the big task")
	}
	if r.Span <= fast || r.Span >= slow {
		t.Fatalf("span %v outside (fast %v, slow %v): relay re-rating missing", r.Span, fast, slow)
	}
	// The thief must have run at both frequencies.
	if r.FreqBusy[1_600_000*units.KHz] == 0 {
		t.Fatal("no busy time at slow tempo — procrastination missing")
	}
	if r.FreqBusy[2_400_000*units.KHz] == 0 {
		t.Fatal("no busy time at fast tempo")
	}
}

func TestDynamicSchedulingCostsMore(t *testing.T) {
	work := spinTree(9, 100_000)
	st := Run(Config{Spec: cpu.SystemA(), Workers: 8, Mode: Unified, Seed: 3, Scheduling: Static}, work)
	dy := Run(Config{Spec: cpu.SystemA(), Workers: 8, Mode: Unified, Seed: 3, Scheduling: Dynamic}, work)
	if dy.Span <= st.Span {
		t.Fatalf("dynamic span %v not above static %v", dy.Span, st.Span)
	}
	if dy.EnergyJ <= st.EnergyJ {
		t.Fatalf("dynamic energy %.3fJ not above static %.3fJ", dy.EnergyJ, st.EnergyJ)
	}
}

func TestMemWorkInsensitiveToTempo(t *testing.T) {
	// A purely memory-bound root takes the same time whatever the mode.
	mem := func(c wl.Ctx) { c.Mem(5 * units.Millisecond) }
	b := Run(baseCfg(1, Baseline), mem)
	h := Run(baseCfg(1, Unified), mem)
	if b.Span != h.Span {
		t.Fatalf("mem-bound span differs: %v vs %v", b.Span, h.Span)
	}
}

// TestRunAheadListBounded: a body that never spawns still settles as
// it goes — its pending segments never outgrow pendBound — and every
// cycle it accounted is simulated: 100 000 × 2 400 cycles at 2.4 GHz
// is 100 ms.
func TestRunAheadListBounded(t *testing.T) {
	peak := 0
	r := Run(baseCfg(1, Baseline), func(c wl.Ctx) {
		w := c.(*ctx).w
		for i := 0; i < 100_000; i++ {
			c.Work(2_400)
			peak = max(peak, len(w.pend)-w.base)
		}
	})
	if peak >= pendBound || peak == 0 {
		t.Fatalf("pending list peaked at %d segments, bound %d", peak, pendBound)
	}
	if r.Span < 100*units.Millisecond || r.Span > 100*units.Millisecond+100*units.Microsecond {
		t.Fatalf("span = %v, want ≈100ms", r.Span)
	}
}

func TestWorkMixSplits(t *testing.T) {
	// 24e6 cycles, half memory-bound: CPU half 5ms + mem half 5ms at
	// max frequency = 10ms on baseline.
	r := Run(baseCfg(1, Baseline), func(c wl.Ctx) { c.WorkMix(24_000_000, 0.5) })
	if r.Span < 10*units.Millisecond || r.Span > 10*units.Millisecond+100*units.Microsecond {
		t.Fatalf("span = %v, want ≈10ms", r.Span)
	}
}

func TestSystemBRuns(t *testing.T) {
	cfg := Config{Spec: cpu.SystemB(), Workers: 4, Mode: Unified, Seed: 7}
	r := Run(cfg, spinTree(8, 150_000))
	if r.System != "SystemB" || r.Workers != 4 {
		t.Fatalf("report header wrong: %v %d", r.System, r.Workers)
	}
	if r.EnergyJ <= 0 || r.Span <= 0 {
		t.Fatal("empty report")
	}
}

func TestWorkerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: 17 workers on 16 domains")
		}
	}()
	Run(Config{Spec: cpu.SystemA(), Workers: 17}, func(wl.Ctx) {})
}

// TestRunTaskPanicPropagates: a panicking task fails Run's one job, and
// Run re-raises the job's error — the task's panic value and its stack —
// after the machine has shut down.
func TestRunTaskPanicPropagates(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("Run did not re-raise the task panic with its stack: %v", err)
		}
	}()
	Run(baseCfg(4, Unified), func(c wl.Ctx) {
		c.Go(func(c wl.Ctx) { c.Work(100_000) }, func(wl.Ctx) { panic("boom") })
	})
}

func TestFreqValidation(t *testing.T) {
	cases := []Config{
		{Spec: cpu.SystemA(), Workers: 2, Mode: Unified, Freqs: []units.Freq{2_400_000 * units.KHz, 2_000_000 * units.KHz}},                        // unsupported slow
		{Spec: cpu.SystemA(), Workers: 2, Mode: Unified, Freqs: []units.Freq{1_600_000 * units.KHz, 1_400_000 * units.KHz}},                        // fastest ≠ max
		{Spec: cpu.SystemA(), Workers: 2, Mode: Unified, Freqs: []units.Freq{2_400_000 * units.KHz}},                                               // single freq with tempo
		{Spec: cpu.SystemA(), Workers: 2, Mode: Unified, Freqs: []units.Freq{2_400_000 * units.KHz, 1_600_000 * units.KHz, 1_900_000 * units.KHz}}, // not descending
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected config panic", i)
				}
			}()
			Run(cfg, func(wl.Ctx) {})
		}()
	}
}

func TestNFrequencyControl(t *testing.T) {
	// 3-frequency tempo control must put busy time on all three levels
	// for a deep-stealing workload.
	cfg := Config{
		Spec: cpu.SystemA(), Workers: 8, Mode: Unified, Seed: 5,
		Freqs: []units.Freq{2_400_000 * units.KHz, 1_900_000 * units.KHz, 1_600_000 * units.KHz},
	}
	r := Run(cfg, spinTree(10, 150_000))
	if r.FreqBusy[1_900_000*units.KHz] == 0 {
		t.Fatal("no busy time at the middle tempo")
	}
}

func TestMeterAgreesWithIntegral(t *testing.T) {
	r := Run(baseCfg(8, Unified), spinTree(10, 2_000_000))
	if r.Span < 100*units.Millisecond {
		t.Fatalf("test workload too short for meter comparison: %v", r.Span)
	}
	rel := (r.MeterJ - r.EnergyJ) / r.EnergyJ
	if rel < -0.1 || rel > 0.1 {
		t.Fatalf("meter %.3fJ vs integral %.3fJ (%.1f%%)", r.MeterJ, r.EnergyJ, 100*rel)
	}
}

func TestReportString(t *testing.T) {
	r := Run(baseCfg(2, Unified), spinTree(4, 100_000))
	s := r.String()
	if len(s) == 0 {
		t.Fatal("empty report string")
	}
}

func TestGoZeroAndOne(t *testing.T) {
	ran := 0
	r := Run(baseCfg(2, Baseline), func(c wl.Ctx) {
		c.Go()
		c.Go(func(wl.Ctx) { ran++ })
		wl.Seq(c, func(wl.Ctx) { ran++ }, func(wl.Ctx) { ran++ })
	})
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
	if r.Spawns != 0 {
		t.Fatalf("inline-only blocks must not spawn (got %d)", r.Spawns)
	}
}

// TestRunIsOneJobAtZero pins Run to the job-stream path: the same root
// submitted At: 0 to a one-machine cluster gives the same Report and
// the same observer stream. Two things are Run's own. The four energy
// fields are the machine's ledger over [0, completion], not the job's
// attributed share, and EnergyJ is bit-for-bit the joules the cluster's
// fleet snapshot froze at that completion. And Run shuts the machine
// down the instant the job completes, so its stream is the cluster's
// cut there: what the cluster emits afterwards is the idle machine
// spinning down (tempo switches, their DVFS commits, meter samples),
// never another job event. If a second start-up path grows back under
// Run, this is the test that fails.
func TestRunIsOneJobAtZero(t *testing.T) {
	machineOnly := func(r Report) Report {
		r.EnergyJ, r.MeterJ, r.EDP, r.AvgPowerW = 0, 0, 0, 0
		return r
	}
	for _, mode := range []Mode{Baseline, WorkpathOnly, WorkloadOnly, Unified} {
		cfg := Config{Spec: cpu.SystemB(), Workers: 4, Mode: mode, Seed: 11}
		rec := &recorder{}
		rcfg := cfg
		rcfg.Observer = rec
		run := Run(rcfg, poolWork(96))

		reports, errs, events, st := traceCluster(t,
			ClusterConfig{Machines: 1, Machine: cfg, Placement: pinPlace{}},
			[]units.Time{0}, func(int) wl.Task { return poolWork(96) })
		if errs[0] != nil {
			t.Fatalf("%v: cluster job failed: %v", mode, errs[0])
		}
		if a, b := machineOnly(run), machineOnly(reports[0]); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: Run and a job at t = 0 disagree:\n%#v\n%#v", mode, a, b)
		}
		if run.EnergyJ != st.Machines[0].EnergyJ {
			t.Errorf("%v: Run.EnergyJ = %v, machine ledger at completion = %v", mode, run.EnergyJ, st.Machines[0].EnergyJ)
		}

		if len(rec.events) == 0 || len(rec.events) > len(events) {
			t.Fatalf("%v: Run emitted %d events, the cluster %d", mode, len(rec.events), len(events))
		}
		sawDone := false
		for i, e := range rec.events {
			if e != events[i] {
				t.Fatalf("%v: event %d diverged: %+v vs %+v", mode, i, e, events[i])
			}
			sawDone = sawDone || e.Kind == obs.JobDone
		}
		if !sawDone {
			t.Errorf("%v: Run's stream carries no JobDone", mode)
		}
		for _, e := range events[len(rec.events):] {
			if e.Kind == obs.JobStart || e.Kind == obs.JobDone || e.Kind == obs.Steal {
				t.Errorf("%v: cluster event after Run's shutdown point is not spin-down: %+v", mode, e)
			}
		}
	}
}
