package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/obs"
	"hermes/internal/units"
	"hermes/internal/wl"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

const goldenPath = "testdata/golden.txt"

// goldenDump renders everything a scenario produced in Go syntax (%#v
// bypasses units.Time's rounding String method, prints floats in
// shortest round-trip form and maps in key order), so one digest pins
// every field of every report, error and observer event.
func goldenDump(reports []Report, errs []error, events []obs.Event, stats any) string {
	var b strings.Builder
	for i, r := range reports {
		fmt.Fprintf(&b, "report %d err=%v\n%#v\n", i, errs[i], r)
	}
	fmt.Fprintf(&b, "stats %#v\n", stats)
	for i, e := range events {
		fmt.Fprintf(&b, "event %d %#v\n", i, e)
	}
	return b.String()
}

// goldenArrivals is the fixed trace of the pool and cluster scenarios.
// The first arrival lands at 1 ms, well after the start-up event tail
// (idle workers filing their spin-down, 50 µs DVFS commits), so the
// outcome does not depend on whether the batch reaches the engine
// before or after that tail — the oracle holds on either side of a
// change to start-up ordering.
func goldenArrivals(n int, gap units.Time) []units.Time {
	ats := make([]units.Time, n)
	for i := range ats {
		ats[i] = units.Millisecond + units.Time(i)*gap
	}
	return ats
}

// goldenPool is the pool scenario: twelve jobs of three sizes, 120 µs
// apart, on four SystemA workers.
func goldenPool(t *testing.T, mode Mode) ([]Report, []error, []obs.Event, *Cluster) {
	cfg := Config{Spec: cpu.SystemA(), Workers: 4, Mode: mode, Seed: 5}
	mk := func(i int) wl.Task { return poolWork(16 + 8*(i%3)) }
	return traceClassed(t, cfg, goldenArrivals(12, 120*units.Microsecond), mk, func(int) Class { return Class{} })
}

// goldenQuantum is the scenario that pins settle's slice path: an
// overloaded pool trace under EDF dispatch, every third job on a tight
// deadline, and a quantum a third of one leaf's CPU segment (280k
// cycles, ≥ 100 µs on SystemA). The job bodies are poolWork's with a
// probe for a root that starts with its worker inside a preemption, and
// the machine counts the other thing the scenario exists for: a CPU
// segment cut short by a clock change and re-rated in flight (a DVFS
// commit waking the worker in the middle of a slice). Every mode must
// show the first, every mode that moves frequencies the second.
func goldenQuantum(t *testing.T, mode Mode) string {
	var preempts int
	mk := func(i int) wl.Task {
		return func(c wl.Ctx) {
			if c.(*ctx).w.preemptDepth > 0 {
				preempts++
			}
			wl.For(c, 0, 16+8*(i%3), 2, func(c wl.Ctx, lo, hi int) {
				cy := units.Cycles(200_000 * (hi - lo))
				mem := units.Cycles(float64(cy) * 0.3)
				c.Work(cy - mem)
				c.Mem(mem.DurationAt(c.(*ctx).w.s.cfg.Spec.MaxFreq()))
			})
		}
	}
	class := func(i int) Class {
		if i%3 == 2 {
			return Class{Tenant: "lc", Deadline: 400 * units.Microsecond}
		}
		return Class{Tenant: "batch", Deadline: 20 * units.Millisecond}
	}
	cfg := Config{Spec: cpu.SystemA(), Workers: 4, Mode: mode, Seed: 9,
		Dispatch: DispatchEDF, PreemptQuantum: 30 * units.Microsecond}
	reports, errs, events, c := traceClassed(t, cfg, goldenArrivals(12, 100*units.Microsecond), mk, class)
	if rerates := c.ms[0].rerates; preempts == 0 || (mode != Baseline && rerates == 0) {
		t.Errorf("quantum/%v: %d preemptions, %d mid-segment re-rates; the scenario must show both", mode, preempts, rerates)
	}
	return goldenDump(reports, errs, events, nil)
}

// goldenCluster is the fault-injected cluster scenario's config: three
// two-worker SystemB machines behind random placement, one crashing
// and rejoining and one slowed, with the gossip tier if asked for.
func goldenCluster(mode Mode, gossip bool) ClusterConfig {
	return ClusterConfig{
		Machines:  3,
		Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: mode, Seed: 7},
		Placement: randomPlace{},
		Gossip:    gossip,
		Faults: []FaultEvent{
			{At: 1400 * units.Microsecond, Machine: 1, Kind: FaultCrash},
			{At: 1500 * units.Microsecond, Machine: 2, Kind: FaultSlow, Factor: 2},
			{At: 2500 * units.Microsecond, Machine: 1, Kind: FaultRejoin},
		},
	}
}

// goldenScenarios maps scenario name → dump. Seeds, traces and the
// fault plan are fixed; nothing here reads a clock.
func goldenScenarios(t *testing.T) map[string]string {
	out := map[string]string{}
	mk := func(i int) wl.Task { return poolWork(16 + 8*(i%3)) }
	for _, mode := range []Mode{Baseline, WorkpathOnly, WorkloadOnly, Unified} {
		rec := &recorder{}
		rep := Run(Config{Spec: cpu.SystemB(), Workers: 4, Mode: mode, Seed: 11, Observer: rec}, poolWork(96))
		out["run/"+mode.String()] = goldenDump([]Report{rep}, []error{nil}, rec.events, nil)

		reports, errs, events, _ := goldenPool(t, mode)
		out["pool/"+mode.String()] = goldenDump(reports, errs, events, nil)
		out["quantum/"+mode.String()] = goldenQuantum(t, mode)

		creports, cerrs, cevents, st := traceCluster(t, goldenCluster(mode, false), goldenArrivals(12, 60*units.Microsecond), mk)
		out["cluster/"+mode.String()] = goldenDump(creports, cerrs, cevents, st)
	}
	return out
}

// TestGoldenReports is the refactoring oracle for everything under the
// scheduler: one Run, one pool trace and one fault-injected
// cluster trace per tempo mode, each digested whole (reports, errors,
// fleet stats, full observer stream) against testdata/golden.txt. A
// change that is meant to keep simulated behaviour — an engine swap, a
// driver merge — must pass it untouched; a change that is meant to move
// it regenerates the file with -update and says so.
func TestGoldenReports(t *testing.T) {
	scenarios := goldenScenarios(t)
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# scenario sha256 lines — go test ./internal/core -run TestGoldenReports -update\n")
	for _, name := range names {
		dump := scenarios[name]
		fmt.Fprintf(&b, "%s %x %d\n", name, sha256.Sum256([]byte(dump)), strings.Count(dump, "\n"))
	}
	got := b.String()

	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("simulated behaviour moved:\n--- got\n%s--- %s\n%s", got, goldenPath, want)
	}
}

// TestGoldenEventCounts pins the engine's work, event for event —
// stronger than the digest, which cannot see an event that changes
// nothing — under the pool scenario and the fault-injected cluster
// scenario, the latter with and without the gossip tier, so the
// profiler, DVFS, gossip and fault daemons are pinned beside the
// workers. Each scenario runs twice: as the scheduler runs it, with a
// thief's probes of empty deques folded into one wait, and with the
// fold off, every probe an event of its own (foldProbes); the
// difference is the probes the fold removes, and TestProbeFoldIsInvisible
// holds that it removes nothing else. The resumes column is a ceiling:
// a worker resumes only to run a task or at the end of a settled frame,
// the daemons never, and folding resumes nobody. A change that resumes
// processes more often, or adds, drops or folds an event, fails here.
func TestGoldenEventCounts(t *testing.T) {
	defer func(on bool) { foldProbes = on }(foldProbes)
	mk := func(i int) wl.Task { return poolWork(16 + 8*(i%3)) }
	run := func(scenario string, mode Mode) (events, resumes uint64) {
		var c *Cluster
		if scenario == "pool" {
			_, _, _, c = goldenPool(t, mode)
		} else {
			ccfg := goldenCluster(mode, scenario == "cluster+gossip")
			_, _, _, c = runClusterTrace(t, ccfg, goldenArrivals(12, 60*units.Microsecond), mk)
		}
		events, resumes, _ = c.EngineStats()
		return events, resumes
	}
	for _, tc := range []struct {
		scenario                  string
		mode                      Mode
		events, unfolded, resumes uint64
	}{
		{"pool", Baseline, 687, 743, 262},
		{"pool", Unified, 845, 927, 222},
		// Two workers a machine: a round is one probe, its last, so
		// there is nothing to fold.
		{"cluster", Unified, 825, 825, 230},
		{"cluster+gossip", Unified, 890, 890, 255},
	} {
		foldProbes = true
		events, resumes := run(tc.scenario, tc.mode)
		foldProbes = false
		unfolded, _ := run(tc.scenario, tc.mode)
		if events != tc.events || unfolded != tc.unfolded {
			t.Errorf("%s/%v: %d events dispatched, %d with every probe an event; recorded %d and %d",
				tc.scenario, tc.mode, events, unfolded, tc.events, tc.unfolded)
		}
		if resumes > tc.resumes {
			t.Errorf("%s/%v: %d coroutine resumes, above the recorded %d", tc.scenario, tc.mode, resumes, tc.resumes)
		}
	}
}
