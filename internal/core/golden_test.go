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

// goldenScenarios maps scenario name → dump. Seeds, traces and the
// fault plan are fixed; nothing here reads a clock.
func goldenScenarios(t *testing.T) map[string]string {
	out := map[string]string{}
	mk := func(i int) wl.Task { return poolWork(16 + 8*(i%3)) }
	for _, mode := range []Mode{Baseline, WorkpathOnly, WorkloadOnly, Unified} {
		rec := &recorder{}
		rep := Run(Config{Spec: cpu.SystemB(), Workers: 4, Mode: mode, Seed: 11, Observer: rec}, poolWork(96))
		out["run/"+mode.String()] = goldenDump([]Report{rep}, []error{nil}, rec.events, nil)

		pcfg := Config{Spec: cpu.SystemA(), Workers: 4, Mode: mode, Seed: 5}
		reports, errs, events := tracePool(t, pcfg, goldenArrivals(12, 120*units.Microsecond), mk)
		out["pool/"+mode.String()] = goldenDump(reports, errs, events, nil)

		ccfg := ClusterConfig{
			Machines:  3,
			Machine:   Config{Spec: cpu.SystemB(), Workers: 2, Mode: mode, Seed: 7},
			Placement: randomPlace{},
			Seed:      3,
			Faults: []FaultEvent{
				{At: 1400 * units.Microsecond, Machine: 1, Kind: FaultCrash},
				{At: 1500 * units.Microsecond, Machine: 2, Kind: FaultSlow, Factor: 2},
				{At: 2500 * units.Microsecond, Machine: 1, Kind: FaultRejoin},
			},
		}
		creports, cerrs, cevents, st := traceCluster(t, ccfg, goldenArrivals(12, 60*units.Microsecond), mk)
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
