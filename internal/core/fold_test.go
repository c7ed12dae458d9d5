package core

import (
	"strings"
	"testing"

	"hermes/internal/units"
	"hermes/internal/wl"
)

// foldScenarios is every golden scenario's dump plus the fault-injected
// cluster trace with gossip, and the cluster trace with no fault plan
// with and without gossip, in all four modes.
func foldScenarios(t *testing.T) map[string]string {
	out := goldenScenarios(t)
	mk := func(i int) wl.Task { return poolWork(16 + 8*(i%3)) }
	for _, mode := range []Mode{Baseline, WorkpathOnly, WorkloadOnly, Unified} {
		for _, sc := range []struct {
			name           string
			faults, gossip bool
		}{{"cluster+gossip/", true, true}, {"calm/", false, false}, {"calm+gossip/", false, true}} {
			cfg := goldenCluster(mode, sc.gossip)
			if !sc.faults {
				cfg.Faults = nil
			}
			reports, errs, events, st := traceCluster(t, cfg, goldenArrivals(12, 60*units.Microsecond), mk)
			out[sc.name+mode.String()] = goldenDump(reports, errs, events, st)
		}
	}
	return out
}

// TestProbeFoldIsInvisible is the invariant the fold of a thief's empty
// probes rests on: every report, error, fleet snapshot and observer
// event is the same whether each probe is an event of its own or the
// probes of empty deques are folded into one wait. Only the engine's
// event count may differ (TestGoldenEventCounts pins both).
func TestProbeFoldIsInvisible(t *testing.T) {
	defer func(on bool) { foldProbes = on }(foldProbes)
	foldProbes = false
	want := foldScenarios(t)
	foldProbes = true
	got := foldScenarios(t)
	for name, dump := range want {
		if got[name] != dump {
			t.Errorf("%s: folding moved the run at line %s", name, firstDiff(got[name], dump))
		}
	}
}

// firstDiff names the first line where two dumps differ, with both
// versions of it.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return strings.Join([]string{"", "folded:   " + g[i], "unfolded: " + w[i]}, "\n")
		}
	}
	return "past the end of the shorter dump"
}
