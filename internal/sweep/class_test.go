package sweep

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"hermes"
)

// mixCfg is the canonical 2-class sweep configuration the class tests
// share: the registry's mixed trace (80% heavy-tailed batch, 20%
// small latency-critical) at one over-knee rate.
func mixCfg(dispatch string, quantum time.Duration) Config {
	return Config{
		Workload:       tinySpec(),
		Trace:          "mix",
		Modes:          []hermes.Mode{hermes.Unified},
		RatesRPS:       []float64{800},
		Window:         100 * time.Millisecond,
		Seed:           7,
		Workers:        2,
		Dispatch:       dispatch,
		PreemptQuantum: quantum,
	}
}

// TestSweepFIFOByteCompat is the refactor's compatibility pin: an
// unclassed sweep under the default dispatch must emit byte-identical
// JSON whether dispatch is unset, named "fifo", or predates the class
// dimension entirely — no dispatch, classes or quantum keys may
// appear.
func TestSweepFIFOByteCompat(t *testing.T) {
	cfg := Config{
		Workload: tinySpec(),
		Modes:    []hermes.Mode{hermes.Baseline, hermes.Unified},
		RatesRPS: []float64{200, 800},
		Window:   50 * time.Millisecond,
		Seed:     7,
		Workers:  2,
	}
	unset, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dispatch = "fifo"
	named, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(unset)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(named)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("dispatch \"\" vs \"fifo\" diverged:\n%s\nvs\n%s", ja, jb)
	}
	for _, key := range []string{`"dispatch"`, `"classes"`, `"preempt_quantum_ms"`, `"tenant"`} {
		if strings.Contains(string(ja), key) {
			t.Fatalf("unclassed fifo artifact leaked %s:\n%s", key, ja)
		}
	}
	if unset.ClassCSV() != "" {
		t.Fatal("unclassed sweep rendered a class CSV")
	}
	checkClassTable(t, unset.String(), nil)
}

// TestSweepMixedTraceClassAccounting: a mixed trace must yield
// per-class rows whose counts fold back into the flat point, with SLO
// fields only on the class that declared a target.
func TestSweepMixedTraceClassAccounting(t *testing.T) {
	res, err := Run(mixCfg("", 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.ClassCSV() == "" {
		t.Fatal("mixed sweep rendered no class CSV")
	}
	p := res.Curves[0].Points[0]
	if len(p.Classes) != 2 {
		t.Fatalf("want 2 class rows, got %d: %+v", len(p.Classes), p.Classes)
	}
	var arrivals, completed int64
	byTenant := map[string]ClassPoint{}
	for _, c := range p.Classes {
		arrivals += c.Arrivals
		completed += c.Completed
		byTenant[c.Tenant] = c
	}
	if arrivals != p.Arrivals || completed != p.Completed {
		t.Fatalf("class rows (%d arrivals, %d completed) do not fold into the point (%d, %d)",
			arrivals, completed, p.Arrivals, p.Completed)
	}
	lc, ok := byTenant["lc"]
	if !ok || lc.Priority != 1 {
		t.Fatalf("missing latency-critical row: %+v", p.Classes)
	}
	if lc.SLOTargetMS == nil || *lc.SLOTargetMS != 5 || lc.SLOAttainment == nil {
		t.Fatalf("lc row lost its SLO fields: %+v", lc)
	}
	if *lc.SLOAttainment < 0 || *lc.SLOAttainment > 1 {
		t.Fatalf("SLO attainment out of range: %v", *lc.SLOAttainment)
	}
	batch, ok := byTenant["batch"]
	if !ok || batch.SLOTargetMS != nil || batch.SLOAttainment != nil {
		t.Fatalf("batch row should carry no SLO fields: %+v", batch)
	}
	// Ranked rows lead: priority 1 sorts before priority 0.
	if p.Classes[0].Tenant != "lc" {
		t.Fatalf("class rows out of order: %+v", p.Classes)
	}
	csv := res.ClassCSV()
	if !strings.HasPrefix(csv, "mode,offered_rps,tenant,priority,") {
		t.Fatalf("class CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, ",lc,1,") || !strings.Contains(csv, ",batch,0,") {
		t.Fatalf("class CSV missing rows:\n%s", csv)
	}
	checkClassTable(t, res.String(), p.Classes)
}

// checkClassTable checks that a sweep's table holds one indented row
// per class, in order, each with its tenant, priority, SLO attainment
// ("-" without a target) and J/request.
func checkClassTable(t *testing.T, table string, classes []ClassPoint) {
	t.Helper()
	var rows []string
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "    class ") {
			rows = append(rows, strings.Join(strings.Fields(line), " "))
		}
	}
	if len(rows) != len(classes) {
		t.Fatalf("%d class rows in the table, want %d:\n%s", len(rows), len(classes), table)
	}
	for i, c := range classes {
		slo := "-"
		if c.SLOAttainment != nil {
			slo = fmt.Sprintf("%.4f", *c.SLOAttainment)
		}
		want := fmt.Sprintf("class %s prio %d p50ms %.3f p99ms %.3f slo %s J/req %.4f",
			c.Tenant, c.Priority, c.P50SojournMS, c.P99SojournMS, slo, c.JoulesPerRequest)
		if rows[i] != want {
			t.Fatalf("class row %d is %q, want %q", i, rows[i], want)
		}
	}
}

// TestClusterSweepPrintsClassRows: a cluster sweep's table carries a
// mixed trace's class rows under each point, and an unclassed one none.
func TestClusterSweepPrintsClassRows(t *testing.T) {
	for _, trace := range []string{"mix", ""} {
		res, err := RunCluster(ClusterConfig{
			Workload: tinySpec(),
			Trace:    trace,
			Mode:     hermes.Unified,
			Policies: []hermes.Placement{hermes.PlacementJSQ()},
			Machines: []int{2},
			RatesRPS: []float64{400},
			Window:   30 * time.Millisecond,
			Seed:     7,
			Workers:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Curves[0].Points[0]
		if (trace == "mix") != (len(p.Classes) > 0) {
			t.Fatalf("trace %q: %d class rows", trace, len(p.Classes))
		}
		checkClassTable(t, res.String(), p.Classes)
	}
}

// TestSweepClassedDeterministicArtifact: the class dimension must not
// cost determinism — two identical mixed sweeps under a ranked,
// preempting policy emit byte-identical JSON.
func TestSweepClassedDeterministicArtifact(t *testing.T) {
	cfg := mixCfg("edf", 50*time.Microsecond)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("identical classed sweeps diverged:\n%s\nvs\n%s", ja, jb)
	}
	if a.Dispatch != "edf" || a.PreemptQuantumMS != 0.05 {
		t.Fatalf("artifact lost its dispatch header: dispatch=%q quantum=%vms", a.Dispatch, a.PreemptQuantumMS)
	}
	if a.ClassCSV() != b.ClassCSV() {
		t.Fatal("class CSV renderings of identical sweeps differ")
	}
}

// lcP99 digs the latency-critical class's p99 sojourn out of the
// single-point result.
func lcP99(t *testing.T, res Result) (p99, flatJoules float64) {
	t.Helper()
	p := res.Curves[0].Points[0]
	for _, c := range p.Classes {
		if c.Tenant == "lc" {
			return c.P99SojournMS, p.JoulesPerRequest
		}
	}
	t.Fatalf("no lc class row in %+v", p.Classes)
	return 0, 0
}

// TestRankedDispatchCutsLCTailAtEqualEnergy is the PR's headline
// acceptance pin (the figure-28 claim): on the mixed trace past the
// knee, priority and EDF dispatch give the latency-critical class a
// strictly lower p99 sojourn than FIFO, at approximately equal
// joules/request — the win is reordering, not added energy.
func TestRankedDispatchCutsLCTailAtEqualEnergy(t *testing.T) {
	fifo, err := Run(mixCfg("", 0))
	if err != nil {
		t.Fatal(err)
	}
	fifoP99, fifoJ := lcP99(t, fifo)
	for _, dispatch := range []string{"priority", "edf"} {
		ranked, err := Run(mixCfg(dispatch, 50*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		p99, joules := lcP99(t, ranked)
		if p99 >= fifoP99 {
			t.Fatalf("%s: lc p99 %.3fms not strictly below fifo's %.3fms", dispatch, p99, fifoP99)
		}
		if ratio := joules / fifoJ; ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("%s: joules/request moved %.1f%% vs fifo (%.4f vs %.4f); want ~equal",
				dispatch, (ratio-1)*100, joules, fifoJ)
		}
	}
}
