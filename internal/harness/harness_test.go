package harness

import (
	"strings"
	"testing"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
)

func tinySession() *Session {
	return NewSession(Options{Trials: 1, Scale: 0.05, InputSeed: 3})
}

func TestRunAndCache(t *testing.T) {
	s := tinySession()
	b, _ := bench.ByName("sort")
	spec := norm(Spec{System: cpu.SystemA(), Bench: b, Workers: 4, Mode: core.Unified})
	a1 := s.Run(spec)
	if a1.Span <= 0 || a1.Energy <= 0 || a1.Trials != 1 {
		t.Fatalf("bad avg: %+v", a1)
	}
	a2 := s.Run(spec)
	if a1.Span != a2.Span || a1.Energy != a2.Energy {
		t.Fatal("cache returned a different result")
	}
}

func TestNormUnifiesKeys(t *testing.T) {
	b, _ := bench.ByName("sort")
	implicit := norm(Spec{System: cpu.SystemA(), Bench: b, Workers: 4, Mode: core.Unified})
	explicit := norm(Spec{System: cpu.SystemA(), Bench: b, Workers: 4, Mode: core.Unified,
		Freqs: core.DefaultFreqs(cpu.SystemA())})
	if implicit.key() != explicit.key() {
		t.Fatalf("keys differ: %q vs %q", implicit.key(), explicit.key())
	}
	base := norm(Spec{System: cpu.SystemA(), Bench: b, Workers: 4, Mode: core.Baseline,
		Freqs: core.DefaultFreqs(cpu.SystemA())})
	if strings.Contains(base.key(), "GHz") {
		t.Fatal("baseline keys must not carry tempo frequencies")
	}
}

func TestCompareDirections(t *testing.T) {
	s := tinySession()
	b, _ := bench.ByName("sort")
	save, loss, edp := s.Compare(norm(Spec{System: cpu.SystemA(), Bench: b, Workers: 8, Mode: core.Unified}))
	if save < -0.5 || save > 0.6 {
		t.Fatalf("implausible saving %v", save)
	}
	if loss < -0.5 || loss > 0.6 {
		t.Fatalf("implausible loss %v", loss)
	}
	if edp <= 0 || edp > 2 {
		t.Fatalf("implausible EDP ratio %v", edp)
	}
}

func TestFigureRegistryComplete(t *testing.T) {
	ids := Figures()
	want := []int{6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22}
	if len(ids) != len(want) {
		t.Fatalf("figures = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("figures[%d] = %d, want %d", i, ids[i], want[i])
		}
	}
	// Open-system experiments are `hermes-bench -sweep` runs, not figures.
	for _, id := range []int{23, 99} {
		if _, err := NewSession(Quick()).Figure(id); err == nil {
			t.Fatalf("figure %d must error", id)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Figure:  "Figure X",
		Title:   "test",
		Columns: []string{"a", "bench"},
		Rows:    [][]string{{"1", "knn"}, {"22", "ray"}},
		Notes:   []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"Figure X", "bench", "22", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bench\n1,knn\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestWorkerCounts(t *testing.T) {
	a := workerCounts(cpu.SystemA())
	if len(a) != 4 || a[3] != 16 {
		t.Fatalf("SystemA workers = %v", a)
	}
	b := workerCounts(cpu.SystemB())
	if len(b) != 3 || b[2] != 4 {
		t.Fatalf("SystemB workers = %v", b)
	}
}

// TestFigure18Tiny regenerates the cheapest figure at tiny scale as an
// end-to-end harness smoke test.
func TestFigure18Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("harness end-to-end is not short")
	}
	s := NewSession(Options{Trials: 1, Scale: 0.04, InputSeed: 2})
	tab, err := s.Figure(18)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 { // 5 benchmarks × 2 worker counts
		t.Fatalf("figure 18 rows = %d", len(tab.Rows))
	}
}

// TestFigure19TraceTiny checks the time-series figure produces sample
// rows.
func TestFigure19TraceTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("harness end-to-end is not short")
	}
	s := NewSession(Options{Trials: 1, Scale: 0.3, InputSeed: 2})
	tab, err := s.Figure(19)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("trace rows = %d, want some samples", len(tab.Rows))
	}
	if len(tab.Columns) != 3 {
		t.Fatalf("trace columns = %v", tab.Columns)
	}
}

func TestPctRatioFormat(t *testing.T) {
	if got := pct(0.123); got != "+12.3%" {
		t.Fatalf("pct = %q", got)
	}
	if got := pct(-0.05); got != "-5.0%" {
		t.Fatalf("pct = %q", got)
	}
	if got := ratio(0.9217); got != "0.922" {
		t.Fatalf("ratio = %q", got)
	}
}

func TestQuickFullOptions(t *testing.T) {
	q := Quick().withDefaults()
	if q.Trials != 2 || q.Scale != 0.25 {
		t.Fatalf("quick = %+v", q)
	}
	f := Full().withDefaults()
	if f.Trials != 5 || f.Scale != 1.0 || f.InputSeed != 42 {
		t.Fatalf("full = %+v", f)
	}
}
