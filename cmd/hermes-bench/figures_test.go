package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/harness"
	"hermes/internal/units"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figure*.txt from this run")

// quickSession is the one -quick session both tests below draw from:
// whichever runs second finds its runs in the cache.
var quickSession = harness.NewSession(harness.Quick())

func skipSlowFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates figures 6–22 at -quick scale")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; the engine's own tests run with -race")
	}
}

// TestQuickFiguresGolden pins what `hermes-bench -quick -fig N` prints
// for the paper's figures 6–22 (the table, not the wall-clock
// "regenerated in" line) byte-for-byte against testdata/. The figures
// run real kernels through core.Run on the Sim engine, so this is the
// end-to-end oracle for any change that must not move simulated
// results. One session serves all seventeen, as a plain `-quick` run
// does; its cache only skips repeated identical runs. About a minute
// and a half of kernel compute: skipped under -short and under the
// race detector, which would multiply that without adding coverage.
func TestQuickFiguresGolden(t *testing.T) {
	skipSlowFigures(t)
	s := quickSession
	for id := 6; id <= 22; id++ {
		tab, err := s.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		got := tab.String() + "\n"
		path := filepath.Join("testdata", fmt.Sprintf("figure%02d.txt", id))
		if *updateFigures {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("figure %d moved:\n--- got\n%s--- want\n%s", id, got, want)
		}
	}
}

// Paper bands at -quick scale, in percent. The paper reports 11–12 %
// energy saved for 3–4 % time lost, averaged over benchmarks and worker
// counts; these are that claim with the room a quarter-scale input and
// two trials need. Measured when the bands were set (PR 19):
//
//	Figure 6 (SystemA, 20 cells)  +10.6 saved  +5.1 lost
//	Figure 7 (SystemB, 15 cells)  +12.0 saved  +3.7 lost
//	all 35 cells                   11.2 saved   4.5 lost
//
// Figures 10–13 ("each strategy alone ≈ half of unified") are not
// assertable at this scale — single cells read 4.3× and −3.0× — and
// stay open in ROADMAP 5(a).
const (
	figSaveLo, figSaveHi = 9.0, 14.0
	figLossLo, figLossHi = 2.5, 6.0
	allSaveLo, allSaveHi = 10.0, 13.0
	allLossLo, allLossHi = 3.0, 5.0
)

// TestPaperBandsFigures6And7 asserts the paper's headline claim on the
// tables TestQuickFiguresGolden pins: the golden files say the bytes did
// not move, this says they are right. It reads the printed rows (0.1 %
// resolution), from the session the golden test has already filled.
func TestPaperBandsFigures6And7(t *testing.T) {
	skipSlowFigures(t)
	cell := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("not a percentage: %q", s)
		}
		return v
	}
	within := func(what string, v, lo, hi float64) {
		if v < lo || v > hi {
			t.Errorf("%s = %.1f %%, outside [%.1f, %.1f]", what, v, lo, hi)
		}
	}
	var sumSave, sumLoss float64
	cells := 0
	for _, id := range []int{6, 7} {
		tab, err := quickSession.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			save, loss := cell(row[2]), cell(row[3])
			if row[0] == "average" {
				t.Logf("%s average: %+.1f %% saved, %+.1f %% lost", tab.Figure, save, loss)
				within(tab.Figure+" energy saving", save, figSaveLo, figSaveHi)
				within(tab.Figure+" time loss", loss, figLossLo, figLossHi)
				continue
			}
			sumSave += save
			sumLoss += loss
			cells++
		}
	}
	if cells != 35 {
		t.Fatalf("figures 6 and 7 hold %d cells, want 35", cells)
	}
	save, loss := sumSave/float64(cells), sumLoss/float64(cells)
	t.Logf("35-cell mean: %.1f %% saved, %.1f %% lost", save, loss)
	within("35-cell energy saving", save, allSaveLo, allSaveHi)
	within("35-cell time loss", loss, allLossLo, allLossHi)
}

// TestPaperBandsFigures14To17 asserts the orderings the paper states
// for its frequency-selection figures, on per-figure means over cells
// (five benchmarks × the system's worker counts) of the Compare values
// the golden test's session already holds. Measured when written
// (saved / lost, percent):
//
//	Figure 14, SystemA 2.4 GHz + slow  1.4: 11.83/7.52  1.6: 10.65/5.11  1.9: 8.35/1.70
//	Figure 15, SystemB 3.6 GHz + slow  2.1: 18.05/8.95  2.7: 11.97/3.73  3.3: 3.26/2.68
//	Figure 16, 2.4/1.9/1.6 vs 2.4/1.6:  9.80/3.16 vs 10.65/5.11
//	Figure 17, 3.6/3.3/2.7 vs 3.6/2.7:  8.23/2.93 vs 11.97/3.73
//
// Figure 18's static and dynamic saving means (16.81, 16.86) are too
// close to assert the paper's direction; it stays open in ROADMAP 5(a)
// with Figures 10–13.
func TestPaperBandsFigures14To17(t *testing.T) {
	skipSlowFigures(t)
	workers := map[string][]int{"SystemA": {2, 4, 8, 16}, "SystemB": {2, 3, 4}}
	// mean returns Unified's mean saving and loss over sys's cells with
	// tempo frequencies freqs, fastest first.
	mean := func(sys *cpu.Spec, freqs ...units.Freq) (save, loss float64) {
		cells := 0
		for _, b := range bench.All() {
			for _, w := range workers[sys.Name] {
				s, l, _ := quickSession.Compare(harness.Spec{System: sys, Bench: b, Workers: w, Mode: core.Unified, Freqs: freqs})
				save += 100 * s
				loss += 100 * l
				cells++
			}
		}
		save, loss = save/float64(cells), loss/float64(cells)
		t.Logf("%s %v: %.2f %% saved, %.2f %% lost", sys.Name, freqs, save, loss)
		return save, loss
	}
	a, b := cpu.SystemA(), cpu.SystemB()

	// Figures 14 and 15: a lower slow tier saves no less energy and
	// loses no less time.
	for _, fig := range []struct {
		n    int
		sys  *cpu.Spec
		slow []units.Freq // lowest first
	}{
		{14, a, []units.Freq{1400 * units.MHz, 1600 * units.MHz, 1900 * units.MHz}},
		{15, b, []units.Freq{2100 * units.MHz, 2700 * units.MHz, 3300 * units.MHz}},
	} {
		prevSave, prevLoss := mean(fig.sys, fig.sys.MaxFreq(), fig.slow[0])
		for _, slow := range fig.slow[1:] {
			save, loss := mean(fig.sys, fig.sys.MaxFreq(), slow)
			if save > prevSave || loss > prevLoss {
				t.Errorf("Figure %d: slow tier %v saves %.2f %% and loses %.2f %%, more than a lower one (%.2f, %.2f)",
					fig.n, slow, save, loss, prevSave, prevLoss)
			}
			prevSave, prevLoss = save, loss
		}
	}

	// Figures 16 and 17: the 3-frequency set whose middle tier sits
	// above the 2-frequency slow tier loses less time and saves less
	// energy than the 2-frequency set.
	for _, fig := range []struct {
		n          int
		sys        *cpu.Spec
		two, three []units.Freq
	}{
		{16, a, []units.Freq{2400 * units.MHz, 1600 * units.MHz}, []units.Freq{2400 * units.MHz, 1900 * units.MHz, 1600 * units.MHz}},
		{17, b, []units.Freq{3600 * units.MHz, 2700 * units.MHz}, []units.Freq{3600 * units.MHz, 3300 * units.MHz, 2700 * units.MHz}},
	} {
		save2, loss2 := mean(fig.sys, fig.two...)
		save3, loss3 := mean(fig.sys, fig.three...)
		if loss3 >= loss2 || save3 >= save2 {
			t.Errorf("Figure %d: 3 frequencies %.2f %% saved / %.2f %% lost, 2 frequencies %.2f / %.2f; want less of both",
				fig.n, save3, loss3, save2, loss2)
		}
	}
}
