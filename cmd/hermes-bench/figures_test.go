package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hermes/internal/harness"
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
