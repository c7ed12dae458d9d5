package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hermes/internal/harness"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figure*.txt from this run")

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
	if testing.Short() {
		t.Skip("regenerates figures 6–22 at -quick scale")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; the engine's own tests run with -race")
	}
	s := harness.NewSession(harness.Quick())
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
