package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ciArtifacts are the Sim artifacts that CI's sim-load, sweep,
// class-sweep, cluster-sweep and chaos-sweep jobs make, each with its
// CI command line: testdata/ci/<dir> holds the files it writes.
var ciArtifacts = []struct{ dir, cmd string }{
	{"sim-load", "-sweep -workload ticks -rates 150 -modes unified -duration 2s -seed 7 -json sim-load-a.json"},
	{"sweep", "-sweep -workload ticks -n 64 -work 100000 -rates 50,100,200,400 -modes baseline,unified " +
		"-duration 500ms -seed 7 -workers 4 -json SWEEP_sim.json -csv sweep-csv"},
	{"mmpp", "-sweep -trace mmpp -workload ticks -n 64 -work 100000 -rates 200 -modes unified " +
		"-duration 500ms -seed 7 -workers 4 -json SWEEP_mmpp.json"},
	{"pareto", "-sweep -trace pareto -workload ticks -n 64 -work 100000 -rates 200 -modes unified " +
		"-duration 500ms -seed 7 -workers 4 -json SWEEP_pareto.json"},
	{"classes", "-sweep -trace mix -workload ticks -n 64 -work 100000 -dispatch edf -quantum 50us " +
		"-rates 100,200,400,800 -modes unified -duration 500ms -seed 7 -workers 4 " +
		"-json SWEEP_classes.json -csv class-csv"},
	{"cluster-classes", "-sweep -trace mix -workload ticks -n 64 -work 100000 -machines 2 -placement p2c " +
		"-dispatch edf -quantum 50us -rates 100,200,400,800 -modes unified -duration 500ms -seed 7 " +
		"-workers 4 -json SWEEP_cluster_classes.json -csv class-csv"},
	{"cluster", "-sweep -workload ticks -n 128 -grain 4 -work 200000 -machines 2,4 -placement p2c,gossip " +
		"-rates 300,600 -modes unified -duration 30ms -seed 7 -workers 2 -json SWEEP_cluster.json -csv cluster-csv"},
	{"chaos", "-sweep -workload ticks -n 128 -grain 4 -work 200000 -machines 2,4 -placement p2c,gossip " +
		"-rates 300,600 -modes unified -duration 30ms -seed 7 -workers 2 -faults crash,failslow " +
		"-json SWEEP_chaos.json"},
}

// TestCIArtifactsGolden runs each CI artifact command in-process, its
// -json and -csv paths moved into a temporary directory, and compares
// every file it writes byte for byte with testdata/ci/<dir>. CI runs
// the same commands twice and diffs the runs; this test pins them
// against the previous commit as well. -update rewrites testdata/ci.
func TestCIArtifactsGolden(t *testing.T) {
	for _, a := range ciArtifacts {
		out := t.TempDir()
		args := strings.Fields(a.cmd)
		for i, arg := range args {
			if arg == "-json" || arg == "-csv" {
				args[i+1] = filepath.Join(out, args[i+1])
			}
		}
		if code := run(args); code != 0 {
			t.Fatalf("%s: hermes-bench %s exited %d", a.dir, a.cmd, code)
		}
		golden := filepath.Join("testdata", "ci", a.dir)
		if *update {
			if err := os.RemoveAll(golden); err != nil {
				t.Fatal(err)
			}
			if err := os.CopyFS(golden, os.DirFS(out)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, want := readTree(t, out), readTree(t, golden)
		for name, body := range got {
			if w, ok := want[name]; !ok {
				t.Errorf("%s: %s is not in %s", a.dir, name, golden)
			} else if !bytes.Equal(body, w) {
				t.Errorf("%s: %s differs from %s (rerun with -update only for a change meant to move it)",
					a.dir, name, golden)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: the run wrote no %s", a.dir, name)
			}
		}
	}
}

// readTree returns every regular file under dir by its slash path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := fs.WalkDir(os.DirFS(dir), ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		files[path], err = os.ReadFile(filepath.Join(dir, path))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
