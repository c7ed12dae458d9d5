package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runSet is what -repeat writes and -compare reads: every run's value
// of every metric, by workload.
type runSet struct {
	Host    fingerprint                     `json:"host"`
	Seconds float64                         `json:"seconds"`
	Runs    map[string]map[string][]float64 `json:"runs"`
}

// repeatRuns runs each workload opt.repeat times, each in a fresh
// process and on its own seed (seed, seed+1, …), and prints for every
// metric the median, the quartiles and the spread — the distance
// between the quartiles as a share of the median, the figure a bound
// has to be at least three times.
func repeatRuns(stdout, stderr io.Writer, spec *benchSpec, fp fingerprint, opt options) error {
	names, err := prepareChildren(spec, &opt)
	if err != nil {
		return err
	}
	set := runSet{Host: fp, Seconds: opt.seconds, Runs: map[string]map[string][]float64{}}
	declared := spec.EndToEnd
	if opt.trace == 1 {
		declared = spec.PerLayer
	}
	for _, name := range names {
		vals := map[string][]float64{}
		for i := 0; i < opt.repeat; i++ {
			res, err := childRun(stderr, opt, name, opt.seed+int64(i), opt.trace)
			if err != nil {
				return err
			}
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
			fmt.Fprintf(stderr, "benchmark: %s run %d/%d done\n", name, i+1, opt.repeat)
		}
		set.Runs[name] = vals
		fmt.Fprintf(stdout, "%s — %d runs, seeds %d..%d, window %gs\n", name, opt.repeat, opt.seed, opt.seed+int64(opt.repeat)-1, opt.seconds)
		fmt.Fprintf(stdout, "  %-36s %-7s %14s %14s %14s %9s %7s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, m := range declared {
			q1, q3 := quartiles(vals[m.Name])
			bound := ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.3f", m.Bound)
			}
			fmt.Fprintf(stdout, "  %-36s %-7s %14.6g %14.6g %14.6g %8.2f%% %7s\n",
				m.Name, m.Unit, median(vals[m.Name]), q1, q3, 100*spread(vals[m.Name]), bound)
		}
	}
	if opt.jsonOut != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(opt.jsonOut, append(data, '\n'), 0o644)
	}
	return nil
}

// verdict is the outcome of comparing one metric on one workload.
type verdict struct {
	a, b   float64 // medians
	worse  float64 // how much worse b's median is, as a share of a's; negative is better
	spread float64 // the wider of the two sets' spreads
	word   string  // worse, same or unresolved
}

// judge applies a metric's bound to two sets of runs of it. The
// second set is worse when its median is worse than the first's by
// more than the bound. When the runs of either set spread wider than
// the bound the difference cannot be told from noise, so the verdict
// is unresolved — unless every run of the second set reads better than
// every run of the first.
func judge(m metricSpec, a, b []float64) verdict {
	v := verdict{a: median(a), b: median(b)}
	if v.a != 0 {
		v.worse = (v.b - v.a) / math.Abs(v.a)
	}
	if m.Better == "higher" {
		v.worse = -v.worse
	}
	v.spread = max(spread(a), spread(b))
	switch {
	case v.spread > m.Bound && !allBetter(m, a, b):
		v.word = "unresolved"
	case v.worse > m.Bound:
		v.word = "worse"
	default:
		v.word = "same"
	}
	return v
}

// allBetter reports whether every value of b is better than every
// value of a.
func allBetter(m metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readRunSet(path string) (runSet, error) {
	var set runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareSets prints the verdict for every pairing of workload and
// end-to-end metric present in both files.
func compareSets(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NumCPU != b.Host.NumCPU || a.Host.GoVersion != b.Host.GoVersion || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: the two sets come from different hosts, toolchains or windows; the comparison means little\n")
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			va, vb := a.Runs[name][m.Name], b.Runs[name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(m, va, vb)
			counts[v.word]++
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s\n",
				name, m.Name, v.a, v.b, 100*v.worse, 100*v.spread, 100*m.Bound, v.word)
		}
	}
	fmt.Fprintf(w, "%d worse, %d same, %d unresolved\n", counts["worse"], counts["same"], counts["unresolved"])
	return nil
}
