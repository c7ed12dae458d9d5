// Command benchmark is the yardstick for hermes: four workloads that
// between them cross every layer of the stack, six end-to-end
// metrics a user of the system would see, and a ladder of per-layer
// metrics measured from outside, through each layer's public
// functions. See README.md for what each workload stresses and how to
// read the numbers; BENCHMARK.json declares every metric this program
// prints, with its unit, direction and bound.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run, one JSON result line
//	benchmark [-trace 1]                                   every workload, a fresh process each
//	benchmark -repeat 10 -json runs.json                   noise: median, quartiles, spread
//	benchmark -compare a.json b.json                       apply the bounds to two run sets
//	benchmark -smoke                                       every workload at about 1/50 size
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	serveBin string
	specPath string
	spans    string
	repeat   int
	jsonOut  string
	compare  bool
	golden   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "run this one workload in this process (default: each in a fresh process)")
	fs.Int64Var(&opt.seed, "seed", defaultSeed, "seed every input is generated from")
	fs.Float64Var(&opt.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json, a fiftieth of it with -smoke)")
	fs.IntVar(&opt.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&opt.smoke, "smoke", false, "shrink every operation about fifty-fold; checks names and invariants, not speed")
	fs.StringVar(&opt.serveBin, "serve-bin", "", "hermes-serve binary for serve_http (default: built into ./.bench_build)")
	fs.StringVar(&opt.specPath, "spec", "", "path of BENCHMARK.json (default: ./ or ../)")
	fs.StringVar(&opt.spans, "spans", "", "with -trace 1: write the selected workload's spans to this file")
	fs.IntVar(&opt.repeat, "repeat", 0, "run each workload this many times in fresh processes and report the spread")
	fs.StringVar(&opt.jsonOut, "json", "", "with -repeat: also write every run's values to this file")
	fs.BoolVar(&opt.compare, "compare", false, "compare two -json files given as arguments against the bounds")
	fs.BoolVar(&opt.golden, "update-golden", false, "rewrite golden.json from this tree's simulated reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	spec, err := loadSpec(opt.specPath)
	if err != nil {
		return fail(err)
	}
	if opt.compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two files"))
		}
		if err := compareSets(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	fp := hostFingerprint(opt.seed)
	if err := fp.check(); err != nil {
		return fail(err)
	}
	if opt.seconds <= 0 {
		opt.seconds = spec.RunSeconds
		if opt.smoke {
			opt.seconds /= 50
		}
	}
	switch {
	case opt.golden:
		err = updateGolden(spec, opt)
	case opt.repeat > 0:
		err = repeatRuns(stdout, stderr, spec, fp, opt)
	case opt.workload != "":
		err = oneRun(stdout, stderr, spec, fp, opt)
	default:
		err = everyWorkload(stdout, stderr, spec, fp, opt)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// oneRun measures one workload in this process and prints its numbers
// and, last, the result line. A failed operation or a broken invariant
// is reported on stderr and fails the run without printing numbers:
// figures from a run that computed something wrong are not figures.
func oneRun(stdout, stderr io.Writer, spec *benchSpec, fp fingerprint, opt options) error {
	if _, ok := runners[opt.workload]; !ok {
		return fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	if opt.serveBin == "" && (opt.workload == "serve_http" || opt.trace == 1) {
		bin, err := buildServe()
		if err != nil {
			return err
		}
		opt.serveBin = bin
	}
	var (
		declared []metricSpec
		lad      ladder
		err      error
	)
	if opt.trace == 0 {
		declared = spec.EndToEnd
		lad, err = untracedRun(opt)
	} else {
		declared = spec.PerLayer
		lad, err = tracedRun(opt)
		if err == nil && opt.spans != "" {
			err = writeSpans(opt.spans, opt.workload, lad.spans)
		}
	}
	if err != nil {
		return err
	}
	sel, values := lad.sel, lad.values
	changed, note := checkGolden(spec, opt, lad.digests)
	if opt.trace == 1 {
		values["core.sim_stats_changed"] = changed
	}
	if len(lad.violations) > 0 {
		for _, v := range lad.violations {
			fmt.Fprintf(stderr, "benchmark: violation: %s\n", v)
		}
		return fmt.Errorf("%s: %d correctness violation(s); no numbers reported", opt.workload, len(lad.violations))
	}

	out := resultLine{Correct: true, Attempted: sel.attempted, Failed: sel.failed, Metrics: map[string]metricValue{}}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %q is declared in BENCHMARK.json but was not measured", opt.workload, m.Name)
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
		delete(values, m.Name)
	}
	for name := range values {
		return fmt.Errorf("%s: metric %q was measured but is not declared in BENCHMARK.json", opt.workload, name)
	}

	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "host %s\n", fpJSON)
	fmt.Fprintf(stdout, "workload %s  seed %d  window %gs  trace %d  ops %d  latency samples %d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, sel.attempted, len(sel.latencies()))
	if note != "" {
		fmt.Fprintf(stdout, "%s\n", note)
	}
	for _, m := range declared {
		fmt.Fprintf(stdout, "  %-36s %16.6g %s\n", m.Name, out.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// ladderSeconds is the window of a workload's slice in a traced run
// that selected another workload: long enough for one round of the
// round-based workloads and a few hundred operations of the others.
var ladderSeconds = map[string]float64{
	"paper_figs": 1, "sim_sweep": 1, "native_forkjoin": 1.5, "serve_http": 2,
}

// spanNames are the boundaries the traced paths record, each a
// self_pct.<name> layer metric.
var spanNames = []string{
	"paper.run", "bench.build", "core.run", "bench.check",
	"sweep.point", "trace.generate", "hermes.new", "runtime.submit_trace", "job.wait",
	"runtime.close", "runtime.machine_stats", "sweep.run_cluster",
	"native.job", "workload.build", "rt.submit", "rt.wait",
	"serve.request", "serve.submit", "serve.wait",
}

// ladder is what one run of this process measured: the selected
// workload's outcome, the metrics to print, and what the correctness
// gate and the golden check need.
type ladder struct {
	sel        outcome
	values     map[string]float64
	spans      []span
	digests    map[string]string // by workload, of its first round's simulated reports
	violations []string
}

// add folds one slice's digest and problems into the ladder. A failed
// operation is a violation even when no invariant named it.
func (l *ladder) add(name string, o outcome) {
	if o.digest != "" {
		l.digests[name] = o.digest
	}
	l.violations = append(l.violations, o.violations...)
	if o.failed > 0 && len(o.violations) == 0 {
		l.violations = append(l.violations, fmt.Sprintf("%s: %d of %d operations failed", name, o.failed, o.attempted))
	}
}

// untracedRun measures the selected workload's end-to-end metrics.
func untracedRun(opt options) (ladder, error) {
	l := ladder{digests: map[string]string{}}
	o, err := runners[opt.workload](slice{
		seed: opt.seed, seconds: opt.seconds, small: opt.smoke, setups: 5, serveBin: opt.serveBin,
	})
	if err != nil {
		return l, err
	}
	l.sel, l.values = o, o.endToEnd()
	l.add(opt.workload, o)
	return l, nil
}

// tracedRun produces every per-layer metric. The selected workload runs
// traced for half the window; each other workload runs a short traced
// slice, because some layers are only crossed there (the HTTP plane,
// the kernels, the cluster tier) and a ladder with holes in it cannot
// be compared rung by rung; then the rungs run. The selected
// workload's spans give the self-time shares and the tracer's cost.
func tracedRun(opt options) (ladder, error) {
	l := ladder{values: map[string]float64{}, digests: map[string]string{}}
	order := []string{opt.workload}
	for _, name := range workloadNames {
		if name != opt.workload {
			order = append(order, name)
		}
	}
	for _, name := range order {
		seconds := ladderSeconds[name]
		if opt.smoke {
			seconds = min(seconds, opt.seconds)
		}
		if name == opt.workload {
			seconds = max(opt.seconds/2, seconds)
		}
		tr := newTracer()
		o, err := runners[name](slice{
			seed: opt.seed, seconds: seconds, small: opt.smoke, setups: 1, tr: tr, serveBin: opt.serveBin,
		})
		if err != nil {
			return l, err
		}
		for k, v := range o.layer {
			l.values[k] = v
		}
		l.add(name, o)
		if name == opt.workload {
			l.sel, l.spans = o, tr.snapshot()
		}
	}
	if err := runRungs(l.values, opt.seed, opt.smoke); err != nil {
		l.violations = append(l.violations, err.Error())
	}

	sum := summarize(l.spans)
	var totalSelf, totalRoot int64
	for _, ns := range sum.selfNS {
		totalSelf += ns
	}
	for _, ns := range sum.rootDur {
		totalRoot += ns
	}
	for _, name := range spanNames {
		l.values["self_pct."+name] = 100 * float64(sum.selfNS[name]) / float64(max(totalSelf, 1))
	}
	spanNS := rungSpans(opt.smoke)
	var latNS float64
	for _, ms := range l.sel.latencies() {
		latNS += ms * 1e6
	}
	l.values["spans.count"] = float64(len(l.spans))
	l.values["spans.span_ns"] = spanNS
	l.values["spans.overhead_pct"] = 100 * float64(len(l.spans)) * spanNS / float64(max(totalRoot, 1))
	// Self times of every operation against the latencies the workload
	// measured with its own clock readings.
	l.values["spans.self_sum_err_pct"] = 100 * math.Abs(float64(totalSelf)-latNS) / max(latNS, 1)
	l.values["spans.traced_throughput_per_s"] = l.sel.throughput()
	// The tail of the selected workload's traced window. It is not an
	// end-to-end metric because on this host it cannot hold any bound.
	l.values["latency_p95_ms"] = l.sel.latency(0.95)
	l.values["failed_frac"] = float64(l.sel.failed) / float64(max(l.sel.attempted, 1))
	return l, nil
}

// buildServe compiles cmd/hermes-serve into ./.bench_build, for runs
// started by hand; the contract's entry point builds it beforehand and
// passes -serve-bin. It runs before any set-up is timed.
func buildServe() (string, error) {
	dir, err := filepath.Abs(".bench_build")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "hermes-serve")
	cmd := exec.Command("go", "build", "-o", bin, "hermes/cmd/hermes-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build hermes/cmd/hermes-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// childRun runs one workload in a fresh process of this same program
// and returns its result line.
func childRun(stderr io.Writer, opt options, workload string, seed int64, trace int) (resultLine, error) {
	var res resultLine
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(opt.seconds),
		"-trace", fmt.Sprint(trace), "-serve-bin", opt.serveBin, "-spec", opt.specPath,
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	if trace == 1 && opt.spans != "" {
		args = append(args, "-spans", opt.spans+"."+workload)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: bad result line: %w", workload, err)
	}
	return res, nil
}

// prepareChildren resolves what every child process needs once.
func prepareChildren(spec *benchSpec, opt *options) ([]string, error) {
	opt.specPath = spec.path
	if opt.serveBin == "" {
		bin, err := buildServe()
		if err != nil {
			return nil, err
		}
		opt.serveBin = bin
	}
	if opt.workload != "" {
		if _, ok := runners[opt.workload]; !ok {
			return nil, fmt.Errorf("unknown workload %q", opt.workload)
		}
		return []string{opt.workload}, nil
	}
	return workloadNames, nil
}

// everyWorkload runs each workload in a fresh process — untraced, and
// traced as well under -trace 1 — and prints one table.
func everyWorkload(stdout, stderr io.Writer, spec *benchSpec, fp fingerprint, opt options) error {
	names, err := prepareChildren(spec, &opt)
	if err != nil {
		return err
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "host %s\n", fpJSON)
	results := map[string]resultLine{}
	for _, name := range names {
		res, err := childRun(stderr, opt, name, opt.seed, 0)
		if err != nil {
			return err
		}
		if opt.trace == 1 {
			traced, err := childRun(stderr, opt, name, opt.seed, 1)
			if err != nil {
				return err
			}
			for k, v := range traced.Metrics {
				res.Metrics[k] = v
			}
		}
		results[name] = res
	}
	printTable(stdout, spec, names, results, opt.trace == 1)
	return nil
}

// printTable prints metrics as rows and workloads as columns.
func printTable(w io.Writer, spec *benchSpec, names []string, results map[string]resultLine, layers bool) {
	fmt.Fprintf(w, "%-36s %-7s", "metric", "unit")
	for _, n := range names {
		fmt.Fprintf(w, " %16s", n)
	}
	fmt.Fprintln(w)
	rows := spec.EndToEnd
	if layers {
		rows = append(append([]metricSpec(nil), rows...), spec.PerLayer...)
	}
	for _, m := range rows {
		fmt.Fprintf(w, "%-36s %-7s", m.Name, m.Unit)
		for _, n := range names {
			fmt.Fprintf(w, " %16.6g", results[n].Metrics[m.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-36s %-7s", "failed / attempted", "")
	for _, n := range names {
		fmt.Fprintf(w, " %16s", fmt.Sprintf("%d / %d", results[n].Failed, results[n].Attempted))
	}
	fmt.Fprintln(w)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
