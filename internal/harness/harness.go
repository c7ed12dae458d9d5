// Package harness maps every figure of the paper's evaluation
// (Figures 6–22) to the simulated experiment that regenerates it:
// which benchmarks, worker counts, scheduler modes, tempo frequency
// sets and scheduling policies to run, how to aggregate trials, and
// how to print the resulting series.
//
// The paper runs 20 trials per configuration and discards the first
// two; the harness runs a configurable number of trials that vary the
// scheduler seed (victim selection) while holding the input fixed,
// and averages. A Session caches each Spec's Avg, so figures that
// share runs (e.g. Figure 6 and Figure 8) do not recompute them, and
// one recording per input. On an input's first use the Session builds
// it, executes its kernel once across the host's cores under
// wl.Record, and checks the kernel's output against the reference;
// then it drops the input. Every trial of every Spec over that input
// simulates the recording and fails unless its simulated tasks and
// spawns equal the recording's.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/meter"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// Options scale experiments between CI-quick and paper-full.
type Options struct {
	// Trials per configuration (averaged). Default 5.
	Trials int
	// Scale multiplies benchmark input sizes. Default 1.0.
	Scale float64
	// InputSeed fixes the benchmark inputs. Default 42.
	InputSeed int64
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 5
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.InputSeed == 0 {
		o.InputSeed = 42
	}
	return o
}

// Quick returns options sized for unit tests and smoke runs.
func Quick() Options { return Options{Trials: 2, Scale: 0.25} }

// Full returns the paper-scale defaults.
func Full() Options { return Options{} }

// Session runs experiments with caching: one Avg per Spec and one
// recording per input. Build, wl.Record and the output's Check run
// once per input, on its first use; the tasks/spawns match against
// the recording runs on every trial. A Session is not safe for
// concurrent use.
type Session struct {
	opts    Options
	cache   map[string]Avg
	scripts map[input]*wl.Script
	// Log, when non-nil, receives a line per completed run.
	Log func(string)
}

// input identifies one benchmark input; the seed is the Session's.
type input struct {
	bench string
	n     int
}

// NewSession creates a session with the given options.
func NewSession(opts Options) *Session {
	return &Session{opts: opts.withDefaults(), cache: map[string]Avg{}, scripts: map[input]*wl.Script{}}
}

// script returns the recording of b's input of size n, making it on
// first use: build the input, record its kernel, check the output.
func (s *Session) script(b *bench.Bench, n int) *wl.Script {
	in := input{b.Name, n}
	if sc, ok := s.scripts[in]; ok {
		return sc
	}
	load := b.Build(n, s.opts.InputSeed)
	sc := wl.Record(load.Root)
	if load.Check != nil {
		if err := load.Check(); err != nil {
			panic(fmt.Sprintf("harness: %s verification failed: %v", b.Name, err))
		}
	}
	s.scripts[in] = sc
	// The input, its outputs and its reference are garbage now, but the
	// replays that follow allocate too little to start a collection:
	// without this one the heap would stay at the kernel's peak.
	runtime.GC()
	return sc
}

// Spec identifies one simulated configuration to average over trials.
type Spec struct {
	System  *cpu.Spec
	Bench   *bench.Bench
	Workers int
	Mode    core.Mode
	Sched   core.Scheduling
	Freqs   []units.Freq // nil = system default pair
	// NFactor multiplies the benchmark's input size (default 1). The
	// time-series figures use larger inputs so the 100 Hz meter
	// records a useful trace.
	NFactor int
}

func (s Spec) key() string {
	fs := make([]string, len(s.Freqs))
	for i, f := range s.Freqs {
		fs[i] = f.String()
	}
	return fmt.Sprintf("%s|%s|w%d|%s|%s|%s|n%d",
		s.System.Name, s.Bench.Name, s.Workers, s.Mode, s.Sched, strings.Join(fs, ","), max(s.NFactor, 1))
}

// Avg is the trial-averaged outcome of one Spec.
type Avg struct {
	Span    float64 // seconds
	Energy  float64 // joules (exact integral)
	EDP     float64
	Steals  float64
	SlowOcc float64 // fraction of busy time below max frequency
	Trials  int
	// LastSamples is the 100 Hz trace of the final trial (time-series
	// figures want one representative trace, like the paper's).
	LastSamples []meter.Sample
}

// Run executes (or returns the cached) average for spec.
func (s *Session) Run(spec Spec) Avg {
	k := spec.key()
	if a, ok := s.cache[k]; ok {
		return a
	}
	n := max(int(float64(spec.Bench.DefaultN*max(spec.NFactor, 1))*s.opts.Scale), 1000)
	script := s.script(spec.Bench, n)
	var a Avg
	for trial := 0; trial < s.opts.Trials; trial++ {
		cfg := core.Config{
			Spec:       spec.System,
			Workers:    spec.Workers,
			Mode:       spec.Mode,
			Scheduling: spec.Sched,
			Freqs:      spec.Freqs,
			Seed:       s.opts.InputSeed*7919 + int64(trial)*104729 + 1,
		}
		r := core.Run(cfg, script.Task())
		if r.Tasks != script.Tasks() || r.Spawns != script.Spawns() {
			panic(fmt.Sprintf("harness: %s verification failed: simulated %d tasks, %d spawns; recorded %d, %d",
				spec.Bench.Name, r.Tasks, r.Spawns, script.Tasks(), script.Spawns()))
		}
		a.Span += r.Span.Seconds()
		a.Energy += r.EnergyJ
		a.EDP += r.EDP
		a.Steals += float64(r.Steals)
		if r.BusyTime > 0 {
			a.SlowOcc += float64(r.SlowBusyTime) / float64(r.BusyTime)
		}
		a.LastSamples = r.Samples
		if s.Log != nil {
			s.Log(fmt.Sprintf("  %s trial %d: %s", k, trial, r.String()))
		}
	}
	t := float64(s.opts.Trials)
	a.Span /= t
	a.Energy /= t
	a.EDP /= t
	a.Steals /= t
	a.SlowOcc /= t
	a.Trials = s.opts.Trials
	s.cache[k] = a
	return a
}

// Compare runs spec and its baseline twin, returning the normalized
// quantities the paper plots: energy saving, time loss, EDP ratio.
func (s *Session) Compare(spec Spec) (saving, loss, edp float64) {
	h := s.Run(spec)
	b := spec
	b.Mode = core.Baseline
	b.Freqs = nil
	base := s.Run(b)
	return 1 - h.Energy/base.Energy, h.Span/base.Span - 1, h.EDP / base.EDP
}

// --- table rendering -------------------------------------------------

// Table is a printable experiment result.
type Table struct {
	Figure  string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries the paper-expected shape, printed under the table.
	Notes []string
}

// String renders the table with fixed-width columns.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Figure, t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// workerCounts returns the paper's worker sweeps per system:
// System A: 2, 4, 8, 16; System B: 2, 3, 4.
func workerCounts(spec *cpu.Spec) []int {
	if spec.Name == "SystemB" {
		return []int{2, 3, 4}
	}
	return []int{2, 4, 8, 16}
}

// pct formats a fraction as a signed percentage.
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

// ratio formats a ratio to three decimals.
func ratio(x float64) string { return fmt.Sprintf("%.3f", x) }

// Figures lists the available figure ids in order.
func Figures() []int {
	ids := make([]int, 0, len(figureFns))
	for id := range figureFns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Figure regenerates the given paper figure.
func (s *Session) Figure(id int) (Table, error) {
	fn, ok := figureFns[id]
	if !ok {
		return Table{}, fmt.Errorf("harness: no figure %d (have %v)", id, Figures())
	}
	return fn(s), nil
}
