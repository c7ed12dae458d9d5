// hermes-bench regenerates the paper's evaluation figures, and doubles
// as an open-loop load generator for the serving scenario.
//
// Figure mode regenerates the paper's closed-system Figures 6–22:
//
//	hermes-bench                 # all figures, paper-scale
//	hermes-bench -fig 6          # one figure
//	hermes-bench -quick          # CI-scale (smaller inputs, 2 trials)
//	hermes-bench -csv out/       # also write CSV files
//
// Load mode (-load) paces a seeded arrival trace at a target RPS
// against the wall clock into an in-process Native Runtime and reports
// throughput, p50/p95/p99 sojourn time and joules/request, as the
// sweep's Point for the run:
//
//	hermes-bench -load -rps 100 -duration 10s -workload ticks
//
// Load against a live hermes-serve is the benchmark module's
// serve_http workload.
//
// Sweep mode (-sweep) is the open-system evaluation in VIRTUAL time:
// a (workload × tempo-mode × rate) grid, each point a seeded Poisson
// trace replayed deterministically on the Sim pool (jobs contend for
// the simulated machine, with no wall-clock pacing at all), emitting
// per-mode curves of sojourn percentiles, queueing delay,
// joules/request, average power, steals/request and DVFS-tier
// residency vs offered load, with knee detection (first rate whose p99
// exceeds five times the unloaded p50). Two runs with the same flags
// emit byte-identical JSON — the artifact CI diffs and uploads:
//
//	hermes-bench -sweep -workload ticks -rates 50,100,200,400 \
//	    -modes baseline,unified -duration 500ms -seed 7 -workers 4 \
//	    -json SWEEP_sim.json -csv out/
//
// One rate and one mode is the virtual-time run of a single trace:
//
//	hermes-bench -sweep -workload ticks -rates 150 -modes unified -duration 2s -seed 7
//
// A -machines grid selects the cluster sweep (placement × fleet size ×
// rate, one tempo mode), -faults replays fault plans over the same
// traces, and -trace mix adds per-class rows (a classes CSV with
// -csv). Every open-system experiment is such a sweep:
//
//	hermes-bench -sweep -workload ticks -n 128 -grain 4 -work 200000 \
//	    -machines 4 -placement p2c -faults none,crash,failslow,blip \
//	    -rates 100,300,600 -modes unified -duration 250ms -seed 42 \
//	    -trials 2 -workers 2 -csv out/
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hermes/internal/fault"
	"hermes/internal/harness"
	"hermes/internal/trace"
	"hermes/internal/units"
	"hermes/internal/workload"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is hermes-bench on the command-line arguments args. It returns
// the exit status: 2 for a usage error, 1 for a failed run.
func run(args []string) int {
	fs := flag.NewFlagSet("hermes-bench", flag.ContinueOnError)
	var (
		fig     = fs.Int("fig", 0, "figure number to regenerate (0 = all)")
		quick   = fs.Bool("quick", false, "CI-scale runs: smaller inputs, fewer trials")
		trials  = fs.Int("trials", 0, "override trials per configuration")
		scale   = fs.Float64("scale", 0, "override input-size scale factor")
		csvDir  = fs.String("csv", "", "directory to write per-figure CSV files")
		verbose = fs.Bool("v", false, "log each run")

		load      = fs.Bool("load", false, "run the open-loop wall-clock load generator on Native instead of figures")
		sweepMode = fs.Bool("sweep", false, "run the open-system (mode × rate) sweep on the Sim backend")
		rates     = fs.String("rates", "25,50,100,200", "sweep: comma-separated offered-load grid, requests/second")
		modes     = fs.String("modes", "baseline,unified", "sweep: comma-separated tempo modes")
		machines  = fs.String("machines", "", "sweep: comma-separated fleet sizes; non-empty selects the cluster sweep (one -modes entry)")
		placement = fs.String("placement", "p2c", "cluster sweep: comma-separated placement policies (random, jsq, p2c/p<k>c, gossip)")
		faults    = fs.String("faults", "",
			"cluster sweep: comma-separated fault plans ("+strings.Join(fault.Names(), ", ")+"; empty = fault-free)")
		dispatch = fs.String("dispatch", "",
			"sweep: intake dispatch policy (fifo, priority, edf; empty = fifo)")
		quantum = fs.Duration("quantum", 0,
			"sweep: preemption quantum under ranked dispatch (0 = jobs run to completion)")
		rps      = fs.Float64("rps", 100, "load: target arrival rate, requests/second")
		duration = fs.Duration("duration", 10*time.Second, "load/sweep: arrival window")
		kind     = fs.String("workload", "ticks",
			"load/sweep: workload kind ("+strings.Join(workload.Names(), ", ")+")")
		traceName = fs.String("trace", "",
			"load/sweep: arrival process ("+strings.Join(trace.Names(), ", ")+"; empty = poisson)")
		n        = fs.Int("n", 0, "load/sweep: workload size (0 = workload default)")
		grain    = fs.Int("grain", 0, "load/sweep: task granularity (0 = workload default)")
		work     = fs.Int64("work", 0, "load/sweep: cycles per unit (0 = workload default)")
		memfrac  = fs.Float64("memfrac", 0, "load/sweep: memory-bound fraction of work")
		mode     = fs.String("mode", "unified", "load: tempo mode")
		workers  = fs.Int("workers", 0, "load/sweep: worker count (0 = default)")
		seed     = fs.Int64("seed", 1, "load/sweep: arrival-process seed")
		jsonPath = fs.String("json", "", "load/sweep: write the JSON summary to this path")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkModes(*load, *sweepMode, *trials, *scale, set, fs.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "hermes-bench: %v\n", err)
		fs.Usage()
		return 2
	}

	spec := workload.Spec{Kind: *kind, N: *n, Grain: *grain, Work: units.Cycles(*work), MemFrac: *memfrac}
	var err error
	switch {
	case *sweepMode:
		err = runSweep(sweepOpts{
			Spec:           spec,
			Trace:          *traceName,
			Rates:          *rates,
			Modes:          *modes,
			Machines:       *machines,
			Placement:      *placement,
			Faults:         *faults,
			Window:         *duration,
			Seed:           *seed,
			Trials:         *trials,
			Workers:        *workers,
			Dispatch:       *dispatch,
			PreemptQuantum: *quantum,
			JSONPath:       *jsonPath,
			CSVDir:         *csvDir,
			Verbose:        *verbose,
		})
	case *load:
		var sum loadSummary
		sum, err = runLoad(loadOpts{
			RPS:      *rps,
			Duration: *duration,
			Spec:     spec,
			Trace:    *traceName,
			Seed:     *seed,
			Mode:     *mode,
			Workers:  *workers,
			Verbose:  *verbose,
		})
		if err == nil {
			err = writeSummary(sum, *jsonPath)
		}
	default:
		opts := harness.Full()
		if *quick {
			opts = harness.Quick()
		}
		if *trials > 0 {
			opts.Trials = *trials
		}
		if *scale > 0 {
			opts.Scale = *scale
		}
		err = runFigures(opts, *fig, *csvDir, *verbose)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hermes-bench: %v\n", err)
		return 1
	}
	return 0
}

// runFigures prints figure fig (0 = every figure) and, with a csvDir,
// writes each as figureNN.csv there; verbose logs each run to stderr.
func runFigures(opts harness.Options, fig int, csvDir string, verbose bool) error {
	s := harness.NewSession(opts)
	if verbose {
		s.Log = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	ids := harness.Figures()
	if fig != 0 {
		ids = []int{fig}
	}
	for _, id := range ids {
		start := time.Now()
		t, err := s.Figure(id)
		if err != nil {
			return err
		}
		fmt.Println(t.String())
		fmt.Printf("(regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, fmt.Sprintf("figure%02d.csv", id))
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadSweepFlags are the flags -load and -sweep share: the workload,
// its arrival trace and the runtime's shape.
const loadSweepFlags = "workload n grain work memfrac trace duration seed workers json v"

// modeFlags lists, per mode, every flag the mode reads.
var modeFlags = map[string]string{
	"figure": "fig quick scale trials csv v",
	"-load":  "load rps mode " + loadSweepFlags,
	"-sweep": "sweep rates modes machines placement faults dispatch quantum trials csv " + loadSweepFlags,
}

// checkModes rejects a command line that names more than one mode
// (figures is the mode with neither flag), sets a flag the chosen mode
// does not read (it would be silently ignored: -load -machines 3 would
// run one machine), or carries positional arguments: flag parsing stops
// at the first one, so "fig 6" would otherwise drop the number and
// regenerate every figure. It also rejects a negative -trials or
// -scale, which would otherwise fall back to the default. set holds
// the names of the flags given on the command line.
func checkModes(load, sweep bool, trials int, scale float64, set, args []string) error {
	if load && sweep {
		return errors.New("-load and -sweep are separate modes; pass one")
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q (flags start with a dash, e.g. -fig 6)", args[0])
	}
	mode := "figure"
	if load {
		mode = "-load"
	} else if sweep {
		mode = "-sweep"
	}
	reads := strings.Fields(modeFlags[mode])
	for _, name := range set {
		if !slices.Contains(reads, name) {
			return fmt.Errorf("-%s does not apply to %s mode", name, mode)
		}
	}
	if trials < 0 {
		return fmt.Errorf("-trials %d is negative", trials)
	}
	if scale < 0 {
		return fmt.Errorf("-scale %g is negative", scale)
	}
	return nil
}
