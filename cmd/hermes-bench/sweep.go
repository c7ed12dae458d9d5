package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hermes"
	"hermes/internal/fault"
	"hermes/internal/sweep"
	"hermes/internal/workload"
)

// sweepOpts parameterizes one -sweep invocation.
type sweepOpts struct {
	Spec      workload.Spec
	Trace     string // arrival process name ("" = poisson)
	Rates     string // comma-separated offered RPS grid
	Modes     string // comma-separated tempo modes
	Machines  string // comma-separated fleet sizes; "" = single-machine sweep
	Placement string // comma-separated placement policies (cluster sweep)
	Faults    string // comma-separated fault plans (cluster sweep; "" = fault-free)
	Window    time.Duration
	Seed      int64
	Trials    int
	Workers   int
	// Dispatch names the intake dispatch policy ("" = fifo);
	// PreemptQuantum is the ranked-dispatch preemption quantum.
	Dispatch       string
	PreemptQuantum time.Duration
	JSONPath       string
	CSVDir         string
	Verbose        bool
}

// splitCommaList splits a comma-separated flag value, trimming blanks.
func splitCommaList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseList parses a comma-separated grid flag entry by entry: every
// entry must parse and appear once, and the list may be empty only
// when emptyOK. Errors name the flag and the offending entry.
func parseList[T comparable](flag, list string, emptyOK bool, parse func(string) (T, error)) ([]T, error) {
	var out []T
	seen := map[T]bool{}
	for _, s := range splitCommaList(list) {
		v, err := parse(s)
		if err != nil {
			return nil, fmt.Errorf("sweep: -%s entry %q: %v", flag, s, err)
		}
		if seen[v] {
			return nil, fmt.Errorf("sweep: -%s: duplicate entry %q", flag, s)
		}
		seen[v] = true
		out = append(out, v)
	}
	if len(out) == 0 && !emptyOK {
		return nil, fmt.Errorf("sweep: -%s is empty", flag)
	}
	return out, nil
}

// parseRates parses the -rates grid: positive finite numbers.
func parseRates(list string) ([]float64, error) {
	return parseList("rates", list, false, func(s string) (float64, error) {
		r, err := strconv.ParseFloat(s, 64)
		// NaN parses without error and slips past every comparison;
		// reject it (and infinities) together with non-positive rates.
		if err == nil && (!(r > 0) || math.IsInf(r, 0)) {
			err = errors.New("rates must be positive finite numbers")
		}
		return r, err
	})
}

// parseMachines parses the -machines grid: positive fleet sizes.
func parseMachines(list string) ([]int, error) {
	return parseList("machines", list, false, func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err == nil && n <= 0 {
			err = errors.New("machine counts must be positive")
		}
		return n, err
	})
}

// parsePlacements parses the -placement list: known policy names only
// (random, jsq, p2c/p<k>c, gossip).
func parsePlacements(list string) ([]hermes.Placement, error) {
	return parseList("placement", list, false, hermes.ParsePlacement)
}

// parseFaultPlans parses the -faults list against the fault registry,
// each plan once after Resolve ("" and "none" are the same plan). An
// empty flag means one fault-free pass.
func parseFaultPlans(list string) ([]string, error) {
	return parseList("faults", list, true, func(s string) (string, error) {
		p, err := fault.Resolve(s)
		return p.Name, err
	})
}

// parseModes parses the -modes list: known tempo modes, each once.
func parseModes(list string) ([]hermes.Mode, error) {
	return parseList("modes", list, false, hermes.ParseMode)
}

// runSweep drives the open-system sweep from the CLI and writes the
// JSON (and optionally CSV) artifacts. A non-empty -machines grid
// selects the cluster sweep (placement policy × fleet size × rate)
// instead of the single-machine tempo-mode sweep.
func runSweep(opts sweepOpts) error {
	rates, err := parseRates(opts.Rates)
	if err != nil {
		return err
	}
	modes, err := parseModes(opts.Modes)
	if err != nil {
		return err
	}
	if opts.Machines != "" {
		return runClusterSweep(opts, rates, modes)
	}
	cfg := sweep.Config{
		Workload:       opts.Spec,
		Trace:          opts.Trace,
		Modes:          modes,
		RatesRPS:       rates,
		Window:         opts.Window,
		Seed:           opts.Seed,
		Trials:         opts.Trials,
		Workers:        opts.Workers,
		Dispatch:       opts.Dispatch,
		PreemptQuantum: opts.PreemptQuantum,
	}
	if opts.Verbose {
		cfg.Log = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	res, err := sweep.Run(cfg)
	if err != nil {
		return err
	}
	return writeSweep(res, "sweep", res.Workload.Kind, opts)
}

// writeSweep prints a sweep artifact's table and writes its JSON and,
// with -csv, its flat files: <stem>_<kind>.csv, plus the per-class
// breakdown <stem>_classes_<kind>.csv when the trace was mixed (single
// class traces write exactly the pre-tenancy file set).
func writeSweep(res interface {
	String() string
	CSV() string
	ClassCSV() string
}, stem, kind string, opts sweepOpts) error {
	fmt.Print(res.String())
	if err := writeJSON(res, opts.JSONPath); err != nil {
		return err
	}
	if opts.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(opts.CSVDir, 0o755); err != nil {
		return err
	}
	write := func(name, body string) error {
		return os.WriteFile(filepath.Join(opts.CSVDir, name), []byte(body), 0o644)
	}
	if err := write(fmt.Sprintf("%s_%s.csv", stem, kind), res.CSV()); err != nil {
		return err
	}
	if cc := res.ClassCSV(); cc != "" {
		return write(fmt.Sprintf("%s_classes_%s.csv", stem, kind), cc)
	}
	return nil
}

// runClusterSweep drives the multi-machine (placement × fleet size ×
// rate) sweep. The grid runs under ONE tempo mode — pass exactly one
// via -modes.
func runClusterSweep(opts sweepOpts, rates []float64, modes []hermes.Mode) error {
	if len(modes) != 1 {
		return fmt.Errorf("sweep: the cluster sweep runs one tempo mode; -modes gave %d", len(modes))
	}
	machines, err := parseMachines(opts.Machines)
	if err != nil {
		return err
	}
	policies, err := parsePlacements(opts.Placement)
	if err != nil {
		return err
	}
	plans, err := parseFaultPlans(opts.Faults)
	if err != nil {
		return err
	}
	cfg := sweep.ClusterConfig{
		Workload:       opts.Spec,
		Trace:          opts.Trace,
		Faults:         plans,
		Mode:           modes[0],
		Policies:       policies,
		Machines:       machines,
		RatesRPS:       rates,
		Window:         opts.Window,
		Seed:           opts.Seed,
		Trials:         opts.Trials,
		Workers:        opts.Workers,
		Dispatch:       opts.Dispatch,
		PreemptQuantum: opts.PreemptQuantum,
	}
	if opts.Verbose {
		cfg.Log = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	res, err := sweep.RunCluster(cfg)
	if err != nil {
		return err
	}
	return writeSweep(res, "sweep_cluster", res.Workload.Kind, opts)
}
