package harness

import (
	"fmt"
	"time"

	"hermes"
	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/sweep"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// figureFns maps paper figure numbers to their regenerators. Ids
// beyond 22 are open-system extensions of the evaluation (the paper's
// figures are all closed-system); they render through the same Table
// pipeline so `hermes-bench -fig 23 -csv out/` works like any other.
var figureFns = map[int]func(*Session) Table{
	6:  func(s *Session) Table { return s.overall(cpu.SystemA(), 6) },
	7:  func(s *Session) Table { return s.overall(cpu.SystemB(), 7) },
	8:  func(s *Session) Table { return s.edp(cpu.SystemA(), 8) },
	9:  func(s *Session) Table { return s.edp(cpu.SystemB(), 9) },
	10: func(s *Session) Table { return s.strategyEnergy(cpu.SystemA(), 10) },
	11: func(s *Session) Table { return s.strategyTime(cpu.SystemA(), 11) },
	12: func(s *Session) Table { return s.strategyEnergy(cpu.SystemB(), 12) },
	13: func(s *Session) Table { return s.strategyTime(cpu.SystemB(), 13) },
	14: func(s *Session) Table { return s.freqSelection(cpu.SystemA(), 14) },
	15: func(s *Session) Table { return s.freqSelection(cpu.SystemB(), 15) },
	16: func(s *Session) Table { return s.nFreq(cpu.SystemA(), 16) },
	17: func(s *Session) Table { return s.nFreq(cpu.SystemB(), 17) },
	18: func(s *Session) Table { return s.staticDynamic(18) },
	19: func(s *Session) Table { return s.timeSeries(19, "knn", 16) },
	20: func(s *Session) Table { return s.timeSeries(20, "knn", 8) },
	21: func(s *Session) Table { return s.timeSeries(21, "ray", 16) },
	22: func(s *Session) Table { return s.timeSeries(22, "ray", 8) },
	23: func(s *Session) Table {
		return s.openSystem(23, workload.Spec{Kind: "ticks", N: 64, Grain: 16, Work: 100_000})
	},
	24: func(s *Session) Table {
		return s.openSystem(24, workload.Spec{Kind: "fib", N: 14, Grain: 6, Work: 30_000})
	},
	25: func(s *Session) Table { return s.clusterPolicies(25) },
	26: func(s *Session) Table { return s.clusterScaling(26) },
	27: func(s *Session) Table { return s.clusterFaults(27) },
	28: func(s *Session) Table { return s.serviceClasses(28) },
}

// openSystemRates is the offered-load grid of the open-system figures.
var openSystemRates = []float64{50, 100, 200, 400}

// openSystem renders an open-system figure: baseline-vs-unified curves
// of latency, queueing delay, energy and steal interference against
// offered load, measured by the sweep subsystem over the virtual-time
// Sim pool (seeded Poisson arrivals replayed via SubmitTrace). The
// arrival window scales with the session's Scale like benchmark input
// sizes do, so quick sessions stay quick.
func (s *Session) openSystem(fig int, spec workload.Spec) Table {
	window := time.Duration(float64(2*time.Second) * s.opts.Scale)
	if window < 50*time.Millisecond {
		window = 50 * time.Millisecond
	}
	cfg := sweep.Config{
		Workload: spec,
		Modes:    []core.Mode{core.Baseline, core.Unified},
		RatesRPS: openSystemRates,
		Window:   window,
		Seed:     s.opts.InputSeed,
		Trials:   s.opts.Trials,
		Workers:  4,
		Log:      s.Log,
	}
	res, err := sweep.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: open-system sweep failed: %v", err))
	}
	t := Table{
		Figure: fmt.Sprintf("Figure %d", fig),
		Title: fmt.Sprintf("Open system (extension): %s under Poisson load, baseline vs unified, 4 workers",
			spec.Kind),
		Columns: []string{"mode", "rps", "p50-ms", "p99-ms", "queue99-ms", "J/req", "avg-W", "steals/req", "peak-inflight"},
		Notes: []string{
			"extension beyond the paper (its evaluation is closed-system): deterministic",
			"virtual-time replay; sojourn includes queueing, queue99 = p99 of sojourn-span",
		},
	}
	for _, c := range res.Curves {
		for _, p := range c.Points {
			t.Rows = append(t.Rows, []string{
				c.Mode, fmt.Sprintf("%g", p.OfferedRPS),
				fmt.Sprintf("%.3f", p.P50SojournMS), fmt.Sprintf("%.3f", p.P99SojournMS),
				fmt.Sprintf("%.3f", p.P99QueueMS),
				fmt.Sprintf("%.4f", p.JoulesPerRequest), fmt.Sprintf("%.2f", p.AvgPowerW),
				fmt.Sprintf("%.2f", p.StealsPerRequest), fmt.Sprint(p.PeakInflight),
			})
		}
		if k, ok := c.Knee(); ok {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: latency knee at %g rps (p99 > %g× unloaded p50 %.3fms)",
				c.Mode, k, res.KneeFactor, c.UnloadedP50MS))
		} else {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: no latency knee within the grid (unloaded p50 %.3fms)",
				c.Mode, c.UnloadedP50MS))
		}
	}
	return t
}

// serviceClasses renders Figure 28 (extension): per-class latency and
// SLO attainment vs offered load on the canonical mixed trace (80%
// heavy-tailed batch, 20% small latency-critical with a deadline and
// SLO target), baseline vs unified tempo. The per-class rows come from
// the same sweep the flat open-system figures use — the class
// dimension rides the existing deterministic replay, it does not get
// its own measurement path.
func (s *Session) serviceClasses(fig int) Table {
	window := time.Duration(float64(2*time.Second) * s.opts.Scale)
	if window < 50*time.Millisecond {
		window = 50 * time.Millisecond
	}
	spec := workload.Spec{Kind: "ticks", N: 64, Grain: 16, Work: 100_000}
	cfg := sweep.Config{
		Workload: spec,
		Trace:    "mix",
		Modes:    []core.Mode{core.Baseline, core.Unified},
		RatesRPS: openSystemRates,
		Window:   window,
		Seed:     s.opts.InputSeed,
		Trials:   s.opts.Trials,
		Workers:  4,
		Log:      s.Log,
	}
	res, err := sweep.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: service-class sweep failed: %v", err))
	}
	t := Table{
		Figure: fmt.Sprintf("Figure %d", fig),
		Title: fmt.Sprintf("Service classes (extension): per-class latency on the mixed trace, %s, baseline vs unified, 4 workers",
			spec.Kind),
		Columns: []string{"mode", "rps", "tenant", "priority", "p50-ms", "p95-ms", "p99-ms", "slo-att", "J/req"},
		Notes: []string{
			"extension beyond the paper: the mix trace interleaves 80% heavy-tailed batch arrivals with 20%",
			"small latency-critical jobs (priority 1, 5ms deadline and SLO); rows split each sweep point by",
			"service class — the latency-critical tail under FIFO intake is the cost ranked dispatch removes",
		},
	}
	for _, c := range res.Curves {
		for _, p := range c.Points {
			for _, cp := range p.Classes {
				att := "-"
				if cp.SLOAttainment != nil {
					att = fmt.Sprintf("%.3f", *cp.SLOAttainment)
				}
				t.Rows = append(t.Rows, []string{
					c.Mode, fmt.Sprintf("%g", p.OfferedRPS),
					cp.Tenant, fmt.Sprint(cp.Priority),
					fmt.Sprintf("%.3f", cp.P50SojournMS), fmt.Sprintf("%.3f", cp.P95SojournMS),
					fmt.Sprintf("%.3f", cp.P99SojournMS),
					att, fmt.Sprintf("%.4f", cp.JoulesPerRequest),
				})
			}
		}
	}
	return t
}

// clusterSpec is the workload the cluster figures run: service times
// of a few milliseconds per job on a 2-worker machine, so offered
// loads in the hundreds of rps genuinely contend for the fleet.
func clusterSpec() workload.Spec {
	return workload.Spec{Kind: "ticks", N: 128, Grain: 4, Work: 200_000}
}

// clusterRates is the offered-load grid of the cluster figures.
var clusterRates = []float64{100, 300, 600}

// runClusterFigure executes one cluster sweep for a figure, sharing
// the session's window scaling and seed discipline with openSystem.
func (s *Session) runClusterFigure(policies []hermes.Placement, machines []int, faults []string) sweep.ClusterResult {
	window := time.Duration(float64(time.Second) * s.opts.Scale)
	if window < 40*time.Millisecond {
		window = 40 * time.Millisecond
	}
	cfg := sweep.ClusterConfig{
		Workload: clusterSpec(),
		Faults:   faults,
		Mode:     core.Unified,
		Policies: policies,
		Machines: machines,
		RatesRPS: clusterRates,
		Window:   window,
		Seed:     s.opts.InputSeed,
		Trials:   s.opts.Trials,
		Workers:  2,
		Log:      s.Log,
	}
	res, err := sweep.RunCluster(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: cluster sweep failed: %v", err))
	}
	return res
}

// clusterRows flattens cluster curves into figure rows.
func clusterRows(t *Table, res sweep.ClusterResult) {
	for _, c := range res.Curves {
		for _, p := range c.Points {
			t.Rows = append(t.Rows, []string{
				c.Policy, fmt.Sprint(c.Machines), fmt.Sprintf("%g", p.OfferedRPS),
				fmt.Sprintf("%.3f", p.P50SojournMS), fmt.Sprintf("%.3f", p.P99SojournMS),
				fmt.Sprintf("%.4f", p.FleetJoulesPerRequest), fmt.Sprintf("%.2f", p.FleetAvgPowerW),
				fmt.Sprint(p.IdleMachines), fmt.Sprint(p.Migrated), fmt.Sprint(p.PeakInflight),
			})
		}
	}
}

// clusterPolicies renders Figure 25 (extension): placement policies
// compared on one fleet — fleet joules/request, tail latency and
// idle-machine consolidation vs offered load for random, jsq, p2c and
// gossip over six 2-worker machines.
func (s *Session) clusterPolicies(fig int) Table {
	res := s.runClusterFigure([]hermes.Placement{
		hermes.PlacementRandom(),
		hermes.PlacementJSQ(),
		hermes.PlacementPowerOfChoices(2),
		hermes.PlacementGossip(),
	}, []int{6}, nil)
	t := Table{
		Figure: fmt.Sprintf("Figure %d", fig),
		Title: fmt.Sprintf("Cluster (extension): placement policies on 6 machines, %s under Poisson load, unified mode",
			clusterSpec().Kind),
		Columns: []string{"policy", "machines", "rps", "p50-ms", "p99-ms", "fleetJ/req", "fleet-W", "idle-machines", "migrated", "peak-inflight"},
		Notes: []string{
			"extension beyond the paper: N simulated machines in one virtual-time engine behind a placement tier;",
			"fleet energy charges every machine over the same window, so consolidating policies (p2c's idle-first rule)",
			"win by leaving whole machines parked in the lowest DVFS tier while random's collisions queue jobs",
		},
	}
	clusterRows(&t, res)
	return t
}

// clusterScaling renders Figure 26 (extension): fleet-size scaling for
// the consolidating vs spreading pair — how joules/request and the
// latency tail move as the same offered load runs over 2, 4 and 8
// machines.
func (s *Session) clusterScaling(fig int) Table {
	res := s.runClusterFigure([]hermes.Placement{
		hermes.PlacementPowerOfChoices(2),
		hermes.PlacementRandom(),
	}, []int{2, 4, 8}, nil)
	t := Table{
		Figure: fmt.Sprintf("Figure %d", fig),
		Title: fmt.Sprintf("Cluster (extension): fleet-size scaling, p2c vs random, %s under Poisson load, unified mode",
			clusterSpec().Kind),
		Columns: []string{"policy", "machines", "rps", "p50-ms", "p99-ms", "fleetJ/req", "fleet-W", "idle-machines", "migrated", "peak-inflight"},
		Notes: []string{
			"extension beyond the paper: growing the fleet at fixed offered load trades fleet joules/request",
			"(more idle floor draw) against tail latency; p2c keeps the extra machines parked until needed",
		},
	}
	clusterRows(&t, res)
	return t
}

// clusterFaults renders Figure 27 (extension): availability vs energy
// under injected faults — every registered fault plan replayed over
// the SAME seeded traces on a p2c fleet, so the availability ledger
// (crashes, retries, lost jobs, downtime) and the fleet energy bill
// are directly comparable against the fault-free row.
func (s *Session) clusterFaults(fig int) Table {
	res := s.runClusterFigure(
		[]hermes.Placement{hermes.PlacementPowerOfChoices(2)},
		[]int{4},
		[]string{"none", "crash", "failslow", "blip"},
	)
	t := Table{
		Figure: fmt.Sprintf("Figure %d", fig),
		Title: fmt.Sprintf("Cluster (extension): availability vs energy under fault injection, p2c on 4 machines, %s, unified mode",
			clusterSpec().Kind),
		Columns: []string{"faults", "rps", "p50-ms", "p99-ms", "fleetJ/req", "availability", "crashes", "retries", "lost", "downtime-ms"},
		Notes: []string{
			"extension beyond the paper: deterministic fault plans (crash = fail-stop with rejoin, failslow =",
			"long stragglers, blip = short 25x stalls) compiled from the run seed and replayed in virtual time;",
			"crashed machines draw zero power, their jobs are re-placed with seeded backoff (bounded retries)",
		},
	}
	for _, c := range res.Curves {
		faults := c.Faults
		if faults == "" {
			faults = "none"
		}
		for _, p := range c.Points {
			// Fault-free points leave Availability unset to keep the JSON
			// artifact byte-stable; the figure prints the 1 it trivially is.
			avail := p.Availability
			if c.Faults == "" && p.Completed > 0 {
				avail = 1
			}
			t.Rows = append(t.Rows, []string{
				faults, fmt.Sprintf("%g", p.OfferedRPS),
				fmt.Sprintf("%.3f", p.P50SojournMS), fmt.Sprintf("%.3f", p.P99SojournMS),
				fmt.Sprintf("%.4f", p.FleetJoulesPerRequest),
				fmt.Sprintf("%.4f", avail),
				fmt.Sprint(p.Crashes), fmt.Sprint(p.Retries), fmt.Sprint(p.Lost),
				fmt.Sprintf("%.3f", p.DowntimeS*1000),
			})
		}
	}
	return t
}

// norm fills in the default tempo pair so cache keys unify the "nil =
// default" and explicit spellings.
func norm(spec Spec) Spec {
	if spec.Mode != core.Baseline && len(spec.Freqs) == 0 {
		spec.Freqs = core.DefaultFreqs(spec.System)
	}
	if spec.Mode == core.Baseline {
		spec.Freqs = nil
	}
	return spec
}

// overall regenerates Figure 6 / Figure 7: normalized energy savings
// and time loss of unified HERMES vs the baseline runtime.
func (s *Session) overall(sys *cpu.Spec, fig int) Table {
	t := Table{
		Figure:  fmt.Sprintf("Figure %d", fig),
		Title:   fmt.Sprintf("Normalized energy savings and time loss of HERMES vs baseline on %s", sys.Name),
		Columns: []string{"bench", "workers", "energy-saving", "time-loss", "steals/trial"},
		Notes: []string{
			"paper: average 11-12% energy savings, 3-4% time loss across benchmarks and worker counts",
		},
	}
	var sumSave, sumLoss float64
	cells := 0
	for _, b := range bench.All() {
		for _, w := range workerCounts(sys) {
			spec := norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.Unified})
			save, loss, _ := s.Compare(spec)
			h := s.Run(spec)
			t.Rows = append(t.Rows, []string{b.Name, fmt.Sprint(w), pct(save), pct(loss), fmt.Sprintf("%.0f", h.Steals)})
			sumSave += save
			sumLoss += loss
			cells++
		}
	}
	t.Rows = append(t.Rows, []string{"average", "-", pct(sumSave / float64(cells)), pct(sumLoss / float64(cells)), "-"})
	return t
}

// edp regenerates Figure 8 / Figure 9: normalized energy-delay product.
func (s *Session) edp(sys *cpu.Spec, fig int) Table {
	t := Table{
		Figure:  fmt.Sprintf("Figure %d", fig),
		Title:   fmt.Sprintf("Normalized EDP of HERMES vs baseline on %s", sys.Name),
		Columns: []string{"bench", "workers", "normalized-EDP"},
		Notes:   []string{"paper: average ≈0.92; EDP improved (below 1.0) without exception"},
	}
	var sum float64
	cells := 0
	for _, b := range bench.All() {
		for _, w := range workerCounts(sys) {
			_, _, edp := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.Unified}))
			t.Rows = append(t.Rows, []string{b.Name, fmt.Sprint(w), ratio(edp)})
			sum += edp
			cells++
		}
	}
	t.Rows = append(t.Rows, []string{"average", "-", ratio(sum / float64(cells))})
	return t
}

// strategyEnergy regenerates Figure 10 / Figure 12: energy savings of
// each strategy alone, normalized by the unified algorithm's savings.
func (s *Session) strategyEnergy(sys *cpu.Spec, fig int) Table {
	t := Table{
		Figure:  fmt.Sprintf("Figure %d", fig),
		Title:   fmt.Sprintf("Energy: workpath-only and workload-only savings relative to unified on %s", sys.Name),
		Columns: []string{"bench", "workers", "workpath/unified", "workload/unified"},
		Notes: []string{
			"paper: each strategy alone contributes roughly half the unified savings;",
			"their sum approaches (or slightly exceeds) the unified total",
		},
	}
	for _, b := range bench.All() {
		for _, w := range workerCounts(sys) {
			uSave, _, _ := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.Unified}))
			pSave, _, _ := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.WorkpathOnly}))
			lSave, _, _ := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.WorkloadOnly}))
			pr, lr := "n/a", "n/a"
			if uSave > 0.001 {
				pr, lr = ratio(pSave/uSave), ratio(lSave/uSave)
			}
			t.Rows = append(t.Rows, []string{b.Name, fmt.Sprint(w), pr, lr})
		}
	}
	return t
}

// strategyTime regenerates Figure 11 / Figure 13: time loss of each
// strategy alone relative to the unified algorithm's loss.
func (s *Session) strategyTime(sys *cpu.Spec, fig int) Table {
	t := Table{
		Figure:  fmt.Sprintf("Figure %d", fig),
		Title:   fmt.Sprintf("Time: workpath-only and workload-only loss relative to unified on %s", sys.Name),
		Columns: []string{"bench", "workers", "workpath/unified", "workload/unified"},
		Notes: []string{
			"paper: each strategy alone loses MORE time than unified (ratios above 1,",
			"e.g. ≈1.6-1.7x on Compare/8 workers): unification gets the best of both",
		},
	}
	for _, b := range bench.All() {
		for _, w := range workerCounts(sys) {
			_, uLoss, _ := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.Unified}))
			_, pLoss, _ := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.WorkpathOnly}))
			_, lLoss, _ := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.WorkloadOnly}))
			pr, lr := "n/a", "n/a"
			if uLoss > 0.001 {
				pr, lr = ratio(pLoss/uLoss), ratio(lLoss/uLoss)
			}
			t.Rows = append(t.Rows, []string{b.Name, fmt.Sprint(w), pr, lr})
		}
	}
	return t
}

// slowPairs returns the paper's slow-frequency sweep per system
// (Figure 14: 2.4/{1.6,1.4,1.9}; Figure 15: 3.6/{2.7,2.1,3.3}).
func slowPairs(sys *cpu.Spec) []units.Freq {
	if sys.Name == "SystemB" {
		return []units.Freq{2_700_000 * units.KHz, 2_100_000 * units.KHz, 3_300_000 * units.KHz}
	}
	return []units.Freq{1_600_000 * units.KHz, 1_400_000 * units.KHz, 1_900_000 * units.KHz}
}

// freqSelection regenerates Figure 14 / Figure 15: the effect of the
// slow-tempo frequency choice under 2-frequency tempo control.
func (s *Session) freqSelection(sys *cpu.Spec, fig int) Table {
	pairs := slowPairs(sys)
	max := sys.MaxFreq()
	t := Table{
		Figure: fmt.Sprintf("Figure %d", fig),
		Title:  fmt.Sprintf("Effect of slow-frequency selection (fast fixed at %v) on %s", max, sys.Name),
		Columns: []string{"bench", "workers",
			"save@" + pairs[0].String(), "loss@" + pairs[0].String(),
			"save@" + pairs[1].String(), "loss@" + pairs[1].String(),
			"save@" + pairs[2].String(), "loss@" + pairs[2].String()},
		Notes: []string{
			"paper: a higher slow frequency gives less loss but fewer savings; a very low",
			"slow frequency loses heavily (and can even cost energy); the sweet spot is",
			"a slow/fast ratio near the golden ratio (~60%)",
		},
	}
	for _, b := range bench.All() {
		for _, w := range workerCounts(sys) {
			row := []string{b.Name, fmt.Sprint(w)}
			for _, slow := range pairs {
				save, loss, _ := s.Compare(norm(Spec{
					System: sys, Bench: b, Workers: w, Mode: core.Unified,
					Freqs: []units.Freq{max, slow},
				}))
				row = append(row, pct(save), pct(loss))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// nFreqSets returns the paper's N-frequency comparison sets.
func nFreqSets(sys *cpu.Spec) [][]units.Freq {
	if sys.Name == "SystemB" {
		return [][]units.Freq{
			{3_600_000 * units.KHz, 2_700_000 * units.KHz},
			{3_600_000 * units.KHz, 3_300_000 * units.KHz, 2_700_000 * units.KHz},
		}
	}
	return [][]units.Freq{
		{2_400_000 * units.KHz, 1_600_000 * units.KHz},
		{2_400_000 * units.KHz, 1_600_000 * units.KHz, 1_400_000 * units.KHz},
		{2_400_000 * units.KHz, 1_900_000 * units.KHz, 1_600_000 * units.KHz},
	}
}

// nFreq regenerates Figure 16 / Figure 17: 2-frequency vs 3-frequency
// tempo control.
func (s *Session) nFreq(sys *cpu.Spec, fig int) Table {
	sets := nFreqSets(sys)
	cols := []string{"bench", "workers"}
	for _, set := range sets {
		label := ""
		for i, f := range set {
			if i > 0 {
				label += "/"
			}
			label += f.String()
		}
		cols = append(cols, "save@"+label, "loss@"+label)
	}
	t := Table{
		Figure:  fmt.Sprintf("Figure %d", fig),
		Title:   fmt.Sprintf("N-frequency tempo control on %s", sys.Name),
		Columns: cols,
		Notes: []string{
			"paper: 2-frequency and 3-frequency results are similar; 3-frequency can",
			"lose slightly less time, 2-frequency keeps a slight edge on energy",
			"(less DVFS switching overhead)",
		},
	}
	for _, b := range bench.All() {
		for _, w := range workerCounts(sys) {
			row := []string{b.Name, fmt.Sprint(w)}
			for _, set := range sets {
				save, loss, _ := s.Compare(norm(Spec{
					System: sys, Bench: b, Workers: w, Mode: core.Unified, Freqs: set,
				}))
				row = append(row, pct(save), pct(loss))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// staticDynamic regenerates Figure 18: HERMES under static vs dynamic
// worker-core scheduling.
func (s *Session) staticDynamic(fig int) Table {
	sys := cpu.SystemA()
	t := Table{
		Figure:  fmt.Sprintf("Figure %d", fig),
		Title:   "Static vs dynamic scheduling (HERMES on SystemA)",
		Columns: []string{"bench", "workers", "static-save", "static-loss", "dynamic-save", "dynamic-loss"},
		Notes: []string{
			"paper: dynamic scheduling shows slightly higher energy than static, due to",
			"per-WORK affinity set/reset overhead; no significant imbalance from static",
		},
	}
	for _, b := range bench.All() {
		for _, w := range []int{8, 16} {
			stSave, stLoss, _ := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.Unified, Sched: core.Static}))
			dySave, dyLoss, _ := s.Compare(norm(Spec{System: sys, Bench: b, Workers: w, Mode: core.Unified, Sched: core.Dynamic}))
			t.Rows = append(t.Rows, []string{
				b.Name, fmt.Sprint(w), pct(stSave), pct(stLoss), pct(dySave), pct(dyLoss),
			})
		}
	}
	return t
}

// timeSeries regenerates Figures 19–22: 100 Hz power traces of static
// vs dynamic scheduling for one benchmark and worker count.
func (s *Session) timeSeries(fig int, benchName string, workers int) Table {
	sys := cpu.SystemA()
	b, err := bench.ByName(benchName)
	if err != nil {
		panic(err)
	}
	// Larger inputs than the bar figures: the 100 Hz DAQ needs a run
	// spanning hundreds of milliseconds to draw a shape.
	st := s.Run(norm(Spec{System: sys, Bench: b, Workers: workers, Mode: core.Unified, Sched: core.Static, NFactor: 8}))
	dy := s.Run(norm(Spec{System: sys, Bench: b, Workers: workers, Mode: core.Unified, Sched: core.Dynamic, NFactor: 8}))
	t := Table{
		Figure:  fmt.Sprintf("Figure %d", fig),
		Title:   fmt.Sprintf("Power time series, %s, %d workers, SystemA (static vs dynamic)", benchName, workers),
		Columns: []string{"t", "static-W", "dynamic-W"},
		Notes: []string{
			"paper: the two schedules show similar shapes from separate executions;",
			"dynamic runs at a slightly higher level (affinity overhead)",
		},
	}
	n := len(st.LastSamples)
	if len(dy.LastSamples) > n {
		n = len(dy.LastSamples)
	}
	for i := 0; i < n; i++ {
		var ts units.Time
		stW, dyW := "-", "-"
		if i < len(st.LastSamples) {
			ts = st.LastSamples[i].T
			stW = fmt.Sprintf("%.1f", st.LastSamples[i].Watts)
		}
		if i < len(dy.LastSamples) {
			ts = dy.LastSamples[i].T
			dyW = fmt.Sprintf("%.1f", dy.LastSamples[i].Watts)
		}
		t.Rows = append(t.Rows, []string{ts.String(), stW, dyW})
	}
	return t
}
