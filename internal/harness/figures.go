package harness

import (
	"fmt"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/units"
)

// figureFns maps paper figure numbers to their regenerators. The
// paper's evaluation is closed-system; open-system experiments (load
// curves, cluster placement, fault injection, service classes) are
// `hermes-bench -sweep` runs, not figures.
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
