package main

import (
	"fmt"
	"time"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/harness"
)

// paper_figs regenerates the data behind the paper's Figures 6 and 7
// through the single-root driver: five self-verifying PBBS kernels ×
// {2,4,8,16} workers on SystemA and {2,3,4} on SystemB × {baseline,
// unified}, 70 simulated runs a round, one trial each. An operation is
// one simulated run: build the input, core.Run it, verify the output
// against the sequential reference. Each round draws fresh inputs
// (input seed = 1009·seed + round + 1).
//
// Input scale 0.1 makes a round about three seconds of host time, so a
// window holds several whole rounds and throughput is the median round
// rate over rounds of identical composition.
const (
	paperScale      = 0.1
	paperScaleSmall = 0.004
)

type paperRow struct {
	sys     *cpu.Spec
	b       *bench.Bench
	workers int
}

// paperGrid lists the 35 rows of Figures 6 and 7 in figure order.
func paperGrid() []paperRow {
	var rows []paperRow
	for _, sys := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
		workers := []int{2, 4, 8, 16}
		if sys.Name == "SystemB" {
			workers = []int{2, 3, 4}
		}
		for _, b := range bench.All() {
			for _, w := range workers {
				rows = append(rows, paperRow{sys, b, w})
			}
		}
	}
	return rows
}

// simRun is what the fidelity metrics and the digest need from one
// simulated run.
type simRun struct{ spanS, energyJ, steals float64 }

// paperRound runs one configuration after another with one input seed.
type paperRound struct {
	scale     float64
	inputSeed int64
	sess      *harness.Session
	tr        *tracer
	// opKernel remembers which kernel each traced operation ran, so
	// the core.run spans can be read per kernel.
	opKernel map[int64]string
}

func newPaperRound(scale float64, inputSeed int64, tr *tracer, opKernel map[int64]string) *paperRound {
	return &paperRound{
		scale:     scale,
		inputSeed: inputSeed,
		sess:      harness.NewSession(harness.Options{Trials: 1, Scale: scale, InputSeed: inputSeed}),
		tr:        tr,
		opKernel:  opKernel,
	}
}

// run executes one simulated run and returns its numbers and its host
// latency. Untraced, it is harness.Session.Run with one trial. Traced,
// it makes the three calls that method makes — Bench.Build, core.Run,
// Workload.Check — with the same input size and scheduler seed, one
// span around each, so both paths simulate bit-identical runs.
func (r *paperRound) run(row paperRow, mode core.Mode) (simRun, float64, error) {
	var out simRun
	t0 := time.Now()
	var err error
	if r.tr == nil {
		err = safely(func() {
			a := r.sess.Run(harness.Spec{System: row.sys, Bench: row.b, Workers: row.workers, Mode: mode})
			out = simRun{a.Span, a.Energy, a.Steals}
		})
	} else {
		n := int(float64(row.b.DefaultN) * r.scale)
		if n < 1000 {
			n = 1000
		}
		op := r.tr.op()
		r.opKernel[op] = row.b.Name
		root := r.tr.begin("paper.run", 0, op)
		err = safely(func() {
			s := r.tr.begin("bench.build", root, op)
			load := row.b.Build(n, r.inputSeed)
			r.tr.end(s)
			s = r.tr.begin("core.run", root, op)
			rep := core.Run(core.Config{
				Spec:    row.sys,
				Workers: row.workers,
				Mode:    mode,
				Seed:    r.inputSeed*7919 + 1,
			}, load.Root)
			r.tr.end(s)
			s = r.tr.begin("bench.check", root, op)
			cerr := load.Check()
			r.tr.end(s)
			if cerr != nil {
				panic(fmt.Sprintf("%s verification failed: %v", row.b.Name, cerr))
			}
			out = simRun{rep.Span.Seconds(), rep.EnergyJ, float64(rep.Steals)}
		})
		r.tr.end(root)
	}
	return out, float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

func runPaperFigs(sl slice) (outcome, error) {
	o := outcome{layer: map[string]float64{}}
	scale := paperScale
	if sl.small {
		scale = paperScaleSmall
	}
	grid := paperGrid()
	opKernel := map[int64]string{}

	// Set-up: a session and one run of every kernel in both modes on
	// the smallest machine, which pages in the kernels' code and grows
	// the heap to its working size. Its spans are not recorded.
	err := timeSetups(sl.setups, &o, func() error {
		warm := newPaperRound(scale, sl.seed*1009, nil, nil)
		for _, b := range bench.All() {
			for _, mode := range []core.Mode{core.Baseline, core.Unified} {
				if _, _, err := warm.run(paperRow{cpu.SystemB(), b, 2}, mode); err != nil {
					return fmt.Errorf("paper_figs warm-up: %w", err)
				}
			}
		}
		return nil
	}, nil)
	if err != nil {
		return o, err
	}

	rss := startRSSSampler(0)
	defer rss.finish()
	start := time.Now()
	var (
		rounds  int
		dig     digester
		saving  = map[string][]float64{} // by system name, round 0
		loss    = map[string][]float64{}
		joules0 float64
		runs0   int
	)
	for time.Since(start).Seconds() < sl.seconds || rounds == 0 {
		rd := newPaperRound(scale, sl.seed*1009+int64(rounds)+1, sl.tr, opKernel)
		var seg segment
		r0, cpu0 := time.Now(), selfCPUSeconds()
		for _, row := range grid {
			var pair [2]simRun
			ok := true
			for i, mode := range []core.Mode{core.Baseline, core.Unified} {
				o.attempted++
				res, lat, err := rd.run(row, mode)
				if err != nil {
					o.failed++
					o.violate("paper_figs %s %s w=%d %v: %v", row.sys.Name, row.b.Name, row.workers, mode, err)
					ok = false
					continue
				}
				seg.latMS = append(seg.latMS, lat)
				pair[i] = res
				seg.ops++
			}
			if rounds == 0 && ok {
				base, uni := pair[0], pair[1]
				saving[row.sys.Name] = append(saving[row.sys.Name], 100*(1-uni.energyJ/base.energyJ))
				loss[row.sys.Name] = append(loss[row.sys.Name], 100*(uni.spanS/base.spanS-1))
				joules0 += base.energyJ + uni.energyJ
				runs0 += 2
				label := fmt.Sprintf("%s/%s/%d", row.sys.Name, row.b.Name, row.workers)
				dig.add(label, base.spanS, base.energyJ, base.steals, uni.spanS, uni.energyJ, uni.steals)
			}
		}
		seg.sec, seg.cpuS = time.Since(r0).Seconds(), selfCPUSeconds()-cpu0
		o.segs = append(o.segs, seg)
		rounds++
	}
	o.rssMB = rss.mean()
	if runs0 > 0 {
		o.joules = joules0 / float64(runs0)
	}
	o.digest = dig.sum()

	// Fidelity of the reproduction, exact for a seed: means over the
	// first round's rows, all 35 and per system.
	all := func(m map[string][]float64) []float64 {
		return append(append([]float64(nil), m["SystemA"]...), m["SystemB"]...)
	}
	o.layer["harness.energy_saving_pct"] = mean(all(saving))
	o.layer["harness.energy_saving_pct_sysA"] = mean(saving["SystemA"])
	o.layer["harness.energy_saving_pct_sysB"] = mean(saving["SystemB"])
	o.layer["harness.time_loss_pct"] = mean(all(loss))
	o.layer["harness.time_loss_pct_sysA"] = mean(loss["SystemA"])
	o.layer["harness.time_loss_pct_sysB"] = mean(loss["SystemB"])
	o.layer["harness.round_s_p50"] = o.overSegments(func(s segment) (float64, bool) { return s.sec, true })

	if sl.tr != nil {
		spans := sl.tr.snapshot()
		sum := summarize(spans)
		perRound := func(name string) float64 {
			var ms float64
			for _, d := range sum.durMS[name] {
				ms += d
			}
			return ms / 1e3 / float64(rounds)
		}
		// Seconds of one 70-run round spent building inputs,
		// simulating, and verifying outputs.
		o.layer["harness.build_s"] = perRound("bench.build")
		o.layer["harness.simulate_s"] = perRound("core.run")
		o.layer["harness.verify_s"] = perRound("bench.check")
		byKernel := map[string][]float64{}
		for _, s := range spans {
			if s.Name == "core.run" {
				k := opKernel[s.Op]
				byKernel[k] = append(byKernel[k], float64(s.End-s.Start)/1e6)
			}
		}
		for _, b := range bench.All() {
			o.layer["bench."+b.Name+"_run_ms"] = median(byKernel[b.Name])
		}
	}
	return o, nil
}
