//go:build unix

package harness

import (
	"syscall"
	"testing"
	"time"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
)

// BenchmarkSessionRound times one paper_figs-shaped round: the 35
// rows of Figures 6 and 7 in both modes, 70 runs at scale 0.1, one
// trial each, every run recorded, simulated and checked. It reports
// runs per second and process CPU milliseconds per run.
func BenchmarkSessionRound(b *testing.B) {
	var runs int
	var cpuS float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := NewSession(Options{Trials: 1, Scale: 0.1, InputSeed: int64(1009 + i)})
		c0 := cpuSeconds()
		for _, sys := range []*cpu.Spec{cpu.SystemA(), cpu.SystemB()} {
			for _, bn := range bench.All() {
				for _, w := range workerCounts(sys) {
					for _, mode := range []core.Mode{core.Baseline, core.Unified} {
						s.Run(Spec{System: sys, Bench: bn, Workers: w, Mode: mode})
						runs++
					}
				}
			}
		}
		cpuS += cpuSeconds() - c0
	}
	b.ReportMetric(float64(runs)/time.Since(start).Seconds(), "runs/s")
	b.ReportMetric(1e3*cpuS/float64(runs), "cpu-ms/run")
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
