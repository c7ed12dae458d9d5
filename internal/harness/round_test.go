//go:build unix

package harness

import (
	"syscall"
	"testing"
	"time"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/wl"
)

// BenchmarkSessionRound times one paper_figs-shaped round: the 35
// rows of Figures 6 and 7 in both modes, 70 runs at scale 0.1, one
// trial each. Each kernel's one input is built, recorded and checked
// on its first run; all 70 runs simulate a recording and match its
// tasks and spawns. It reports runs per second and process CPU
// milliseconds per run.
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

// BenchmarkFirstUse times an input's first use at paper_figs' scale
// (0.1), one sub-benchmark per kernel: build the input, record its
// kernel under wl.Record, check the output. It reports each step's
// wall milliseconds per input.
func BenchmarkFirstUse(b *testing.B) {
	for _, bn := range bench.All() {
		b.Run(bn.Name, func(b *testing.B) {
			n := max(int(float64(bn.DefaultN)*0.1), 1000)
			var build, record, check time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				load := bn.Build(n, int64(1009+i))
				t1 := time.Now()
				wl.Record(load.Root)
				t2 := time.Now()
				if err := load.Check(); err != nil {
					b.Fatal(err)
				}
				build, record, check = build+t1.Sub(t0), record+t2.Sub(t1), check+time.Since(t2)
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(build), "build_ms")
			b.ReportMetric(ms(record), "record_ms")
			b.ReportMetric(ms(check), "check_ms")
		})
	}
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
