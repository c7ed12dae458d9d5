package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The four workloads, in the order every listing uses. Later issues
// refer to them by these names.
var workloadNames = []string{"paper_figs", "sim_sweep", "native_forkjoin", "serve_http"}

// runners maps a workload name to the function that runs one slice.
var runners = map[string]func(slice) (outcome, error){
	"paper_figs":      runPaperFigs,
	"sim_sweep":       runSimSweep,
	"native_forkjoin": runNativeForkJoin,
	"serve_http":      runServeHTTP,
}

// slice sizes one run of one workload.
type slice struct {
	seed int64
	// seconds is the timed window. Round-based workloads (paper_figs,
	// sim_sweep) run whole rounds while the window is open and always
	// at least one, so the window may overrun by one round.
	seconds float64
	// small shrinks every operation about fifty-fold (the -smoke mode
	// and the tests); the numbers then mean nothing, the names and the
	// checks still do.
	small bool
	// setups is how many times set-up runs before the window; the
	// outcome carries every duration and the report takes the median.
	setups int
	// tr records spans when non-nil. The traced path makes the calls
	// the layers' own drivers make, one span around each.
	tr *tracer
	// serveBin is the hermes-serve binary serve_http starts.
	serveBin string
}

// segment is one stretch of a window: a round of a round-based
// workload, a fifth of the window of the others.
type segment struct {
	ops   int       // operations completed in it
	sec   float64   // its host seconds
	cpuS  float64   // CPU seconds the program under test used in it
	latMS []float64 // latency of each operation a caller waited for in it
}

// outcome is what one slice measured.
type outcome struct {
	attempted, failed int
	// segs cuts the window into segments. Every end-to-end timing is a
	// statistic taken inside each segment and then the median over the
	// segments: the host slows for a second or two every so often, which
	// moves one segment and leaves the median alone.
	segs   []segment
	rssMB  float64 // mean resident set of the program under test over the window
	joules float64 // model joules per operation
	setupS []float64
	// layer holds the per-layer metrics this slice can tell.
	layer map[string]float64
	// digest identifies every simulated report of the slice's first
	// round; empty for workloads that simulate nothing.
	digest string
	// violations lists failed correctness checks; any entry makes the
	// run incorrect.
	violations []string
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// overSegments returns the median over the segments of a statistic of
// one segment, skipping segments it is undefined on.
func (o outcome) overSegments(stat func(segment) (float64, bool)) float64 {
	var xs []float64
	for _, s := range o.segs {
		if x, ok := stat(s); ok {
			xs = append(xs, x)
		}
	}
	return median(xs)
}

// throughput is the median segment rate in operations per second.
func (o outcome) throughput() float64 {
	return o.overSegments(func(s segment) (float64, bool) { return float64(s.ops) / s.sec, s.sec > 0 })
}

// latencies returns every latency of the window.
func (o outcome) latencies() []float64 {
	var all []float64
	for _, s := range o.segs {
		all = append(all, s.latMS...)
	}
	return all
}

// latency is the median over the segments of each segment's
// p-quantile latency.
func (o outcome) latency(p float64) float64 {
	return o.overSegments(func(s segment) (float64, bool) { return percentile(s.latMS, p), len(s.latMS) > 0 })
}

// endToEnd derives the end-to-end metrics from an outcome.
func (o outcome) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":          median(o.setupS),
		"throughput_per_s": o.throughput(),
		"latency_p50_ms":   o.latency(0.50),
		"cpu_ms_per_op": o.overSegments(func(s segment) (float64, bool) {
			return s.cpuS * 1e3 / float64(s.ops), s.ops > 0
		}),
		"rss_mb":        o.rssMB,
		"joules_per_op": o.joules,
	}
}

// timeSetups runs setup n times (at least once), records each
// duration, tears down all but the last with teardown, and collects
// garbage so the window starts from a settled heap.
func timeSetups(n int, o *outcome, setup func() error, teardown func()) error {
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		if i < n-1 && teardown != nil {
			teardown()
		}
	}
	runtime.GC()
	return nil
}

// safely runs fn and turns a panic into an error: the harness and the
// legacy core.Run report a failed verification or a bad config by
// panicking, and the benchmark must count that, not die of it.
func safely(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// digester accumulates the simulated numbers of a round into one
// hash. Floats enter by their shortest exact decimal form, so equal
// digests mean bit-equal reports.
type digester struct{ b strings.Builder }

func (d *digester) add(label string, vals ...float64) {
	d.b.WriteString(label)
	for _, v := range vals {
		d.b.WriteByte(' ')
		d.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	d.b.WriteByte('\n')
}

func (d *digester) sum() string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(d.b.String())))[:16]
}
