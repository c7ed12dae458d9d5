package sweep

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hermes"
	"hermes/internal/trace"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// DefaultKneeFactor is the knee threshold every sweep uses: the curve
// has "kneed" once p99 sojourn exceeds 5× the unloaded p50.
const DefaultKneeFactor = 5.0

// TraceArrivals generates one grid point's arrival trace through the
// named process from the internal/trace registry ("" = poisson): the
// process draws seeded arrival times and per-arrival sizes, and every
// arrival runs the workload spec's task at its drawn size.
func TraceArrivals(spec workload.Spec, proc string, rps float64, window time.Duration, seed int64) ([]hermes.Arrival, error) {
	p, err := trace.Resolve(proc)
	if err != nil {
		return nil, err
	}
	spec, err = spec.Validate()
	if err != nil {
		return nil, err
	}
	return p.Arrivals(spec.SizedTask, seed, rps, window)
}

// Span is one job's residence interval in the system, from virtual
// arrival to virtual completion.
type Span struct {
	Arrive, Done units.Time
}

// PeakInflight returns the maximum number of jobs simultaneously in
// the system, counting each job from its arrival to its completion —
// not merely while executing — so queued-but-unstarted jobs deepen the
// measurement exactly as they deepen the system. An arrival and a
// completion at the same instant count the arrival first.
func PeakInflight(spans []Span) int64 {
	type edge struct {
		t units.Time
		d int64
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.Arrive, 1}, edge{s.Done, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d > edges[j].d
	})
	var depth, peak int64
	for _, e := range edges {
		depth += e.d
		if depth > peak {
			peak = depth
		}
	}
	return peak
}

// Knee returns the first rate whose p99 sojourn exceeds
// factor × unloadedP50 — the saturation knee of an open-system latency
// curve — or 0 when no grid point crosses the threshold. rates and
// p99MS run in parallel, rates ascending.
func Knee(rates []float64, p99MS []float64, unloadedP50MS, factor float64) float64 {
	if unloadedP50MS <= 0 || factor <= 0 {
		return 0
	}
	for i, r := range rates {
		if i < len(p99MS) && p99MS[i] > factor*unloadedP50MS {
			return r
		}
	}
	return 0
}

// Knee-unresolved reasons carried by Curve.KneeReason when KneeRPS is
// null.
const (
	// KneeReasonSingleRate: a one-rate grid has no unloaded baseline
	// distinct from its only loaded point, so no knee slope exists.
	KneeReasonSingleRate = "single-rate grid: no unloaded baseline to detect a knee against"
	// KneeReasonNoCrossing: no grid rate pushed p99 past the threshold.
	KneeReasonNoCrossing = "no rate in the grid crossed the knee threshold"
	// KneeReasonNoBaseline: the unloaded p50 was zero (no completions
	// at the lowest rate), leaving the threshold undefined.
	KneeReasonNoBaseline = "unloaded p50 is zero: knee threshold undefined"
)

// DetectKnee runs knee detection with explicit "no knee" semantics: it
// returns a pointer to the knee rate when one resolved, or nil plus a
// human-readable reason. A single-rate grid can never resolve a knee —
// its only point doubles as the unloaded baseline — and reporting that
// as a zero-value knee would read downstream as "knee at rate 0", so
// artifacts carry null instead (the hermes-bench -sweep bugfix).
func DetectKnee(rates []float64, p99MS []float64, unloadedP50MS, factor float64) (*float64, string) {
	if len(rates) < 2 {
		return nil, KneeReasonSingleRate
	}
	if unloadedP50MS <= 0 {
		return nil, KneeReasonNoBaseline
	}
	if k := Knee(rates, p99MS, unloadedP50MS, factor); k > 0 {
		return &k, ""
	}
	return nil, KneeReasonNoCrossing
}

// Tier is one DVFS frequency tier's share of the machine's busy time
// over a point's run.
type Tier struct {
	FreqKHz int64   `json:"freq_khz"`
	BusyS   float64 `json:"busy_s"`
	Frac    float64 `json:"frac"`
}

// latency is what every grid point reports first, whatever ran it:
// counts, depth, throughput and the pooled percentiles. Point and
// ClusterPoint embed it so their JSON keeps its field order. All latency
// quantities are virtual time at full picosecond resolution, pooled
// across the point's trials.
type latency struct {
	Arrivals     int64 `json:"arrivals"`
	Completed    int64 `json:"completed"`
	Errors       int64 `json:"errors"`
	PeakInflight int64 `json:"peak_inflight"`
	// MakespanS is the virtual time from the window's start to the last
	// completion, summed over trials; ObservedRPS is completions over
	// that time.
	MakespanS   float64 `json:"makespan_s"`
	ObservedRPS float64 `json:"observed_rps"`

	P50SojournMS float64 `json:"p50_sojourn_ms"`
	P95SojournMS float64 `json:"p95_sojourn_ms"`
	P99SojournMS float64 `json:"p99_sojourn_ms"`
	MaxSojournMS float64 `json:"max_sojourn_ms"`
	// Queueing delay is Sojourn − Span: time in the system before (or
	// between) execution, the pure open-system penalty.
	P50QueueMS float64 `json:"p50_queue_ms"`
	P95QueueMS float64 `json:"p95_queue_ms"`
	P99QueueMS float64 `json:"p99_queue_ms"`
}

// Point is the measured outcome of one (workload, mode, rate) grid
// point: the machines = 1 cell of the cluster grid.
type Point struct {
	OfferedRPS float64 `json:"offered_rps"`
	latency

	// JoulesPerRequest is the energy attributed to completed jobs (the
	// exact interval partition of the machine's draw while it served
	// them) per completed job.
	JoulesPerRequest float64 `json:"joules_per_request"`
	AvgPowerW        float64 `json:"avg_power_w"`
	StealsPerRequest float64 `json:"steals_per_request"`

	// Tiers is the machine's DVFS residency (share of busy core-time
	// per frequency), fastest tier first.
	Tiers []Tier `json:"tiers"`

	// Classes breaks the point down per service class when the trace
	// is mixed; absent (omitted from JSON) for unclassed traces, so
	// single-class artifacts keep their byte-exact shape.
	Classes []ClassPoint `json:"classes,omitempty"`
}

// ClassPoint is one service class's share of a grid point: its own
// latency percentiles, SLO attainment and energy per request —
// "who pays for energy savings", resolved per class.
type ClassPoint struct {
	Tenant    string `json:"tenant"`
	Priority  int    `json:"priority"`
	Arrivals  int64  `json:"arrivals"`
	Completed int64  `json:"completed"`
	Errors    int64  `json:"errors"`

	P50SojournMS float64 `json:"p50_sojourn_ms"`
	P95SojournMS float64 `json:"p95_sojourn_ms"`
	P99SojournMS float64 `json:"p99_sojourn_ms"`

	// SLOTargetMS echoes the class's sojourn target; SLOAttainment is
	// the fraction of completed jobs that met it. Both null for
	// classes without a target.
	SLOTargetMS   *float64 `json:"slo_target_ms,omitempty"`
	SLOAttainment *float64 `json:"slo_attainment,omitempty"`

	JoulesPerRequest float64 `json:"joules_per_request"`
}

// PointConfig parameterizes one grid point for RunPoint: the default
// poisson trace, one trial, FIFO dispatch.
type PointConfig struct {
	Workload workload.Spec
	Mode     hermes.Mode
	RPS      float64
	Window   time.Duration
	Seed     int64
	Workers  int // 0 = backend default
}

// RunPoint measures one grid point: one seeded trace replayed on a
// fresh simulated machine, percentiles over every completed job. The
// result is deterministic in the config.
func RunPoint(cfg PointConfig) (Point, error) {
	g := grid{workload: cfg.Workload, window: cfg.Window, seed: cfg.Seed, workers: cfg.Workers}
	f, err := g.point(fleet{mode: cfg.Mode, machines: 1}, cfg.RPS)
	if err != nil {
		return Point{}, err
	}
	return f.machinePoint(cfg.RPS), nil
}

// Fold renders one trial run outside the simulator — the wall-clock
// load generator's Native run — as a Point: its arrivals, offsets from
// the run's start, each one's report or error, in trace order, and the
// run's machine ledger.
func Fold(rps float64, arrivals []hermes.Arrival, reports []hermes.Report, errs []error, stats hermes.ClusterStats) Point {
	f := newFold(1)
	f.add(trialOut{arrivals: arrivals, reports: reports, errs: errs, stats: stats})
	return f.machinePoint(rps)
}

// Config describes a whole sweep: the grid plus shared run shape.
type Config struct {
	Workload workload.Spec
	// Trace names the arrival process from the internal/trace registry
	// ("" = poisson).
	Trace    string
	Modes    []hermes.Mode
	RatesRPS []float64 // ascending; Run sorts a copy if not
	Window   time.Duration
	Seed     int64
	Trials   int
	Workers  int
	// Dispatch names the intake dispatch policy every point runs under
	// ("" or "fifo" = arrival order, "priority", "edf").
	Dispatch string
	// PreemptQuantum caps uninterrupted execution under a ranked
	// dispatch policy (0 = jobs run to completion once started).
	PreemptQuantum time.Duration
	// Log, when non-nil, receives one progress line per completed point.
	Log func(string)
}

// Curve is one tempo mode's measured curve over the rate grid.
type Curve struct {
	Mode string `json:"mode"`
	// UnloadedP50MS is the p50 sojourn at the grid's lowest rate — the
	// knee detector's baseline for "unloaded" latency.
	UnloadedP50MS float64 `json:"unloaded_p50_ms"`
	// KneeRPS is the first rate whose p99 sojourn exceeds
	// KneeFactor × UnloadedP50MS, or null when no knee resolved —
	// KneeReason says why (single-rate grid, no crossing). Null is
	// deliberate: a zero value would read as "knee at rate 0" to model
	// loaders.
	KneeRPS *float64 `json:"knee_rps"`
	// KneeReason explains a null KneeRPS; empty when a knee resolved.
	KneeReason string  `json:"knee_reason,omitempty"`
	Points     []Point `json:"points"`
}

// Knee returns the curve's resolved knee rate, reporting false when
// knee detection could not resolve one (KneeRPS is null).
func (c Curve) Knee() (float64, bool) { return kneeOf(c.KneeRPS) }

// Result is the sweep artifact: one curve per tempo mode over the
// shared rate grid. It marshals deterministically for a fixed config.
type Result struct {
	Workload workload.Spec `json:"workload"`
	// Trace is the arrival process the grid ran under, normalized so
	// the default poisson process stays "" — poisson-era artifacts
	// keep their byte-exact shape.
	Trace    string    `json:"trace,omitempty"`
	RatesRPS []float64 `json:"rates_rps"`
	WindowS  float64   `json:"window_s"`
	Seed     int64     `json:"seed"`
	Trials   int       `json:"trials"`
	// Workers is the pool width the trials simulated: the backend's
	// default when Config.Workers is 0.
	Workers    int     `json:"workers"`
	KneeFactor float64 `json:"knee_factor"`
	// Dispatch is the intake policy the grid ran under, normalized so
	// the default FIFO stays "" — pre-dispatch artifacts keep their
	// byte-exact shape. PreemptQuantumMS is the ranked-dispatch
	// quantum, 0 (omitted) when jobs run to completion.
	Dispatch         string  `json:"dispatch,omitempty"`
	PreemptQuantumMS float64 `json:"preempt_quantum_ms,omitempty"`
	Curves           []Curve `json:"curves"`
}

// Run executes the whole grid and assembles the artifact.
func Run(cfg Config) (Result, error) {
	g, err := grid{
		workload: cfg.Workload, trace: cfg.Trace, rates: cfg.RatesRPS, window: cfg.Window,
		seed: cfg.Seed, trials: cfg.Trials, workers: cfg.Workers,
		dispatch: cfg.Dispatch, quantum: cfg.PreemptQuantum,
		log: cfg.Log,
	}.validate()
	if err != nil {
		return Result{}, err
	}
	if len(cfg.Modes) == 0 {
		return Result{}, fmt.Errorf("sweep: no tempo modes given")
	}
	res := Result{
		Workload:         g.workload,
		Trace:            trace.Canonical(g.trace),
		RatesRPS:         g.rates,
		WindowS:          g.window.Seconds(),
		Seed:             g.seed,
		Trials:           g.trials,
		KneeFactor:       DefaultKneeFactor,
		Dispatch:         g.canonicalDispatch(),
		PreemptQuantumMS: g.quantumMS(),
	}
	for _, mode := range cfg.Modes {
		curve := Curve{Mode: mode.String()}
		var p99s []float64
		for _, rate := range g.rates {
			f, err := g.point(fleet{mode: mode, machines: 1}, rate)
			if err != nil {
				return Result{}, fmt.Errorf("sweep: %s @ %g rps: %w", mode, rate, err)
			}
			pt := f.machinePoint(rate)
			res.Workers = f.workers
			curve.Points = append(curve.Points, pt)
			p99s = append(p99s, pt.P99SojournMS)
			if g.log != nil {
				g.log(fmt.Sprintf("sweep %s %s @ %g rps: p50=%.3fms p99=%.3fms J/req=%.4f peak=%d",
					g.workload.Kind, mode, rate, pt.P50SojournMS, pt.P99SojournMS, pt.JoulesPerRequest, pt.PeakInflight))
			}
		}
		curve.UnloadedP50MS = curve.Points[0].P50SojournMS
		curve.KneeRPS, curve.KneeReason = DetectKnee(g.rates, p99s, curve.UnloadedP50MS, DefaultKneeFactor)
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// kneeOf unpacks a curve's nullable knee.
func kneeOf(k *float64) (float64, bool) {
	if k == nil {
		return 0, false
	}
	return *k, true
}

// kneeCSV renders a curve's knee for a CSV cell: the rate, or empty
// when no knee resolved (never a synthetic 0).
func kneeCSV(k *float64) string {
	if k == nil {
		return ""
	}
	return fmt.Sprintf("%g", *k)
}

// kneeNote renders the parenthesis that heads a curve's table: the
// unloaded p50 and where, if anywhere, the curve kneed.
func kneeNote(unloadedP50MS float64, knee *float64, factor float64, rates []float64) string {
	if k, ok := kneeOf(knee); ok {
		return fmt.Sprintf("(unloaded p50 %.3fms, knee @ %g rps ×%g)", unloadedP50MS, k, factor)
	}
	return fmt.Sprintf("(unloaded p50 %.3fms, no knee ≤ %g rps)", unloadedP50MS, rates[len(rates)-1])
}

// latencyCSV renders the cells every flat sweep row shares, between its
// key columns and its energy columns.
func (l latency) latencyCSV() string {
	return fmt.Sprintf("%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f",
		l.Arrivals, l.Completed, l.Errors, l.PeakInflight, l.ObservedRPS,
		l.P50SojournMS, l.P95SojournMS, l.P99SojournMS, l.MaxSojournMS,
		l.P50QueueMS, l.P95QueueMS, l.P99QueueMS)
}

const (
	latencyCSVHeader = "arrivals,completed,errors,peak_inflight,observed_rps," +
		"p50_sojourn_ms,p95_sojourn_ms,p99_sojourn_ms,max_sojourn_ms," +
		"p50_queue_ms,p95_queue_ms,p99_queue_ms,"
	classCSVHeader = "tenant,priority,arrivals,completed,errors," +
		"p50_sojourn_ms,p95_sojourn_ms,p99_sojourn_ms," +
		"slo_target_ms,slo_attainment,joules_per_request\n"
)

// classRows renders one point's per-class rows, each behind the point's
// key columns.
func classRows(b *strings.Builder, key string, classes []ClassPoint) {
	for _, cp := range classes {
		target, attain := "", ""
		if cp.SLOTargetMS != nil {
			target = fmt.Sprintf("%g", *cp.SLOTargetMS)
		}
		if cp.SLOAttainment != nil {
			attain = fmt.Sprintf("%.6f", *cp.SLOAttainment)
		}
		fmt.Fprintf(b, "%s,%s,%d,%d,%d,%d,%.6f,%.6f,%.6f,%s,%s,%.8f\n",
			key, cp.Tenant, cp.Priority,
			cp.Arrivals, cp.Completed, cp.Errors,
			cp.P50SojournMS, cp.P95SojournMS, cp.P99SojournMS,
			target, attain, cp.JoulesPerRequest)
	}
}

// classTable renders one point's per-class rows for String, indented
// under the point's row, from the fields classRows writes to the CSV.
// A class without an SLO target shows "-" for its attainment.
func classTable(b *strings.Builder, classes []ClassPoint) {
	for _, cp := range classes {
		attain := "-"
		if cp.SLOAttainment != nil {
			attain = fmt.Sprintf("%.4f", *cp.SLOAttainment)
		}
		fmt.Fprintf(b, "    class %-10s prio %-3d p50ms %-8.3f p99ms %-8.3f slo %-6s J/req %.4f\n",
			cp.Tenant, cp.Priority, cp.P50SojournMS, cp.P99SojournMS, attain, cp.JoulesPerRequest)
	}
}

// CSV renders the sweep flat, one row per (mode, rate) point, with the
// tier residency packed as freqkHz:frac pairs.
func (r Result) CSV() string {
	var b strings.Builder
	b.WriteString("mode,offered_rps," + latencyCSVHeader +
		"joules_per_request,avg_power_w,steals_per_request,knee_rps,tier_residency\n")
	for _, c := range r.Curves {
		for _, p := range c.Points {
			tiers := make([]string, len(p.Tiers))
			for i, t := range p.Tiers {
				tiers[i] = fmt.Sprintf("%d:%.6f", t.FreqKHz, t.Frac)
			}
			fmt.Fprintf(&b, "%s,%g,%s,%.8f,%.6f,%.6f,%s,%s\n",
				c.Mode, p.OfferedRPS, p.latencyCSV(),
				p.JoulesPerRequest, p.AvgPowerW, p.StealsPerRequest, kneeCSV(c.KneeRPS),
				strings.Join(tiers, ";"))
		}
	}
	return b.String()
}

// ClassCSV renders the per-class breakdown flat, one row per
// (mode, rate, class). Empty string when the result has no class rows,
// so callers can skip the file entirely for unclassed traces.
func (r Result) ClassCSV() string {
	var b strings.Builder
	for _, c := range r.Curves {
		for _, p := range c.Points {
			classRows(&b, fmt.Sprintf("%s,%g", c.Mode, p.OfferedRPS), p.Classes)
		}
	}
	if b.Len() == 0 {
		return ""
	}
	return "mode,offered_rps," + classCSVHeader + b.String()
}

// String renders the sweep as one compact table per mode, with a mixed
// trace's per-class rows under each point.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "open-system sweep: %s, window=%.3gs, seed=%d, trials=%d, workers=%d\n",
		r.Workload, r.WindowS, r.Seed, r.Trials, r.Workers)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "mode %s %s\n", c.Mode, kneeNote(c.UnloadedP50MS, c.KneeRPS, r.KneeFactor, r.RatesRPS))
		b.WriteString("  rps      p50ms    p99ms    queue99  J/req    avgW     steals/req  peak\n")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %-8g %-8.3f %-8.3f %-8.3f %-8.4f %-8.2f %-11.3f %d\n",
				p.OfferedRPS, p.P50SojournMS, p.P99SojournMS, p.P99QueueMS,
				p.JoulesPerRequest, p.AvgPowerW, p.StealsPerRequest, p.PeakInflight)
			classTable(&b, p.Classes)
		}
	}
	return b.String()
}
