package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hermes/internal/core"
	"hermes/internal/obs"
	"hermes/internal/units"
)

// LatencyBuckets are the upper bounds (seconds) of the job-latency
// histogram, exponential from 1 ms to 60 s; an implicit +Inf bucket
// catches the rest.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Key identifies one labeled series slice: the workload kind plus the
// job's service class (tenant, priority). Unclassed jobs leave Tenant
// empty and Priority zero, and their series render with the workload
// label alone — the pre-tenancy scrape schema, byte for byte.
type Key struct {
	Kind     string
	Tenant   string
	Priority int
}

// classed reports whether the key carries a non-default service class
// and so renders tenant/priority labels.
func (k Key) classed() bool { return k.Tenant != "" || k.Priority != 0 }

// kindSeries is the per-(kind, class) slice of the labeled series:
// submissions and the sojourn histogram.
type kindSeries struct {
	submitted  int64
	latSum     float64
	latCount   int64
	latBuckets []int64 // per-bucket; cumulative is computed at scrape
}

// Registry renders the executor's ledger and the serving layer's job
// completions as scrapeable series. All methods are safe for
// concurrent use. Scheduler counters and machine energy are read from
// the ledger source at scrape time, so they are exact; job counts, job
// energy and latency arrive through JobSubmitted and JobDone, which the
// caller makes for every job it submits.
type Registry struct {
	mu         sync.Mutex
	jobsDone   int64
	jobEnergyJ float64
	byKind     map[Key]*kindSeries
	latSum     float64 // totals across kinds
	latCount   int64
	latBuckets []int64 // per-bucket totals across kinds, non-cumulative

	ledger     func() (core.MachineStats, error) // optional: SetLedger
	collectors []func(io.Writer) error
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		byKind:     make(map[Key]*kindSeries),
		latBuckets: make([]int64, len(LatencyBuckets)+1),
	}
}

// bucketFor returns the index of the latency bucket sec falls in
// (len(LatencyBuckets) = the +Inf bucket).
func bucketFor(sec float64) int {
	for i, ub := range LatencyBuckets {
		if sec <= ub {
			return i
		}
	}
	return len(LatencyBuckets)
}

// kind returns (creating if needed) the labeled series for one series
// key; r.mu must be held.
func (r *Registry) kind(k Key) *kindSeries {
	ks := r.byKind[k]
	if ks == nil {
		ks = &kindSeries{latBuckets: make([]int64, len(LatencyBuckets)+1)}
		r.byKind[k] = ks
	}
	return ks
}

// unknownKey labels the zeroed series a scrape renders before the
// first submission, so the labeled families are always present.
var unknownKey = Key{Kind: "unknown"}

// JobSubmitted records one accepted submission in the (workload,
// tenant, priority) series: hermes_jobs_submitted_total and
// hermes_jobs_started_total. Call it once the runtime accepts the job.
// Unclassed submissions (empty tenant, zero priority) keep the
// workload-only label set, so pre-tenancy scrape output is unchanged
// byte for byte.
func (r *Registry) JobSubmitted(kind, tenant string, priority int) {
	r.mu.Lock()
	r.kind(Key{Kind: kind, Tenant: tenant, Priority: priority}).submitted++
	r.mu.Unlock()
}

// JobDone records one completed job (success, cancellation or
// failure) from its report: the completion count, its attributed
// energy, and its sojourn in the key's latency series and in the
// all-kinds histogram. Call it once per job JobSubmitted counted.
func (r *Registry) JobDone(key Key, sojourn units.Time, energyJ float64) {
	sec := sojourn.Seconds()
	b := bucketFor(sec)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobsDone++
	r.jobEnergyJ += energyJ
	r.latSum += sec
	r.latCount++
	r.latBuckets[b]++
	ks := r.kind(key)
	ks.latSum += sec
	ks.latCount++
	ks.latBuckets[b]++
}

// SetLedger wires the registry to the executor's machine ledger (e.g.
// (*hermes.Runtime).MachineStats). Each scrape calls fn, outside the
// registry's lock, for the steal, tempo, DVFS and energy series;
// without it they read zero.
func (r *Registry) SetLedger(fn func() (core.MachineStats, error)) {
	r.mu.Lock()
	r.ledger = fn
	r.mu.Unlock()
}

// Observe ignores every event: the scheduler series come from the
// ledger. It keeps a Registry an obs.Observer for the benchmark's
// observer-tax rung (ROADMAP 1(e)).
func (r *Registry) Observe(obs.Event) {}

// Hist is a point-in-time copy of the all-kinds job-latency histogram.
// Buckets are non-cumulative counts per LatencyBuckets bound, with one
// extra trailing +Inf bucket. Two Hists taken at different times can be
// differenced with Sub to get a windowed histogram, which Quantile then
// summarizes — the controller's view of "p99 over the last tick".
type Hist struct {
	Buckets []int64
	Sum     float64 // seconds
	Count   int64
}

// Sub returns the windowed histogram h − prev (observations recorded
// after prev was taken). Counts never decrease, so the result is
// well-formed whenever prev was taken from the same registry earlier.
func (h Hist) Sub(prev Hist) Hist {
	out := Hist{
		Buckets: make([]int64, len(h.Buckets)),
		Sum:     h.Sum - prev.Sum,
		Count:   h.Count - prev.Count,
	}
	for i := range h.Buckets {
		out.Buckets[i] = h.Buckets[i]
		if i < len(prev.Buckets) {
			out.Buckets[i] -= prev.Buckets[i]
		}
	}
	return out
}

// Quantile estimates the q-th latency quantile (seconds) by linear
// interpolation within the bucket the rank falls in, the same estimate
// Prometheus's histogram_quantile computes. Returns 0 for an empty
// histogram; observations in the +Inf bucket report the last finite
// bound.
func (h Hist) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, n := range h.Buckets {
		if n <= 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(LatencyBuckets) {
			// +Inf bucket: the best finite statement is the last bound.
			return LatencyBuckets[len(LatencyBuckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = LatencyBuckets[i-1]
		}
		hi := LatencyBuckets[i]
		frac := (rank - float64(prev)) / float64(n)
		return lo + frac*(hi-lo)
	}
	return LatencyBuckets[len(LatencyBuckets)-1]
}

// LatencyHist returns a copy of the cumulative-since-boot job-latency
// histogram folded across workload kinds.
func (r *Registry) LatencyHist() Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Hist{
		Buckets: append([]int64(nil), r.latBuckets...),
		Sum:     r.latSum,
		Count:   r.latCount,
	}
}

// AddCollector appends an auxiliary series producer to scrapes: fn is
// invoked at the end of every WritePrometheus, after the registry's own
// series and outside its lock, so collectors may take their own locks
// freely. The serving controller uses this to publish hermes_control_*
// without the registry knowing about it.
func (r *Registry) AddCollector(fn func(io.Writer) error) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// WritePrometheus renders every series in the Prometheus text
// exposition format. Labeled families (submissions, the latency
// histogram) are broken down by workload kind, in sorted order so
// scrapes are stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	kinds := make([]Key, 0, len(r.byKind))
	for k := range r.byKind {
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		// Keep the labeled families present (zeroed) before the first
		// job, so scrapers and series checks see a stable schema.
		r.kind(unknownKey)
		kinds = append(kinds, unknownKey)
	}
	sort.Slice(kinds, func(i, j int) bool {
		a, b := kinds[i], kinds[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Priority < b.Priority
	})
	series := make([]kindSeries, len(kinds))
	var submitted int64
	for i, k := range kinds {
		ks := r.byKind[k]
		submitted += ks.submitted
		series[i] = kindSeries{
			submitted:  ks.submitted,
			latSum:     ks.latSum,
			latCount:   ks.latCount,
			latBuckets: append([]int64(nil), ks.latBuckets...),
		}
	}
	done, jobJ := r.jobsDone, r.jobEnergyJ
	ledger, collectors := r.ledger, r.collectors
	r.mu.Unlock()
	var ms core.MachineStats
	var err error
	if ledger != nil {
		if ms, err = ledger(); err != nil {
			return fmt.Errorf("metrics: read ledger: %w", err)
		}
	}
	var powerW float64
	if s := ms.Elapsed.Seconds(); s > 0 {
		powerW = ms.EnergyJ / s
	}

	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counter := func(name, help string, v any) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v any) {
		p("# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter("hermes_steals_total", "Successful task steals.", ms.Steals)
	counter("hermes_tempo_switches_total", "Worker tempo-level changes requested.", ms.TempoSwitches)
	counter("hermes_dvfs_commits_total", "Clock-domain frequency transitions that landed.", ms.DVFSCommits)
	counter("hermes_jobs_started_total", "Jobs handed to the runtime: accepted submissions.", submitted)
	counter("hermes_jobs_completed_total", "Jobs that completed (success, cancellation or failure).", done)
	gauge("hermes_jobs_inflight", "Jobs started and not yet completed.", submitted-done)
	gauge("hermes_power_watts", "Mean modeled machine power draw since start (energy over elapsed time); rate(hermes_energy_joules[1m]) is the windowed draw.", powerW)
	gauge("hermes_energy_joules", "Cumulative modeled machine energy since start.", ms.EnergyJ)
	counter("hermes_job_energy_joules_total", "Sum of per-job attributed energy over completed jobs.", jobJ)

	// Classed series carry tenant and priority labels after the
	// workload label; unclassed series render the workload label alone,
	// keeping the pre-tenancy scrape schema byte-identical.
	labels := func(k Key) string {
		if k.classed() {
			return fmt.Sprintf("workload=%q,tenant=%q,priority=\"%d\"", k.Kind, k.Tenant, k.Priority)
		}
		return fmt.Sprintf("workload=%q", k.Kind)
	}
	p("# HELP hermes_jobs_submitted_total Accepted job submissions by workload kind and service class.\n")
	p("# TYPE hermes_jobs_submitted_total counter\n")
	for i, k := range kinds {
		p("hermes_jobs_submitted_total{%s} %d\n", labels(k), series[i].submitted)
	}

	p("# HELP hermes_job_latency_seconds Job sojourn time from submission to completion, by workload kind and service class.\n")
	p("# TYPE hermes_job_latency_seconds histogram\n")
	for i, k := range kinds {
		ks := series[i]
		lk := labels(k)
		var cum int64
		for b, ub := range LatencyBuckets {
			cum += ks.latBuckets[b]
			p("hermes_job_latency_seconds_bucket{%s,le=%q} %d\n", lk, formatBound(ub), cum)
		}
		cum += ks.latBuckets[len(LatencyBuckets)]
		p("hermes_job_latency_seconds_bucket{%s,le=\"+Inf\"} %d\n", lk, cum)
		p("hermes_job_latency_seconds_sum{%s} %v\n", lk, ks.latSum)
		p("hermes_job_latency_seconds_count{%s} %d\n", lk, ks.latCount)
	}
	if err != nil {
		return err
	}
	for _, fn := range collectors {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal representation.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format, for mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// ParseText extracts series values from a Prometheus text exposition —
// the minimal reader the benchmark's serve_http client uses to diff
// /metrics scrapes without a client dependency. Unlabeled series map under their bare
// name. Labeled series map under the full "name{labels}" string AND
// fold (sum) into the bare name, so readers of the formerly-unlabeled
// totals — hermes_job_latency_seconds_count, the per-kind submission
// counter — keep working on labeled output. The bare-name fold is
// meaningful for counter families; for bucketed series it sums across
// le bounds and should be read via the full labeled keys instead.
func ParseText(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		if bare, _, labeled := strings.Cut(name, "{"); labeled {
			out[name] = v
			out[bare] += v
			continue
		}
		out[name] = v
	}
	return out
}
