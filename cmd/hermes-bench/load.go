package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hermes"
	"hermes/internal/metrics"
	"hermes/internal/sweep"
	"hermes/internal/trace"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// loadOpts parameterizes one open-loop load-generation run.
type loadOpts struct {
	// URL targets a running hermes-serve instance; empty runs against
	// an in-process Runtime instead.
	URL      string
	RPS      float64
	Duration time.Duration
	Spec     workload.Spec
	// Trace names the arrival process from the internal/trace registry
	// ("" = poisson).
	Trace string
	Seed  int64

	// In-process runtime shape (ignored when URL is set).
	Backend string
	Mode    string
	Workers int
	Buffer  int
	// Dispatch names the intake dispatch policy ("" = fifo) and
	// PreemptQuantum the ranked-dispatch preemption quantum. In-process
	// only: a remote hermes-serve configures its own intake.
	Dispatch       string
	PreemptQuantum time.Duration

	JSONPath string
	Verbose  bool
}

// loadSummary is the run's JSON result — the artifact CI's bench and
// sim-load jobs upload.
type loadSummary struct {
	Target   string        `json:"target"`
	Workload workload.Spec `json:"workload"`
	// Trace is the arrival process, normalized so the default poisson
	// process stays "" (byte-stable poisson-era artifacts).
	Trace string `json:"trace,omitempty"`
	// Dispatch is the intake policy, normalized so the default fifo
	// stays "" (byte-stable pre-class artifacts).
	Dispatch  string  `json:"dispatch,omitempty"`
	RPSTarget float64 `json:"rps_target"`
	DurationS float64 `json:"duration_s"`
	Submitted int64   `json:"submitted"`
	Completed int64   `json:"completed"`
	// Rejected counts requests that ultimately failed admission: every
	// 429 retry was consumed without an accepted submission. Retries
	// counts individual re-submissions after a 429 (several may serve
	// one eventually-accepted request); GaveUp counts requests whose
	// retry budget ran dry — always equal to Rejected on an HTTP
	// target, kept separate so the accounting is explicit.
	Rejected int64 `json:"rejected"`
	Retries  int64 `json:"retries,omitempty"`
	GaveUp   int64 `json:"gave_up,omitempty"`
	// Pruned counts jobs that completed but whose status record was
	// evicted from the server's retention window before the client
	// observed it: done, but with no sojourn sample. Included in
	// Completed.
	Pruned           int64   `json:"pruned"`
	Errors           int64   `json:"errors"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	P50SojournMS     float64 `json:"p50_sojourn_ms"`
	P95SojournMS     float64 `json:"p95_sojourn_ms"`
	P99SojournMS     float64 `json:"p99_sojourn_ms"`
	MaxSojournMS     float64 `json:"max_sojourn_ms"`
	PeakInflight     int64   `json:"peak_inflight"`
	JoulesPerRequest float64 `json:"joules_per_request"`
	DroppedEvents    uint64  `json:"dropped_events"`
	// Classes breaks the run down per service class when the trace is
	// mixed (any arrival carried a non-zero class); nil otherwise, so
	// single-class summaries keep their pre-class bytes. The flat
	// totals above always cover every class.
	Classes []classSummary `json:"classes,omitempty"`
}

// classSummary is one service class's slice of a mixed-trace load run.
type classSummary struct {
	Tenant    string `json:"tenant"`
	Priority  int    `json:"priority"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Rejected  int64  `json:"rejected,omitempty"`
	Retries   int64  `json:"retries,omitempty"`
	Errors    int64  `json:"errors"`

	P50SojournMS float64 `json:"p50_sojourn_ms"`
	P95SojournMS float64 `json:"p95_sojourn_ms"`
	P99SojournMS float64 `json:"p99_sojourn_ms"`

	// SLOTargetMS echoes the class's sojourn target; SLOAttainment is
	// the fraction of completed jobs that met it. Both absent for
	// classes without a target.
	SLOTargetMS   *float64 `json:"slo_target_ms,omitempty"`
	SLOAttainment *float64 `json:"slo_attainment,omitempty"`

	// JoulesPerRequest is per-class attributed energy; 0 (omitted)
	// against an HTTP target, which only exposes the aggregate.
	JoulesPerRequest float64 `json:"joules_per_request,omitempty"`
}

func (s loadSummary) String() string {
	out := fmt.Sprintf(
		"load %s %s: rps=%.0f dur=%.1fs submitted=%d completed=%d (pruned %d) rejected=%d retries=%d errors=%d\n"+
			"  throughput=%.1f req/s sojourn p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n"+
			"  peak-inflight=%d joules/req=%.4f dropped-events=%d",
		s.Target, s.Workload, s.RPSTarget, s.DurationS, s.Submitted, s.Completed, s.Pruned,
		s.Rejected, s.Retries, s.Errors,
		s.ThroughputRPS, s.P50SojournMS, s.P95SojournMS, s.P99SojournMS, s.MaxSojournMS,
		s.PeakInflight, s.JoulesPerRequest, s.DroppedEvents)
	for _, c := range s.Classes {
		out += fmt.Sprintf(
			"\n  class tenant=%q priority=%d: submitted=%d completed=%d rejected=%d retries=%d errors=%d "+
				"p50=%.2fms p95=%.2fms p99=%.2fms",
			c.Tenant, c.Priority, c.Submitted, c.Completed, c.Rejected, c.Retries, c.Errors,
			c.P50SojournMS, c.P95SojournMS, c.P99SojournMS)
		if c.SLOAttainment != nil {
			out += fmt.Sprintf(" slo=%.1f%%", *c.SLOAttainment*100)
		}
	}
	return out
}

// outcome classifies one request's fate.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeRejected
	// outcomePruned: the job completed but the server evicted its
	// record before we saw the final status — done, sojourn unknown.
	outcomePruned
)

// target abstracts where requests go: a remote hermes-serve or an
// in-process Runtime. do blocks from arrival to completion, carrying
// the request's service class to the target, and returns the 429
// retries this request consumed plus its attributed joules where the
// target knows them per job (in-process), else 0 with energy
// recovered from metrics.
type target interface {
	do(spec workload.Spec, class hermes.Class) (out outcome, retries int64, joules float64, err error)
	// finish returns (joules attributed to completed requests, dropped events).
	finish() (float64, uint64, error)
	// stats returns (429 retry attempts, requests whose retry budget
	// ran dry). Zero for targets that never retry (in-process).
	stats() (retries, gaveUp int64)
	name() string
}

// runLoad drives an open-loop seeded arrival process at opts.RPS for
// opts.Duration: arrivals are scheduled independently of completions
// (sojourn time includes queueing delay, the open-system metric), and
// every request is tracked to completion even past the arrival window.
// The schedule comes from the internal/trace registry — the SAME
// generator the sweep replays in virtual time — so `-load` and
// `-sweep` fire identical arrival sequences for identical (trace,
// rps, window, seed).
func runLoad(opts loadOpts) (loadSummary, error) {
	if opts.RPS <= 0 {
		return loadSummary{}, fmt.Errorf("load: rps must be positive, got %g", opts.RPS)
	}
	if opts.Duration <= 0 {
		return loadSummary{}, fmt.Errorf("load: duration must be positive, got %v", opts.Duration)
	}
	spec, err := opts.Spec.Validate()
	if err != nil {
		return loadSummary{}, err
	}
	opts.Spec = spec
	proc, err := trace.Resolve(opts.Trace)
	if err != nil {
		return loadSummary{}, err
	}
	dispatch, err := hermes.ParseDispatch(opts.Dispatch)
	if err != nil {
		return loadSummary{}, err
	}
	if opts.PreemptQuantum < 0 {
		return loadSummary{}, fmt.Errorf("load: preempt quantum must be non-negative, got %v", opts.PreemptQuantum)
	}
	if opts.URL != "" && (dispatch != hermes.DispatchFIFO || opts.PreemptQuantum > 0) {
		return loadSummary{}, fmt.Errorf("load: -dispatch/-quantum shape the in-process runtime; a remote hermes-serve configures its own intake")
	}

	// The in-process runtime's shape is parsed here, once, for both of
	// its paths.
	var mode hermes.Mode
	if opts.URL == "" {
		backend, err := hermes.ParseBackend(opts.Backend)
		if err != nil {
			return loadSummary{}, err
		}
		if mode, err = hermes.ParseMode(opts.Mode); err != nil {
			return loadSummary{}, err
		}
		if backend == hermes.Sim {
			// The simulator multiplexes jobs in virtual time: replay the
			// whole arrival trace deterministically instead of racing the
			// wall clock.
			return runVirtualLoad(opts, mode, dispatch)
		}
	}

	// Pre-draw the whole seeded schedule, then pace it against the
	// wall clock: each point carries its arrival offset and service
	// size.
	points, err := proc.Points(opts.Seed, opts.RPS, opts.Duration)
	if err != nil {
		return loadSummary{}, err
	}

	var tgt target
	if opts.URL != "" {
		tgt = &httpTarget{
			base:   opts.URL,
			client: &http.Client{Timeout: 60 * time.Second},
			rng:    rand.New(rand.NewSource(opts.Seed)),
		}
	} else {
		t, err := newInprocTarget(opts, mode, dispatch)
		if err != nil {
			return loadSummary{}, err
		}
		tgt = t
	}

	// A mixed trace (any arrival with a non-zero class) gets the
	// per-class breakdown; single-class traces skip it so their
	// summaries keep pre-class bytes.
	mixed := trace.Mixed(points)

	var (
		wg                  sync.WaitGroup
		mu                  sync.Mutex
		sojourns            []time.Duration
		classes             map[hermes.Class]*wallClassAcc
		submitted, rejected atomic.Int64
		pruned              atomic.Int64
		errs                atomic.Int64
		inflight, peak      atomic.Int64
	)
	if mixed {
		classes = make(map[hermes.Class]*wallClassAcc)
	}
	// classOf returns c's accumulator, creating it on first use.
	// Callers hold mu.
	classOf := func(c hermes.Class) *wallClassAcc {
		acc := classes[c]
		if acc == nil {
			acc = &wallClassAcc{}
			classes[c] = acc
		}
		return acc
	}
	start := time.Now()
	for _, pt := range points {
		due := start.Add(time.Duration(int64(pt.At / units.Nanosecond)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		spec := opts.Spec.Sized(pt.Size)
		class := pt.Class
		submitted.Add(1)
		if mixed {
			mu.Lock()
			classOf(class).submitted++
			mu.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := inflight.Add(1); n > peak.Load() {
				peak.Store(n) // racy max: diagnostics, not accounting
			}
			defer inflight.Add(-1)
			t0 := time.Now()
			out, retries, joules, err := tgt.do(spec, class)
			var acc *wallClassAcc
			if mixed {
				mu.Lock()
				acc = classOf(class)
				acc.retries += retries
				acc.joules += joules
				mu.Unlock()
			}
			switch {
			case err != nil:
				errs.Add(1)
				if acc != nil {
					mu.Lock()
					acc.errors++
					mu.Unlock()
				}
				if opts.Verbose {
					fmt.Fprintf(os.Stderr, "load: request error: %v\n", err)
				}
			case out == outcomeRejected:
				rejected.Add(1)
				if acc != nil {
					mu.Lock()
					acc.rejected++
					mu.Unlock()
				}
			case out == outcomePruned:
				pruned.Add(1)
				if acc != nil {
					mu.Lock()
					acc.pruned++
					mu.Unlock()
				}
			default:
				d := time.Since(t0)
				mu.Lock()
				sojourns = append(sojourns, d)
				if acc != nil {
					acc.sojourns = append(acc.sojourns, d)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	joules, dropped, err := tgt.finish()
	if err != nil {
		return loadSummary{}, err
	}
	retries, gaveUp := tgt.stats()

	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
	// Pruned jobs completed too — the server just evicted the record
	// before we read it — so they count toward completion and
	// throughput, while the sojourn percentiles cover measured jobs.
	completed := int64(len(sojourns)) + pruned.Load()
	sum := loadSummary{
		Target:        tgt.name(),
		Workload:      opts.Spec,
		Trace:         trace.Canonical(proc.Name),
		Dispatch:      sweep.CanonicalDispatch(dispatch),
		RPSTarget:     opts.RPS,
		DurationS:     elapsed.Seconds(),
		Submitted:     submitted.Load(),
		Completed:     completed,
		Rejected:      rejected.Load(),
		Retries:       retries,
		GaveUp:        gaveUp,
		Pruned:        pruned.Load(),
		Errors:        errs.Load(),
		ThroughputRPS: float64(completed) / elapsed.Seconds(),
		P50SojournMS:  percentileMS(sojourns, 0.50),
		P95SojournMS:  percentileMS(sojourns, 0.95),
		P99SojournMS:  percentileMS(sojourns, 0.99),
		MaxSojournMS:  percentileMS(sojourns, 1),
		PeakInflight:  peak.Load(),
		DroppedEvents: dropped,
	}
	if completed > 0 {
		sum.JoulesPerRequest = joules / float64(completed)
	}
	sum.Classes = classSummaries(classes)
	return sum, nil
}

// wallClassAcc accumulates one service class's wall-clock run.
type wallClassAcc struct {
	submitted, rejected int64
	pruned, errors      int64
	retries             int64
	joules              float64
	sojourns            []time.Duration
}

// classSummaries folds the per-class accumulators into deterministic
// summary rows, in the order the sweep's per-class artifact uses
// (sweep.ClassOrder). Nil in, nil out.
func classSummaries(classes map[hermes.Class]*wallClassAcc) []classSummary {
	if len(classes) == 0 {
		return nil
	}
	rows := make([]classSummary, 0, len(classes))
	for _, c := range sweep.ClassOrder(classes) {
		acc := classes[c]
		sort.Slice(acc.sojourns, func(i, j int) bool { return acc.sojourns[i] < acc.sojourns[j] })
		completed := int64(len(acc.sojourns)) + acc.pruned
		row := classSummary{
			Tenant:       c.Tenant,
			Priority:     c.Priority,
			Submitted:    acc.submitted,
			Completed:    completed,
			Rejected:     acc.rejected,
			Retries:      acc.retries,
			Errors:       acc.errors,
			P50SojournMS: percentileMS(acc.sojourns, 0.50),
			P95SojournMS: percentileMS(acc.sojourns, 0.95),
			P99SojournMS: percentileMS(acc.sojourns, 0.99),
		}
		if c.SLOTarget > 0 {
			target := time.Duration(int64(c.SLOTarget / units.Nanosecond))
			met := 0
			for _, d := range acc.sojourns {
				if d <= target {
					met++
				}
			}
			targetMS := float64(target.Nanoseconds()) / 1e6
			row.SLOTargetMS = &targetMS
			if n := len(acc.sojourns); n > 0 {
				att := float64(met) / float64(n)
				row.SLOAttainment = &att
			}
		}
		if completed > 0 {
			row.JoulesPerRequest = acc.joules / float64(completed)
		}
		rows = append(rows, row)
	}
	return rows
}

// percentileMS returns the p-quantile (0..1) of sorted durations in
// milliseconds, by the sweep's nearest-rank rule. It converts from
// nanoseconds so sub-millisecond sojourns (routine for simulated
// requests) keep their precision instead of truncating through whole
// microseconds.
func percentileMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[sweep.NearestRank(len(sorted), p)].Nanoseconds()) / 1e6
}

// --- in-process target ------------------------------------------------

// inprocTarget submits straight into a Runtime built for this run,
// with the same async-observer/metrics pipeline hermes-serve deploys.
type inprocTarget struct {
	rt   *hermes.Runtime
	reg  *metrics.Registry
	mu   sync.Mutex
	sumJ float64
}

// newInprocTarget builds the Native runtime of a wall-clock run; the
// Sim backend never gets here (runLoad replays it in virtual time).
func newInprocTarget(opts loadOpts, mode hermes.Mode, dispatch hermes.Dispatch) (*inprocTarget, error) {
	reg := metrics.New()
	hopts := []hermes.Option{
		hermes.WithBackend(hermes.Native),
		hermes.WithMode(mode),
		hermes.WithAsyncObserver(reg, opts.Buffer),
	}
	if opts.Workers > 0 {
		hopts = append(hopts, hermes.WithWorkers(opts.Workers))
	}
	if dispatch != hermes.DispatchFIFO {
		hopts = append(hopts, hermes.WithDispatch(dispatch))
	}
	if opts.PreemptQuantum > 0 {
		hopts = append(hopts, hermes.WithPreemptQuantum(units.Time(opts.PreemptQuantum)*units.Nanosecond))
	}
	rt, err := hermes.New(hopts...)
	if err != nil {
		return nil, err
	}
	reg.SetDropSource(rt.EventsDropped)
	return &inprocTarget{rt: rt, reg: reg}, nil
}

func (t *inprocTarget) name() string { return "in-process/" + t.rt.Backend().String() }

func (t *inprocTarget) do(spec workload.Spec, class hermes.Class) (outcome, int64, float64, error) {
	task, _, err := spec.Task()
	if err != nil {
		return outcomeOK, 0, 0, err
	}
	j, err := t.rt.Submit(context.Background(), task, hermes.WithClass(class))
	if err != nil {
		return outcomeOK, 0, 0, err
	}
	rep, err := j.Wait()
	if err != nil {
		return outcomeOK, 0, 0, err
	}
	t.mu.Lock()
	t.sumJ += rep.EnergyJ
	t.mu.Unlock()
	return outcomeOK, 0, rep.EnergyJ, nil
}

func (t *inprocTarget) finish() (float64, uint64, error) {
	err := t.rt.Close()
	t.mu.Lock()
	j := t.sumJ
	t.mu.Unlock()
	return j, t.rt.EventsDropped(), err
}

// stats: the in-process target has no admission tier, so nothing
// retries and nothing gives up.
func (t *inprocTarget) stats() (int64, int64) { return 0, 0 }

// --- HTTP target ------------------------------------------------------

// httpTarget drives a remote hermes-serve: POST the job, poll its
// status to completion, and recover energy per request from the
// /metrics delta at the end of the run.
type httpTarget struct {
	base    string
	client  *http.Client
	baseJ   float64
	baseSet bool
	// rng jitters the 429-retry backoff; guarded by mu (request
	// goroutines share it).
	rng *rand.Rand
	mu  sync.Mutex

	retries atomic.Int64 // re-submissions after a 429
	gaveUp  atomic.Int64 // requests whose retry budget ran dry
}

// 429-retry policy: an overloaded server sheds load transiently, so a
// rejected submission re-tries a few times with capped, seeded,
// jittered exponential backoff before the request counts as rejected.
const (
	submitAttempts   = 5
	retryBackoffBase = 50 * time.Millisecond
	retryBackoffCap  = 2 * time.Second
)

// retryDelay draws the pre-retry sleep for a zero-based attempt
// number: base·2^attempt, jittered by ×[0.5,1.5) to de-synchronize
// concurrent retriers, with the server's Retry-After (whole seconds)
// honored as a floor. Both are capped at retryBackoffCap.
func (t *httpTarget) retryDelay(attempt int, retryAfter string) time.Duration {
	d := retryBackoffBase << attempt
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	t.mu.Lock()
	jitter := 0.5 + t.rng.Float64()
	t.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		if ra := time.Duration(secs) * time.Second; ra > d {
			d = ra
		}
	}
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	return d
}

func (t *httpTarget) name() string { return t.base }

// jobEnergyTotal scrapes hermes_job_energy_joules_total.
func (t *httpTarget) jobEnergyTotal() (float64, uint64, error) {
	resp, err := t.client.Get(t.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	vals := metrics.ParseText(string(body))
	return vals["hermes_job_energy_joules_total"], uint64(vals["hermes_observer_dropped_events_total"]), nil
}

// prime records the pre-run energy baseline on first use.
func (t *httpTarget) prime() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.baseSet {
		return nil
	}
	j, _, err := t.jobEnergyTotal()
	if err != nil {
		return err
	}
	t.baseJ, t.baseSet = j, true
	return nil
}

// statusWait is the long-poll window requested per GET /jobs/{id}:
// the server holds the request until completion or this much time
// passes, so the measured sojourn carries none of the old fixed
// 2 ms poll-interval bias and idle polling disappears.
const statusWait = 5 * time.Second

func (t *httpTarget) do(spec workload.Spec, class hermes.Class) (outcome, int64, float64, error) {
	if err := t.prime(); err != nil {
		return outcomeOK, 0, 0, err
	}
	// The submit body embeds the spec so unclassed requests serialize
	// exactly as the pre-class client did; tenant and priority ride
	// along only when set.
	body, err := json.Marshal(struct {
		workload.Spec
		Tenant   string `json:"tenant,omitempty"`
		Priority int    `json:"priority,omitempty"`
	}{Spec: spec, Tenant: class.Tenant, Priority: class.Priority})
	if err != nil {
		return outcomeOK, 0, 0, err
	}
	var retried int64
	for attempt := 0; ; attempt++ {
		resp, err := t.client.Post(t.base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return outcomeOK, retried, 0, err
		}
		rb, _ := io.ReadAll(resp.Body)
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if attempt == submitAttempts-1 {
				t.gaveUp.Add(1)
				return outcomeRejected, retried, 0, nil
			}
			t.retries.Add(1)
			retried++
			time.Sleep(t.retryDelay(attempt, retryAfter))
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return outcomeOK, retried, 0, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
		}
		var acc struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(rb, &acc); err != nil {
			return outcomeOK, retried, 0, err
		}
		out, err := t.poll(acc.ID)
		return out, retried, 0, err
	}
}

// poll watches one job to completion, preferring the server's
// long-poll (?wait=). A server predating the wait parameter ignores
// it and answers immediately; when that happens (a "running" response
// arriving much faster than the requested window) poll degrades to
// client-side sleeps with exponential backoff instead of a tight
// 2 ms loop.
func (t *httpTarget) poll(id int64) (outcome, error) {
	backoff := 2 * time.Millisecond
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		reqStart := time.Now()
		resp, err := t.client.Get(fmt.Sprintf("%s/jobs/%d?wait=%s", t.base, id, statusWait))
		if err != nil {
			return outcomeOK, err
		}
		sb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		decodable := json.Unmarshal(sb, &st) == nil
		if resp.StatusCode == http.StatusGone && decodable && st.Status == "pruned" {
			// Completed but evicted from the server's retention window:
			// done, not failed.
			return outcomePruned, nil
		}
		if resp.StatusCode != http.StatusOK {
			return outcomeOK, fmt.Errorf("status: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(sb))
		}
		if !decodable {
			return outcomeOK, fmt.Errorf("status: bad body: %s", bytes.TrimSpace(sb))
		}
		switch st.Status {
		case "done":
			return outcomeOK, nil
		case "failed":
			return outcomeOK, fmt.Errorf("job %d failed: %s", id, st.Error)
		}
		if time.Since(reqStart) < statusWait/2 {
			// The server answered "running" without holding the
			// long-poll: fall back to client-side pacing.
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		}
	}
	return outcomeOK, fmt.Errorf("job %d: poll timeout", id)
}

func (t *httpTarget) stats() (int64, int64) { return t.retries.Load(), t.gaveUp.Load() }

func (t *httpTarget) finish() (float64, uint64, error) {
	j, dropped, err := t.jobEnergyTotal()
	if err != nil {
		return 0, 0, err
	}
	t.mu.Lock()
	base := t.baseJ
	t.mu.Unlock()
	return j - base, dropped, nil
}

// writeSummary prints the summary and optionally writes it as JSON.
func writeSummary(sum loadSummary, jsonPath string) error {
	fmt.Println(sum.String())
	return writeJSON(sum, jsonPath)
}

// writeJSON writes any summary value as indented JSON, if a path is
// given.
func writeJSON(sum any, jsonPath string) error {
	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}
