package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hermes"
	"hermes/internal/control"
	"hermes/internal/metrics"
	"hermes/internal/workload"
)

// server exposes one hermes.Runtime as an HTTP job-submission
// service: POST /jobs runs a parameterized synthetic workload, GET
// /jobs/{id} reports its status, GET /metrics serves the runtime's
// machine ledger and the fold of every job's report as Prometheus
// text, GET /healthz liveness.
type server struct {
	rt  *hermes.Runtime
	reg *metrics.Registry

	// ctl is the knee-aware admission controller (nil = none, every
	// request admitted); trace captures accepted arrivals for the
	// /capacity replay (nil = capture off).
	ctl   *control.Controller
	trace *traceRing

	// inflight is the admission-control semaphore: a slot is held from
	// accepted POST to job completion, and a full semaphore turns new
	// submissions away with 429 instead of letting an open-loop client
	// queue without bound.
	inflight    chan struct{}
	maxInflight int
	peak        atomic.Int64 // high-water mark of concurrently in-flight jobs

	jobTimeout time.Duration
	// retainDone bounds how many completed job records stay queryable
	// before eviction (pruned jobs answer 410, not 404).
	retainDone int

	mu   sync.Mutex
	jobs map[int64]*jobRecord
	// doneOrder lists completed job ids oldest-first; records beyond
	// retainDone are pruned so a long-lived server's job index stays
	// bounded. failedPruned remembers which evicted jobs had FAILED,
	// exactly for the most recent retainDone evicted failures; once
	// that memory itself overflows, failedForgotten rises and ids at
	// or below it answer "unknown" rather than "pruned" — eviction
	// degrades to ambiguity, never to claiming success for a failure.
	doneOrder       []int64
	failedPruned    map[int64]bool
	failedOrder     []int64
	failedForgotten int64
	// maxID is the highest job id this server has accepted. Every id
	// in [1, maxID] was a real job (the runtime assigns them
	// monotonically and this server is its only submitter), so an id
	// at or below the watermark that is missing from the index was
	// completed and pruned — not unknown.
	maxID   int64
	started time.Time
}

// defaultRetainDone bounds how many completed job records stay
// queryable when the server is built with retain <= 0.
const defaultRetainDone = 4096

// maxStatusWait caps GET /jobs/{id}?wait= long-polls so a client
// cannot pin a handler goroutine indefinitely.
const maxStatusWait = 30 * time.Second

// jobRecord tracks one submitted job from HTTP accept to completion.
type jobRecord struct {
	spec      workload.Spec
	class     hermes.Class
	submitted time.Time
	j         *hermes.Job

	mu       sync.Mutex
	finished time.Time // zero while running
}

func (rec *jobRecord) finish(at time.Time) {
	rec.mu.Lock()
	rec.finished = at
	rec.mu.Unlock()
}

func (rec *jobRecord) finishedAt() (time.Time, bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.finished, !rec.finished.IsZero()
}

func newServer(rt *hermes.Runtime, reg *metrics.Registry, maxInflight int, jobTimeout time.Duration) *server {
	if maxInflight < 1 {
		maxInflight = 1024
	}
	return &server{
		rt:           rt,
		reg:          reg,
		inflight:     make(chan struct{}, maxInflight),
		maxInflight:  maxInflight,
		jobTimeout:   jobTimeout,
		retainDone:   defaultRetainDone,
		jobs:         make(map[int64]*jobRecord),
		failedPruned: make(map[int64]bool),
		started:      time.Now(),
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleIndex)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /workloads", s.handleWorkloads)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /capacity", s.handleCapacity)
	mux.HandleFunc("GET /controlz", s.handleControlz)
	return mux
}

// writeJSON renders v with the given status; encoding errors at this
// point can only be I/O on a dead connection, so they are dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// raisePeak lifts the in-flight high-water mark to n. The
// compare-and-swap loop keeps a submitter holding a stale smaller n
// from overwriting a larger peak another submitter just stored.
func (s *server) raisePeak(n int64) {
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
}

// submitRequest is the POST /jobs body: a workload spec plus the
// optional service class (tenant, priority). Both default to the
// unclassed job, so every pre-tenancy client body still parses.
type submitRequest struct {
	workload.Spec
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad job spec: data after the JSON object")
		return
	}
	if req.Priority < 0 {
		writeError(w, http.StatusBadRequest, "bad priority %d (must be non-negative)", req.Priority)
		return
	}
	task, spec, err := req.Spec.Task()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	class := hermes.Class{Tenant: req.Tenant, Priority: req.Priority}

	// Admission control, two layers: the knee-aware controller sheds
	// lowest-priority-first when live signals say the machine is past
	// its calibrated capacity; the in-flight semaphore is the hard
	// backstop either way.
	if s.ctl != nil && !s.ctl.AdmitPriority(req.Priority) {
		shedError(w)
		return
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"max in-flight jobs reached (%d); retry later", s.maxInflight)
		return
	}
	s.raisePeak(int64(len(s.inflight)))

	// The job outlives this request; its lifetime is bounded by the
	// optional server-side timeout, not by the client connection.
	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if s.jobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.jobTimeout)
	}
	rec := &jobRecord{spec: spec, class: class, submitted: time.Now()}
	j, err := s.rt.Submit(ctx, task, hermes.WithClass(class))
	if err != nil {
		cancel()
		<-s.inflight
		writeError(w, http.StatusServiceUnavailable, "submit failed: %v", err)
		return
	}
	rec.j = j
	s.mu.Lock()
	s.jobs[j.ID()] = rec
	if j.ID() > s.maxID {
		s.maxID = j.ID()
	}
	s.mu.Unlock()
	// Count the submission in its (workload, tenant, priority) series
	// and capture the arrival for /capacity replays. The job's own
	// report is the only source of its completion telemetry.
	key := metrics.Key{Kind: spec.Kind, Tenant: class.Tenant, Priority: class.Priority}
	s.reg.JobSubmitted(key.Kind, key.Tenant, key.Priority)
	if s.trace != nil {
		s.trace.record(spec)
	}
	go func() {
		defer cancel()
		rep, _ := j.Wait()
		s.reg.JobDone(key, rep.Sojourn, rep.EnergyJ)
		rec.finish(time.Now())
		<-s.inflight
		s.pruneDone(j.ID())
	}()
	resp := map[string]any{
		"id":       j.ID(),
		"status":   "running",
		"workload": spec,
		"href":     fmt.Sprintf("/jobs/%d", j.ID()),
	}
	// Classed submissions echo the class back; unclassed responses keep
	// the pre-tenancy body shape.
	if !class.IsZero() {
		resp["tenant"] = class.Tenant
		resp["priority"] = class.Priority
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// jobStatusJSON is the GET /jobs/{id} response body.
type jobStatusJSON struct {
	ID       int64         `json:"id"`
	Status   string        `json:"status"` // running | done | failed | pruned | unknown
	Workload workload.Spec `json:"workload"`
	// Tenant and Priority echo the job's service class; omitted for
	// unclassed jobs so pre-tenancy bodies are unchanged.
	Tenant    string     `json:"tenant,omitempty"`
	Priority  int        `json:"priority,omitempty"`
	SojournMS float64    `json:"sojourn_ms,omitempty"`
	Error     string     `json:"error,omitempty"`
	Report    *reportOut `json:"report,omitempty"`
}

// reportOut is the wire shape of a completed job's hermes.Report.
// SojournMS here is the backend's own measurement — virtual time on
// the Sim backend, wall clock on Native — whereas the enclosing
// sojourn_ms is always the HTTP layer's wall-clock accept-to-finish.
type reportOut struct {
	SpanMS        float64 `json:"span_ms"`
	SojournMS     float64 `json:"sojourn_ms"`
	EnergyJ       float64 `json:"energy_j"`
	AvgPowerW     float64 `json:"avg_power_w"`
	Tasks         int64   `json:"tasks"`
	Spawns        int64   `json:"spawns"`
	Steals        int64   `json:"steals"`
	TempoSwitches int64   `json:"tempo_switches"`
	DVFSCommits   int64   `json:"dvfs_commits"`
}

// handleStatus reports one job's state. ?wait=<dur> long-polls: the
// handler holds the request until the job completes or the wait
// (capped at 30s) elapses, then answers with the current state —
// removing the poll-interval bias from sojourn measurements and the
// poll storm from high in-flight counts. Completed jobs evicted from
// the bounded retention window answer 410 with status "pruned": the
// job finished, only its record is gone — clients must not read it as
// a failure.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, "bad wait %q (want a duration like 500ms)", ws)
			return
		}
		if wait > maxStatusWait {
			wait = maxStatusWait
		}
	}
	s.mu.Lock()
	rec := s.jobs[id]
	pruned := rec == nil && id >= 1 && id <= s.maxID
	failed := pruned && s.failedPruned[id]
	ambiguous := pruned && !failed && id <= s.failedForgotten
	s.mu.Unlock()
	if rec == nil {
		switch {
		case failed:
			// The record is gone but the outcome was a failure: report
			// it as one, so clients cannot mistake eviction for
			// success.
			writeJSON(w, http.StatusGone, jobStatusJSON{ID: id, Status: "failed",
				Error: "job failed; record evicted from the retention window"})
		case ambiguous:
			// Old enough that a failure record for it could itself have
			// been evicted: the outcome is genuinely unknown, which
			// clients must not count as success.
			writeJSON(w, http.StatusGone, jobStatusJSON{ID: id, Status: "unknown",
				Error: "record evicted; outcome no longer known"})
		case pruned:
			writeJSON(w, http.StatusGone, jobStatusJSON{ID: id, Status: "pruned"})
		default:
			writeError(w, http.StatusNotFound, "no such job %d", id)
		}
		return
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-rec.j.Done():
		case <-t.C:
		case <-r.Context().Done():
		}
		t.Stop()
	}
	out := jobStatusJSON{ID: id, Status: "running", Workload: rec.spec,
		Tenant: rec.class.Tenant, Priority: rec.class.Priority}
	if rep, jobErr, done := rec.j.Report(); done {
		out.Status = "done"
		if jobErr != nil {
			out.Status = "failed"
			out.Error = jobErr.Error()
		}
		// The completion goroutine records the finish timestamp just
		// after the job future resolves; in the tiny window where the
		// job is done but the record isn't stamped yet, "now" is the
		// tightest honest bound.
		at, ok := rec.finishedAt()
		if !ok {
			at = time.Now()
		}
		out.SojournMS = float64(at.Sub(rec.submitted).Nanoseconds()) / 1e6
		out.Report = &reportOut{
			SpanMS:        rep.Span.Seconds() * 1e3,
			SojournMS:     rep.Sojourn.Seconds() * 1e3,
			EnergyJ:       rep.EnergyJ,
			AvgPowerW:     rep.AvgPowerW,
			Tasks:         rep.Tasks,
			Spawns:        rep.Spawns,
			Steals:        rep.Steals,
			TempoSwitches: rep.TempoSwitches,
			DVFSCommits:   rep.DVFSCommits,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// jobIndexEntry is one row of the GET /jobs index.
type jobIndexEntry struct {
	ID       int64  `json:"id"`
	Workload string `json:"workload"`
	// Tenant and Priority are the job's service class; omitted for
	// unclassed jobs so pre-tenancy rows are unchanged.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Status   string `json:"status"` // running | done | failed
	// SojournMS is the HTTP layer's wall-clock accept-to-finish
	// latency, present once the job is done (the same quantity GET
	// /jobs/{id} reports at its top level).
	SojournMS float64 `json:"sojourn_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// jobIndexJSON is the GET /jobs response body.
type jobIndexJSON struct {
	// Count is the number of rows returned; Indexed is how many job
	// records the server currently holds (Count can be lower under
	// ?status= or ?limit=).
	Count   int `json:"count"`
	Indexed int `json:"indexed"`
	// MaxID is the highest job id ever accepted: ids at or below it
	// that are absent from the index were completed and pruned from the
	// retention window (GET /jobs/{id} still classifies them).
	MaxID      int64           `json:"max_id"`
	RetainDone int             `json:"retain_done"`
	Jobs       []jobIndexEntry `json:"jobs"`
}

// handleIndex lists every job record the server retains — running jobs
// plus completed ones inside the bounded retention window — sorted by
// id ascending, scrape-friendly by construction: the response size is
// bounded by max-inflight + the retention window regardless of uptime.
// ?status=running|done|failed, ?workload=<registered kind> and
// ?tenant=<service-class tenant> filter rows (they compose); ?limit=N
// keeps only the N highest-id (most recent) matching rows. Tenants are
// free-form client strings with no registry to validate against, so an
// unknown tenant yields an empty list, not a 400.
func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	statusFilter := r.URL.Query().Get("status")
	switch statusFilter {
	case "", "running", "done", "failed":
	default:
		writeError(w, http.StatusBadRequest, "bad status filter %q (want running, done or failed)", statusFilter)
		return
	}
	tenantFilter := r.URL.Query().Get("tenant")
	filterTenant := r.URL.Query().Has("tenant")
	workloadFilter := r.URL.Query().Get("workload")
	if workloadFilter != "" {
		if _, ok := workload.Lookup(workloadFilter); !ok {
			writeError(w, http.StatusBadRequest, "bad workload filter %q (want one of %s)",
				workloadFilter, strings.Join(workload.Names(), ", "))
			return
		}
	}
	limit := -1
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q (want a non-negative integer)", ls)
			return
		}
		limit = n
	}
	type idRec struct {
		id  int64
		rec *jobRecord
	}
	s.mu.Lock()
	maxID := s.maxID
	retain := s.retainDone
	indexed := len(s.jobs)
	recs := make([]idRec, 0, len(s.jobs))
	for id, rec := range s.jobs {
		recs = append(recs, idRec{id, rec})
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })

	entries := make([]jobIndexEntry, 0, len(recs))
	for _, ir := range recs {
		e := jobIndexEntry{ID: ir.id, Workload: ir.rec.spec.Kind, Status: "running",
			Tenant: ir.rec.class.Tenant, Priority: ir.rec.class.Priority}
		if _, jobErr, done := ir.rec.j.Report(); done {
			e.Status = "done"
			if jobErr != nil {
				e.Status = "failed"
				e.Error = jobErr.Error()
			}
			at, ok := ir.rec.finishedAt()
			if !ok {
				at = time.Now()
			}
			e.SojournMS = float64(at.Sub(ir.rec.submitted).Nanoseconds()) / 1e6
		}
		if statusFilter != "" && e.Status != statusFilter {
			continue
		}
		if workloadFilter != "" && e.Workload != workloadFilter {
			continue
		}
		if filterTenant && e.Tenant != tenantFilter {
			continue
		}
		entries = append(entries, e)
	}
	if limit >= 0 && len(entries) > limit {
		entries = entries[len(entries)-limit:]
	}
	writeJSON(w, http.StatusOK, jobIndexJSON{
		Count:      len(entries),
		Indexed:    indexed,
		MaxID:      maxID,
		RetainDone: retain,
		Jobs:       entries,
	})
}

// pruneDone appends id to the completion order and evicts the oldest
// completed records beyond the retention window.
func (s *server) pruneDone(id int64) {
	s.mu.Lock()
	s.doneOrder = append(s.doneOrder, id)
	for len(s.doneOrder) > s.retainDone {
		evict := s.doneOrder[0]
		if rec := s.jobs[evict]; rec != nil {
			if _, jobErr, done := rec.j.Report(); done && jobErr != nil {
				s.failedPruned[evict] = true
				s.failedOrder = append(s.failedOrder, evict)
				for len(s.failedOrder) > s.retainDone {
					old := s.failedOrder[0]
					if old > s.failedForgotten {
						s.failedForgotten = old
					}
					delete(s.failedPruned, old)
					s.failedOrder = s.failedOrder[1:]
				}
			}
		}
		delete(s.jobs, evict)
		s.doneOrder = s.doneOrder[1:]
	}
	s.mu.Unlock()
}

// workloadEntry is one row of the GET /workloads catalog.
type workloadEntry struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
	// Defaults is the effective spec an empty {"workload": name}
	// submission runs — the registry's defaults, validated.
	Defaults workload.Spec `json:"defaults"`
	// MaxN bounds the n parameter (0 = unbounded).
	MaxN int `json:"max_n,omitempty"`
}

// workloadsJSON is the GET /workloads response body.
type workloadsJSON struct {
	Count     int             `json:"count"`
	Workloads []workloadEntry `json:"workloads"`
}

// handleWorkloads serves the workload catalog: every registered kind
// with its description, effective defaults and bounds — the registry
// itself, so clients can never disagree with what POST /jobs accepts
// (TestWorkloadsCatalogDrivesSubmit).
func (s *server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	defs := workload.All()
	out := workloadsJSON{Count: len(defs), Workloads: make([]workloadEntry, 0, len(defs))}
	for _, d := range defs {
		eff, err := workload.Spec{Kind: d.Name}.Validate()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "catalog default for %q invalid: %v", d.Name, err)
			return
		}
		out.Workloads = append(out.Workloads, workloadEntry{
			Name: d.Name, Desc: d.Desc, Defaults: eff, MaxN: d.MaxN,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	total := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":            true,
		"uptime_s":      time.Since(s.started).Seconds(),
		"backend":       s.rt.Backend().String(),
		"mode":          s.rt.Config().Mode.String(),
		"workers":       s.rt.Config().Workers,
		"inflight":      len(s.inflight),
		"peak_inflight": s.peak.Load(),
		"max_inflight":  s.maxInflight,
		"jobs_total":    total,
	})
}
