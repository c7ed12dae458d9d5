package main

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hermes"
	"hermes/internal/sweep"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// capacitySeed fixes the Sim seed every /capacity replay runs with, so
// the same captured trace and scale always produce byte-identical
// predictions — the endpoint's determinism contract.
const capacitySeed = 1

// maxCapacityScale bounds ?scale= so a client cannot ask the digital
// twin to simulate an absurd compression of the trace.
const maxCapacityScale = 1000

// traceEntry is one captured arrival: when it hit the server (offset
// from server start) and what it asked for.
type traceEntry struct {
	at   time.Duration
	spec workload.Spec
}

// traceRing captures the most recent accepted submissions in a bounded
// ring — the arrival trace /capacity replays through the simulator.
type traceRing struct {
	start time.Time

	mu    sync.Mutex
	buf   []traceEntry
	next  int
	full  bool
	total int64
}

func newTraceRing(capacity int, start time.Time) *traceRing {
	if capacity < 1 {
		capacity = 4096
	}
	return &traceRing{start: start, buf: make([]traceEntry, capacity)}
}

// record captures one accepted submission. The clock is read under
// the lock, so ring order is time order whatever the connections do.
func (tr *traceRing) record(spec workload.Spec) {
	tr.mu.Lock()
	tr.buf[tr.next] = traceEntry{at: time.Since(tr.start), spec: spec}
	tr.next++
	if tr.next == len(tr.buf) {
		tr.next = 0
		tr.full = true
	}
	tr.total++
	tr.mu.Unlock()
}

// snapshot returns the captured entries oldest-first, plus how many
// submissions the server has seen in total (≥ len(entries): the ring
// forgets the oldest beyond its capacity).
func (tr *traceRing) snapshot() ([]traceEntry, int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []traceEntry
	if tr.full {
		out = make([]traceEntry, 0, len(tr.buf))
		out = append(out, tr.buf[tr.next:]...)
		out = append(out, tr.buf[:tr.next]...)
	} else {
		out = append(out, tr.buf[:tr.next]...)
	}
	return out, tr.total
}

// capacityJSON is the GET /capacity response body: the replay's
// prediction plus the question it answers.
type capacityJSON struct {
	// Scale is the rate multiplier applied to the captured trace:
	// scale 2 replays the same arrivals twice as fast.
	Scale float64 `json:"scale"`
	// Mode is the tempo mode the prediction simulates.
	Mode string `json:"mode"`
	// Workers is the simulated pool width (the serving pool's).
	Workers int `json:"workers"`
	// TraceLen is how many captured arrivals were replayed; TraceTotal
	// is how many the server has accepted in total (the ring keeps the
	// most recent TraceLen of them).
	TraceLen   int   `json:"trace_len"`
	TraceTotal int64 `json:"trace_total"`
	// ScaledSpanS is the replayed trace's arrival span after scaling.
	ScaledSpanS float64 `json:"scaled_span_s"`

	// Prediction is the replay's single-machine sweep Point; its
	// offered_rps is the scaled trace's arrivals over its span.
	Prediction sweep.Point `json:"prediction"`
}

// handleCapacity answers "what would this machine do if the traffic I
// have actually been receiving arrived scale× faster?" — by replaying
// the captured arrival trace, rate-scaled, through a throwaway
// deterministic Sim pool. Same captured trace + same query = byte-
// identical response. ?scale= defaults to 1; ?mode= defaults to the
// runtime's current tempo mode.
func (s *server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		writeError(w, http.StatusNotFound, "capacity replay disabled (no trace capture)")
		return
	}
	scale := 1.0
	if qs := r.URL.Query().Get("scale"); qs != "" {
		v, err := strconv.ParseFloat(qs, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 || v > maxCapacityScale {
			writeError(w, http.StatusBadRequest, "bad scale %q (want 0 < scale <= %d)", qs, maxCapacityScale)
			return
		}
		scale = v
	}
	mode := s.rt.Config().Mode
	if qm := r.URL.Query().Get("mode"); qm != "" {
		m, err := hermes.ParseMode(qm)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		mode = m
	}
	entries, total := s.trace.snapshot()
	if len(entries) == 0 {
		writeError(w, http.StatusConflict, "no captured arrivals yet; submit jobs first")
		return
	}

	// Normalize to a 0-based virtual timeline and compress by scale:
	// arrival offsets shrink, the work itself does not.
	base := entries[0].at
	arrivals := make([]hermes.Arrival, len(entries))
	for i, e := range entries {
		task, _, err := e.spec.Task()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "captured spec invalid: %v", err)
			return
		}
		off := float64((e.at - base).Nanoseconds()) / scale
		arrivals[i] = hermes.Arrival{
			At:   units.Time(off) * units.Nanosecond,
			Task: task,
		}
	}
	rep, err := sweep.ReplayTrace(sweep.ReplayConfig{
		Mode:    mode,
		Workers: s.rt.Config().Workers,
		Seed:    capacitySeed,
	}, arrivals)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "replay failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, capacityJSON{
		Scale:       scale,
		Mode:        mode.String(),
		Workers:     s.rt.Config().Workers,
		TraceLen:    len(entries),
		TraceTotal:  total,
		ScaledSpanS: (arrivals[len(arrivals)-1].At - arrivals[0].At).Seconds(),
		Prediction:  rep,
	})
}

// handleControlz reports the admission controller's state — enabled or
// not, which is the point: a disabled controller answers with why.
func (s *server) handleControlz(w http.ResponseWriter, _ *http.Request) {
	if s.ctl == nil {
		writeError(w, http.StatusNotFound, "no controller (server built without one)")
		return
	}
	writeJSON(w, http.StatusOK, s.ctl.Status())
}

// shedError is the 429 body for control-plane shedding, distinct from
// the semaphore's max-in-flight message so operators can tell the two
// admission layers apart.
func shedError(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests,
		"shedding: offered load exceeds the calibrated knee; retry later")
}
