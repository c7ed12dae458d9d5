package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds from the tracer's start. Parent is the id of the span
// that caused this one (0 for the root span of an operation); the
// spans of one operation share Op.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer records spans in memory; nothing is written until the run
// ends. A nil *tracer records nothing, so the untraced run pays one
// nil check per boundary. Safe for concurrent use: the closed-loop
// clients and the HTTP clients share one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates the identifier the spans of one operation share.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.ops++
	id := t.ops
	t.mu.Unlock()
	return id
}

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	return t.beginAt(name, parent, op, time.Now())
}

// beginAt opens a span at an explicit instant: an open-loop request's
// root span starts when the request was due, not when a client got to
// it, so the wait shows as the root's self time.
func (t *tracer) beginAt(name string, parent int32, op int64, at time.Time) int32 {
	if t == nil {
		return 0
	}
	start := at.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: -1, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// end closes a span now.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far that have ended.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration minus the part of its interval its child spans
// cover. Children may overlap each other or stick out of the parent;
// only the covered part of the parent's own interval is subtracted.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary folds a span set into the per-name totals the layer
// metrics read.
type spanSummary struct {
	selfNS  map[string]int64     // total self time by span name
	durMS   map[string][]float64 // each span's duration in ms, by name
	rootDur map[int64]int64      // root span duration by operation
}

func summarize(spans []span) spanSummary {
	sum := spanSummary{
		selfNS:  map[string]int64{},
		durMS:   map[string][]float64{},
		rootDur: map[int64]int64{},
	}
	self := selfTimes(spans)
	for _, s := range spans {
		sum.selfNS[s.Name] += self[s.ID]
		sum.durMS[s.Name] = append(sum.durMS[s.Name], float64(s.End-s.Start)/1e6)
		if s.Parent == 0 {
			sum.rootDur[s.Op] = s.End - s.Start
		}
	}
	return sum
}

// writeSpans writes the span file: one JSON object holding the
// workload's name and every span, in recording order.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
