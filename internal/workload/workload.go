package workload

import (
	"fmt"
	"math"
	"slices"

	"hermes/internal/units"
	"hermes/internal/wl"
)

// Spec parameterizes one job of a registered workload. The zero value
// of every field except Kind picks the workload's registered default
// (sized for service requests — milliseconds, not minutes); Validate
// fills them in and bounds the rest so an HTTP client cannot request
// an effectively unbounded job.
type Spec struct {
	// Kind names a registered workload (see Names).
	Kind string `json:"workload"`
	// N scales the problem: fib argument, matrix dimension, tick
	// count, fork-join ops, input elements.
	N int `json:"n,omitempty"`
	// Grain bounds task granularity where the workload has one: fib
	// serial cutoff, matmul rows per task, ticks per task. Workloads
	// with internal granularity control (the bench kernels) ignore it.
	Grain int `json:"grain,omitempty"`
	// Work is the accounted cost in cycles of one unit for the
	// WorkMix-accounting workloads; 0 for workloads that run real
	// computation instead of accounting synthetic cycles.
	Work units.Cycles `json:"work,omitempty"`
	// MemFrac is the memory-bound (frequency-independent) fraction of
	// Work, 0..1.
	MemFrac float64 `json:"memfrac,omitempty"`
	// Seed derives deterministic inputs for workloads that build a
	// pseudo-random instance (the bench kernels). 0 picks the
	// registered default; WorkMix workloads ignore it.
	Seed int64 `json:"seed,omitempty"`
}

// maxWork bounds the accounted cycles per unit: 1e9 ≈ 0.4 s at
// 2.4 GHz, protecting the service from unbounded requests.
const maxWork = 1_000_000_000

// Def is one registered workload definition.
type Def struct {
	// Name is the catalog key clients submit ({"workload": Name}).
	Name string
	// Desc is a one-line description for the GET /workloads catalog.
	Desc string
	// Defaults fill the zero fields of an incoming Spec. MemFrac has
	// no in-band zero marker, so its default applies only when Work
	// was also left unset (the common "just give me a matmul"
	// request).
	Defaults Spec
	// MaxN bounds Spec.N (0 = unbounded).
	MaxN int
	// Build compiles a validated spec into a runnable root task. It
	// must be deterministic in the spec: any randomness derives from
	// Spec.Seed, never from global state.
	Build func(Spec) (wl.Task, error)
}

// catalog is the ordered table of workload definitions: built once in
// package init (defs.go), read-only afterwards. Names are unique and
// every entry has a Build (TestCatalogShape).
var catalog []Def

// Lookup finds a registered workload by name.
func Lookup(name string) (Def, bool) {
	for i := range catalog {
		if catalog[i].Name == name {
			return catalog[i], true
		}
	}
	return Def{}, false
}

// Names lists the registered workload names in catalog order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, d := range catalog {
		out[i] = d.Name
	}
	return out
}

// All returns every registered definition in catalog order.
func All() []Def { return slices.Clone(catalog) }

// Validate fills the workload's registered defaults and rejects
// out-of-range parameters, returning the effective spec.
func (s Spec) Validate() (Spec, error) {
	if s.Kind == "" {
		return s, fmt.Errorf("workload: missing workload kind (registered: %v)", Names())
	}
	d, ok := Lookup(s.Kind)
	if !ok {
		return s, fmt.Errorf("workload: unknown workload %q (registered: %v)", s.Kind, Names())
	}
	s = s.withDefaults(d.Defaults)
	if d.MaxN > 0 && s.N > d.MaxN {
		return s, fmt.Errorf("workload: %s n=%d exceeds max %d", s.Kind, s.N, d.MaxN)
	}
	if s.N < 1 {
		return s, fmt.Errorf("workload: n must be positive, got %d", s.N)
	}
	if s.Grain < 0 {
		return s, fmt.Errorf("workload: grain must be positive, got %d", s.Grain)
	}
	if s.Work < 0 || s.Work > maxWork {
		return s, fmt.Errorf("workload: work must be in [0, %d], got %d", int64(maxWork), s.Work)
	}
	if s.MemFrac < 0 || s.MemFrac > 1 {
		return s, fmt.Errorf("workload: memfrac must be in [0, 1], got %g", s.MemFrac)
	}
	return s, nil
}

// withDefaults fills zero fields from the def's defaults. MemFrac's
// default applies only when Work was also unset: a caller giving
// explicit work keeps full control of the mix.
func (s Spec) withDefaults(d Spec) Spec {
	if s.N == 0 {
		s.N = d.N
	}
	if s.Grain == 0 {
		s.Grain = d.Grain
	}
	if s.Work == 0 {
		s.Work = d.Work
		if s.MemFrac == 0 {
			s.MemFrac = d.MemFrac
		}
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	return s
}

// Task validates the spec and compiles it into a runnable root task,
// returning the effective (defaults-filled) spec alongside so callers
// report exactly what will run without validating twice.
func (s Spec) Task() (wl.Task, Spec, error) {
	s, err := s.Validate()
	if err != nil {
		return nil, s, err
	}
	d, _ := Lookup(s.Kind)
	task, err := d.Build(s)
	if err != nil {
		return nil, s, err
	}
	return task, s, nil
}

// Sized returns the spec with its accounted work scaled by size
// (size 1 = unchanged), clamped to the service bound — the lever
// heavy-tailed arrival processes pull per request. Workloads that do
// no cycle accounting (Work 0) have no size lever and pass through
// unchanged.
func (s Spec) Sized(size float64) Spec {
	if size == 1 || s.Work == 0 {
		return s
	}
	w := units.Cycles(math.Round(float64(s.Work) * size))
	if w < 1 {
		w = 1
	}
	if w > maxWork {
		w = maxWork
	}
	s.Work = w
	return s
}

// SizedTask validates the spec and compiles it with its accounted
// work scaled by size — the builder shape internal/trace processes
// consume, one task per arrival.
func (s Spec) SizedTask(size float64) (wl.Task, error) {
	s, err := s.Validate()
	if err != nil {
		return nil, err
	}
	d, _ := Lookup(s.Kind)
	return d.Build(s.Sized(size))
}

// String renders the spec compactly for logs.
func (s Spec) String() string {
	out := fmt.Sprintf("%s(n=%d grain=%d work=%d memfrac=%g", s.Kind, s.N, s.Grain, s.Work, s.MemFrac)
	if s.Seed != 0 {
		out += fmt.Sprintf(" seed=%d", s.Seed)
	}
	return out + ")"
}
