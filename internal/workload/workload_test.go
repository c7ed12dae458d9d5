package workload

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// synthKinds are the WorkMix-accounting request workloads (the old
// internal/synth trio) whose defaults must fill every sizing knob.
var synthKinds = []string{"fib", "matmul", "ticks"}

func TestDefaultsFilled(t *testing.T) {
	for _, kind := range synthKinds {
		s, err := Spec{Kind: kind}.Validate()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if s.N == 0 || s.Grain == 0 || s.Work == 0 {
			t.Fatalf("%s: defaults not filled: %+v", kind, s)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		spec Spec
		frag string
	}{
		{Spec{}, "missing workload"},
		{Spec{Kind: "quicksort"}, "unknown workload"},
		{Spec{Kind: "fib", N: 99}, "exceeds max"},
		{Spec{Kind: "matmul", N: 100000}, "exceeds max"},
		{Spec{Kind: "ticks", N: 1 << 24}, "exceeds max"},
		{Spec{Kind: "ticks", N: -1}, "must be positive"},
		{Spec{Kind: "ticks", Grain: -2}, "must be positive"},
		{Spec{Kind: "ticks", Work: -5}, "work must be"},
		{Spec{Kind: "ticks", Work: 2_000_000_000}, "work must be"},
		{Spec{Kind: "ticks", MemFrac: 1.5}, "memfrac"},
	}
	for _, c := range cases {
		if _, err := c.spec.Validate(); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", c.spec, err, c.frag)
		}
	}
}

// TestUnknownListsRegistered pins the operator experience the serving
// and bench layers rely on: a rejected name tells you what IS
// registered.
func TestUnknownListsRegistered(t *testing.T) {
	_, err := Spec{Kind: "nope"}.Validate()
	if err == nil {
		t.Fatal("unknown workload validated")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered workload %q", err, name)
		}
	}
}

// TestCatalogShape is the registry contract: names are unique and
// non-empty, every entry carries a Build and a description, Names/All
// agree on order, and each entry's defaults validate without edits — a
// catalog row a client can submit verbatim.
func TestCatalogShape(t *testing.T) {
	names := Names()
	all := All()
	if len(names) == 0 || len(names) != len(all) {
		t.Fatalf("catalog inconsistent: %d names, %d defs", len(names), len(all))
	}
	for i, d := range all {
		if d.Name == "" || d.Build == nil || slices.Index(names, d.Name) != i {
			t.Fatalf("catalog[%d] %q is malformed or a duplicate: %+v", i, d.Name, d)
		}
		if d.Name != names[i] {
			t.Errorf("All()[%d] = %q, Names()[%d] = %q", i, d.Name, i, names[i])
		}
		if d.Desc == "" {
			t.Errorf("%s: no description", d.Name)
		}
		if _, ok := Lookup(d.Name); !ok {
			t.Errorf("%s: Lookup failed", d.Name)
		}
		s, err := Spec{Kind: d.Name}.Validate()
		if err != nil {
			t.Errorf("%s: defaults do not validate: %v", d.Name, err)
		} else if s.N < 1 {
			t.Errorf("%s: effective default n = %d", d.Name, s.N)
		}
	}
}

// smallN keeps the contract runs fast: service-default inputs are
// milliseconds each, but across the whole catalog × repeats a smaller
// instance keeps the suite snappy while still exercising real spawns.
func smallN(kind string) int {
	switch kind {
	case "fib":
		return 12
	case "fibtree":
		return 14
	case "matmul":
		return 16
	case "sort", "compare", "hull":
		return 2_000
	case "knn", "ray":
		return 500
	default:
		return 32
	}
}

// TestWorkloadsRunOnSimulator compiles every catalog entry and runs it
// to completion on the deterministic backend, checking the accounted
// work landed (tasks executed, virtual time and energy charged). The
// self-verifying workloads (fibtree, the figure benchmarks) panic on a
// wrong answer, so a silent miscomputation fails here too.
func TestWorkloadsRunOnSimulator(t *testing.T) {
	for _, kind := range Names() {
		task, _, err := Spec{Kind: kind, N: smallN(kind)}.Task()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		r := core.Run(core.Config{Workers: 4}, task)
		if r.Tasks == 0 || r.Span <= 0 || r.EnergyJ <= 0 {
			t.Errorf("%s: degenerate run: tasks=%d span=%v energy=%g", kind, r.Tasks, r.Span, r.EnergyJ)
		}
	}
}

// TestFibSpawnShape asserts fib produces the irregular spawn tree the
// stealing benchmarks rely on: parallel spawns above the cutoff only.
func TestFibSpawnShape(t *testing.T) {
	task, _, err := Spec{Kind: "fib", N: 14, Grain: 8, Work: 100}.Task()
	if err != nil {
		t.Fatal(err)
	}
	r := core.Run(core.Config{Workers: 2}, task)
	if r.Spawns == 0 {
		t.Fatal("fib above cutoff spawned nothing")
	}
	sTask, _, err := Spec{Kind: "fib", N: 14, Grain: 14, Work: 100}.Task()
	if err != nil {
		t.Fatal(err)
	}
	sr := core.Run(core.Config{Workers: 2}, sTask)
	if sr.Spawns != 0 {
		t.Fatalf("fib at full cutoff should run serially, spawned %d", sr.Spawns)
	}
	if sr.Tasks != 1 {
		t.Fatalf("serial fib ran %d tasks, want 1", sr.Tasks)
	}
}

// TestDeterministicOnSim is the catalog-wide reproducibility contract:
// for EVERY registered workload, two sim runs of the same spec produce
// byte-identical reports (marshalled and compared as JSON, so any new
// Report field joins the pin automatically).
func TestDeterministicOnSim(t *testing.T) {
	for _, kind := range Names() {
		run := func() []byte {
			task, _, err := Spec{Kind: kind, N: smallN(kind)}.Task()
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			rep := core.Run(core.Config{Workers: 4, Seed: 7}, task)
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			return data
		}
		a, b := run(), run()
		if string(a) != string(b) {
			t.Errorf("%s: sim runs diverged:\n%s\n%s", kind, a, b)
		}
	}
}

// TestSizedClamps pins the heavy-tail lever: Sized scales accounted
// work within [1, maxWork], leaves size-1 and non-accounting specs
// untouched, and never mutates anything but Work.
func TestSizedClamps(t *testing.T) {
	base := Spec{Kind: "ticks", N: 8, Grain: 2, Work: 1_000}
	if got := base.Sized(1); got != base {
		t.Errorf("Sized(1) changed the spec: %+v", got)
	}
	if got := base.Sized(2.5).Work; got != 2_500 {
		t.Errorf("Sized(2.5) work = %d, want 2500", got)
	}
	if got := base.Sized(1e12).Work; got != maxWork {
		t.Errorf("Sized(huge) work = %d, want clamp to %d", got, int64(maxWork))
	}
	if got := base.Sized(1e-9).Work; got != 1 {
		t.Errorf("Sized(tiny) work = %d, want clamp to 1", got)
	}
	noAccounting := Spec{Kind: "sort", N: 100}
	if got := noAccounting.Sized(50); got != noAccounting {
		t.Errorf("Sized on Work=0 spec changed it: %+v", got)
	}
}

func TestWorkDefaultsScaleSanely(t *testing.T) {
	// Guard the service sizing: a default job must stay under ~1 s of
	// accounted serial work so request latencies remain service-shaped.
	for _, kind := range synthKinds {
		spec, err := Spec{Kind: kind}.Validate()
		if err != nil {
			t.Fatal(err)
		}
		units_ := int64(0)
		switch kind {
		case "fib":
			units_ = fibNodes(spec.N)
		case "matmul":
			units_ = int64(spec.N) * int64(spec.N)
		case "ticks":
			units_ = int64(spec.N)
		}
		serial := units.Cycles(units_) * spec.Work
		if sec := serial.DurationAt(2400 * units.MHz).Seconds(); sec > 1 {
			t.Errorf("%s default = %.2fs serial at 2.4GHz; too heavy for a service default", kind, sec)
		}
	}
}

func fibNodes(n int) int64 {
	if n < 2 {
		return 1
	}
	return 1 + fibNodes(n-1) + fibNodes(n-2)
}

// serialCtx is the smallest wl.Ctx: a fork-join block runs its tasks in
// serial order on the caller, nothing is accounted, and tasks counts
// what Go was handed.
type serialCtx struct{ tasks int }

func (c *serialCtx) Go(tasks ...wl.Task) {
	c.tasks += len(tasks)
	for _, t := range tasks {
		t(c)
	}
}
func (c *serialCtx) Fork2(f wl.Body, a0, a1, b0, b1 int) (int, int) {
	c.tasks += 2
	a := f(c, a0, a1)
	return a, f(c, b0, b1)
}
func (*serialCtx) Work(units.Cycles)             {}
func (*serialCtx) Mem(units.Time)                {}
func (*serialCtx) WorkMix(units.Cycles, float64) {}
func (*serialCtx) Worker() int                   { return 0 }

// TestFibtreeDefaultsAndSelfCheck pins the fibtree entry the
// benchmark's Native workloads build by name: N 21 / Grain 12 by
// default, a tree that agrees with the serial reference below, at and
// above the cutoff, and a root that panics on a wrong answer rather
// than returning one.
func TestFibtreeDefaultsAndSelfCheck(t *testing.T) {
	s, err := Spec{Kind: "fibtree"}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 21 || s.Grain != 12 {
		t.Fatalf("fibtree defaults N=%d Grain=%d, want 21/12", s.N, s.Grain)
	}
	if got := serialFib(21); got != 10946 {
		t.Fatalf("serialFib(21) = %d, want 10946", got)
	}
	for _, n := range []int{0, 1, 11, 12, 13, 21} {
		out := fibTree(12)(&serialCtx{}, n, 0)
		if want := serialFib(n); out != want {
			t.Errorf("fibTree(%d, 12) = %d, want %d", n, out, want)
		}
	}
	task, _, err := Spec{Kind: "fibtree"}.Task()
	if err != nil {
		t.Fatal(err)
	}
	c := &serialCtx{}
	task(c) // panics on a mismatch with the serial reference
	if c.tasks == 0 {
		t.Fatal("default fibtree spawned nothing: the cutoff swallowed the tree")
	}
}

// TestSpawnJoinRootAllocatesNothing pins the hoisted pair slice: the
// spawnjoin root must hand the runtime the same two tasks every block
// without allocating, or the benchmark's rt.spawnjoin_allocs_per_op
// rung (numbers withheld at ≥ 0.01) would measure the workload instead
// of the scheduler.
func TestSpawnJoinRootAllocatesNothing(t *testing.T) {
	const ops = 64
	task, _, err := Spec{Kind: "spawnjoin", N: ops}.Task()
	if err != nil {
		t.Fatal(err)
	}
	c := &serialCtx{}
	task(c)
	if c.tasks != 2*ops {
		t.Fatalf("spawnjoin root handed Go %d tasks, want %d", c.tasks, 2*ops)
	}
	var ctx wl.Ctx = c
	if allocs := testing.AllocsPerRun(100, func() { task(ctx) }); allocs != 0 {
		t.Errorf("spawnjoin root allocates %v per run of %d blocks, want 0", allocs, ops)
	}
}
