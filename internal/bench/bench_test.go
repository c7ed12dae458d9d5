package bench

import (
	"sort"
	"testing"

	"hermes/internal/core"
	"hermes/internal/cpu"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"knn", "ray", "sort", "compare", "hull"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, b := range All() {
		if b.DefaultN <= 0 || b.Desc == "" || b.Build == nil {
			t.Fatalf("incomplete bench %+v", b)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName should reject unknown names")
	}
	b, err := ByName("hull")
	if err != nil || b.Name != "hull" {
		t.Fatalf("ByName(hull) = %v, %v", b, err)
	}
}

// TestAllBenchmarksVerifySmall runs every benchmark at a small size on
// every mode and checks the computed result against its sequential
// reference — the end-to-end correctness net for the runtime.
func TestAllBenchmarksVerifySmall(t *testing.T) {
	sizes := map[string]int{"knn": 4000, "ray": 3000, "sort": 60000, "compare": 40000, "hull": 50000}
	for _, b := range All() {
		for _, mode := range []core.Mode{core.Baseline, core.Unified} {
			b, mode := b, mode
			t.Run(b.Name+"_"+mode.String(), func(t *testing.T) {
				load := b.Build(sizes[b.Name], 5)
				r := core.Run(core.Config{
					Spec:    cpu.SystemA(),
					Workers: 8,
					Mode:    mode,
					Seed:    5,
				}, load.Root)
				if err := load.Check(); err != nil {
					t.Fatal(err)
				}
				if r.Tasks == 0 || r.Span == 0 {
					t.Fatal("empty run")
				}
			})
		}
	}
}

func TestBenchmarksDeterministicBuild(t *testing.T) {
	for _, b := range All() {
		l1 := b.Build(2000, 9)
		l2 := b.Build(2000, 9)
		r1 := core.Run(core.Config{Workers: 4, Seed: 9}, l1.Root)
		r2 := core.Run(core.Config{Workers: 4, Seed: 9}, l2.Root)
		if r1.Span != r2.Span || r1.EnergyJ != r2.EnergyJ {
			t.Fatalf("%s: identical build+seed produced different runs", b.Name)
		}
	}
}

func TestSortedHelper(t *testing.T) {
	if !sorted([]float64{1, 2, 3}) || sorted([]float64{2, 1}) {
		t.Fatal("sorted helper broken")
	}
}

// sorted is the helper TestSortedHelper checks.
func sorted(xs []float64) bool { return sort.Float64sAreSorted(xs) }
