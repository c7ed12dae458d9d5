// Package bench is the registry of the five PBBS-style workloads the
// paper evaluates (Section 4.1): K-Nearest Neighbors (knn), Sparse-
// Triangle Intersection (ray), Integer Sort (sort), Comparison Sort
// (compare) and Convex Hull (hull). Each workload builds a
// deterministic instance, runs real computation on the runtime through
// the wl API, and verifies its output against a sequential reference.
//
// Build makes one instance: a freshly generated input, its outputs,
// and a Check that verifies the outputs against a reference it
// computes from the input (knn, ray, hull) or against an O(n) key-
// multiset fingerprint (sort, compare). harness.Session builds, records
// and checks each input once and replays the recording on every trial.
package bench

import (
	"fmt"

	"hermes/internal/bench/csort"
	"hermes/internal/bench/hull"
	"hermes/internal/bench/isort"
	"hermes/internal/bench/knn"
	"hermes/internal/bench/ray"
	"hermes/internal/wl"
)

// Workload is one runnable instance.
type Workload struct {
	// Root is the parallel computation, handed to core.Run.
	Root wl.Task
	// Check verifies the computed result; nil means nothing to check.
	Check func() error
}

// Bench describes one benchmark family.
type Bench struct {
	// Name is the paper's label (knn, ray, sort, compare, hull).
	Name string
	// Desc is a one-line description.
	Desc string
	// DefaultN is the input size used by the figure harness.
	DefaultN int
	// Build creates the deterministic instance of size n.
	Build func(n int, seed int64) Workload
}

// job is a kernel's run as a Workload.
func job(j interface {
	Root(wl.Ctx)
	Check() error
}) Workload {
	return Workload{Root: j.Root, Check: j.Check}
}

var all = []*Bench{
	{
		Name:     "knn",
		Desc:     "k-nearest neighbors over 2-D points (kd-tree build + queries)",
		DefaultN: 150_000,
		Build:    func(n int, seed int64) Workload { return job(knn.New(n, 8, seed)) },
	},
	{
		Name:     "ray",
		Desc:     "first ray-triangle intersection (BVH build + traversal)",
		DefaultN: 120_000,
		Build:    func(n int, seed int64) Workload { return job(ray.New(n/2, n, seed)) },
	},
	{
		Name:     "sort",
		Desc:     "integer sort: parallel LSD radix sort",
		DefaultN: 4_000_000,
		Build:    func(n int, seed int64) Workload { return job(isort.New(n, seed)) },
	},
	{
		Name:     "compare",
		Desc:     "comparison sort: parallel sample sort",
		DefaultN: 2_000_000,
		Build:    func(n int, seed int64) Workload { return job(csort.New(n, seed)) },
	},
	{
		Name:     "hull",
		Desc:     "planar convex hull: parallel quickhull",
		DefaultN: 2_500_000,
		Build:    func(n int, seed int64) Workload { return job(hull.New(n, seed)) },
	},
}

// All returns the benchmarks in the paper's presentation order.
func All() []*Bench {
	out := make([]*Bench, len(all))
	copy(out, all)
	return out
}

// Names returns the benchmark names in order.
func Names() []string {
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// ByName finds a benchmark by its paper label.
func ByName(name string) (*Bench, error) {
	for _, b := range all {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q (have %v)", name, Names())
}
