// Package workload is the single catalog of named, parameterized
// workloads behind every consumer of work in hermes: the serving
// layer (POST /jobs, GET /workloads), the load generator and sweep
// (hermes-bench -workload), and the figure harness.
//
// A workload is one Def in the catalog table (defs.go) — a name, a
// one-line description, parameter defaults and bounds, and a Build
// function compiling a validated Spec into a runnable wl.Task — and is
// then servable, sweepable and benchable by name. The built-in
// catalog carries three families:
//
//   - fib, matmul, ticks: the synthetic HTTP request workloads
//     (accounted WorkMix cycles, service-sized defaults).
//   - spawnjoin, fibtree: the scheduler hot-path fixpoints the
//     benchmark's Native workloads and rungs build by name.
//   - knn, ray, sort, compare, hull: the paper's PBBS-style figure
//     benchmarks from internal/bench, self-verifying against their
//     sequential references.
//
// Spec is the wire type: its JSON shape ("workload", "n", "grain",
// "work", "memfrac", "seed" — all but the kind omitted when zero) is
// embedded in sweep artifacts and served over HTTP, so new fields
// must be omitempty and absent in the default path to keep existing
// artifacts byte-stable.
//
// The determinism contract: Build must return a task whose behaviour
// depends only on the validated Spec — any randomness is derived from
// Spec.Seed, never from global state — so a Sim-backend run of any
// registered workload is byte-identical for a fixed (spec, config,
// seed). docs/workloads.md describes the contract and how to add a
// workload.
package workload
