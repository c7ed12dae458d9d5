// Package trace is the registry of named, seeded arrival processes —
// the open-system side of the workload/trace catalog. Where
// internal/workload answers "what does one request do?", trace
// answers "when do requests arrive, and how big is each one?".
//
// A process generates a deterministic sequence of Points — arrival
// offsets plus a per-arrival service-size multiplier — from a single
// seeded PCG stream (rand.NewPCG(seed, Salt)). The same (process,
// seed, rps, window) always yields the same byte-exact sequence, on
// any platform, which is what lets sweep artifacts be byte-diffed in
// CI. Three processes are built in:
//
//   - poisson: exponential interarrivals at the target rate, size 1.
//     The default, stream-compatible with the generator the sweep and
//     the load generator historically shared only through a duplicated
//     salt constant.
//   - mmpp: a two-state Markov-modulated Poisson process — bursts at
//     3× the target rate alternating with lulls at ⅓ of it, mean rate
//     equal to the target. The bursty shape tail-latency scheduling
//     work evaluates against.
//   - pareto: Poisson arrival times with bounded-Pareto service-size
//     multipliers (α = 1.5, mean 1) scaling each request's accounted
//     work — the heavy-tailed size mix.
//
// Consumers turn Points into runnable hermes.Arrivals with
// Proc.Arrivals, supplying a builder (typically workload
// Spec.SizedTask) that compiles one task per arrival at the drawn
// size. docs/workloads.md describes the determinism contract and how
// to add a process.
package trace
