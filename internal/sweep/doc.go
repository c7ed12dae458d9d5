// Package sweep runs open-system evaluations over the virtual-time
// simulator: for each point of a (workload × tempo-mode × arrival-rate)
// grid — or a (placement × fleet-size × fault-plan × arrival-rate) one
// — it generates a seeded arrival trace, replays it through
// Runtime.SubmitTrace on the deterministic discrete-event machine, and
// measures the open-system quantities the paper's closed-system
// figures cannot show — sojourn percentiles, queueing delay,
// joules/request, average power, steals/request and DVFS-tier
// residency as functions of offered load, per tempo mode.
//
// There is one pipeline (trial.go): a grid is validated once, every
// trial is one Sim hermes.Runtime serving one trace, and every point is
// one fold of its trials. The single-machine sweep is the machines = 1
// cell of the cluster grid; Point and ClusterPoint differ only in which
// of the fold's quantities they render, and every single-machine answer
// (a grid point, ReplayTrace, the wall-clock load run's Fold) is a
// Point.
//
// Every point is deterministic: a fixed config and seed reproduce
// byte-identical JSON artifacts, so the curves are CI-diffable
// evaluation results rather than wall-clock experiments. Knee
// detection marks the first rate whose p99 sojourn exceeds a
// configurable multiple of the unloaded p50 — where the mode's
// latency curve leaves the flat regime. A knee can also come back
// unresolved (knee_rps null in the artifact) with a KneeReason saying
// why: a single-rate grid, no crossing inside the grid, or no baseline
// latency to compare against.
//
// A finished sweep artifact has a second life as a capacity model:
// LoadModel validates one back in as a Model, whose Knee,
// KneeLatencyMS, JoulesPerRequestAt and BestMode lookups calibrate the
// serving control loop (internal/control). ReplayTrace runs an
// explicit arrival trace — rather than a generated Poisson one —
// through the same deterministic machine, which is what hermes-serve's
// /capacity endpoint uses to answer what-if questions about recorded
// traffic.
package sweep
