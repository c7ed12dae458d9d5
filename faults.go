package hermes

import "hermes/internal/core"

// FaultEvent is one scheduled fault on the cluster's shared virtual
// timeline: at virtual time At, machine Machine crashes, rejoins,
// starts running slow, or recovers. Schedules are plain data — build
// them by hand for targeted tests, or compile a named, seeded plan
// with the internal/fault registry (surfaced by hermes-bench -faults)
// and pass the result to WithFaults. The same (config, seed, trace,
// schedule) reproduces byte-identical per-job Reports and
// ClusterStats, crashes included.
type FaultEvent = core.FaultEvent

// FaultKind discriminates what a FaultEvent does to its machine.
type FaultKind = core.FaultKind

// Fault kinds: FaultCrash is fail-stop — the machine's in-flight jobs
// are evicted and re-placed elsewhere, its power draw drops to zero,
// and placement and gossip skip it until a FaultRejoin brings it back
// cold. FaultSlow makes the machine a straggler — Factor >= 1
// inflates all work on it by that ratio, Factor 0 pins every worker
// to the lowest DVFS tier instead — until FaultRecover.
const (
	FaultCrash   = core.FaultCrash
	FaultRejoin  = core.FaultRejoin
	FaultSlow    = core.FaultSlow
	FaultRecover = core.FaultRecover
)

// ErrJobLost fails a job evicted by machine crashes more times than
// the cluster's retry budget allows (see WithFaults), or one that
// cannot be re-placed because the whole fleet is down for good. Lost
// jobs still resolve: Job.Wait returns this error and the partial
// Report records the retry history.
var ErrJobLost = core.ErrJobLost
