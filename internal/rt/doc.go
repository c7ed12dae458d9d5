// Package rt is the real-concurrency executor: work-stealing deques
// under the same HERMES tempo policy as internal/core (tempo.Policy:
// thief procrastination, immediacy relays, workload thresholds, the
// root-take and park rules) run by actual goroutine workers in
// parallel on the host.
//
// Unlike the one-shot simulator, rt is a persistent service: NewExec
// starts a worker pool that outlives any single computation, Submit
// enqueues concurrent root jobs multiplexed over the shared pool, and
// Close drains it. Every job gets its own report; tempo state (the
// immediacy list, workload tiers, profiled thresholds) persists across
// jobs, so the deque-size thresholds react to aggregate traffic rather
// than a single fork-join tree. The executor shares internal/core's
// Config and Report types: all four tempo modes run here, and reports
// carry the same residency and scheduler statistics, measured over
// wall-clock time.
//
// The task-boundary hot path is lock-free and allocation-free in
// steady state. The deque is the Chase–Lev implementation (CAS only on
// steals and the owner's last-item race: real thieves contend, so the
// steal path must not serialize the pool the way the paper's THE
// protocol would); tasks and fork-join blocks come
// from per-worker free lists; and accounting
// never takes a global lock — each worker publishes its (state, freq,
// since) in a packed atomic word and accumulates an exact per-worker
// residency matrix (see acct.go). Readers fold the cells on demand:
// into a core.Ledger at job boundaries, rendered by the same
// Ledger.Since as the simulator's reports, and into machine energy at
// the paper's 100 Hz DAQ cadence in meterLoop.
//
// Native hot-path contract. PUSH and POP take tempoMu only when
// tempo.Policy's lock-free MayRaise and MayLower say Pushed or Shrunk
// could change something, Figure 5's head-of-list guard included: a
// worker at the head of the immediacy list never locks to pop. On
// native_forkjoin's shape (fib(30), grain 8, two Unified workers) a job
// pops about 75 000 times. The thresholds alone sent 42 084 of those
// pops to the lock, and 4 435 of them moved a tier; with the head bit
// about 5 200 lock, and each moves a tier. On amd64, where every atomic store and
// read-modify-write is a fence, a spawned task its owner pops pays
// about 8.1 fence-bearing operations (11.1 before: the deque's owner
// counters and those POP locks): Push's slot and bottom stores, Pop's
// bottom store, the worker's spawn and task counters, the block's two
// stores and its pending decrement, and 0.14 of a lock round trip.
// Rito & Paulino bound synchronization by the steals (about 7 a job
// here); all of the rest is on the owner's path.
//
// Since the host exposes neither per-domain DVFS nor an energy meter,
// tempo control here is emulated and accounted rather than physically
// applied: a worker at tempo frequency f executes declared Work cycles
// at rate f in wall-clock time (slow tempos genuinely take longer),
// and energy integrates the same calibrated power model over
// wall-clock residency. Real computation inside tasks runs at native
// speed regardless. The executor therefore demonstrates and tests the
// algorithms under true parallelism (including the race behaviour of
// the deques), while the discrete-event executor in internal/core
// remains the measurement instrument.
//
// Unlike the simulator, runs are not deterministic: the OS scheduler
// decides races, exactly as on the paper's machines. The simulator's
// fixed overheads (steal, push/pop, yield spins, affinity calls) have
// no counterpart here, because real locks and syscalls cost what they
// cost; Scheduling is ignored because workers are always statically
// pinned (reports are normalized to Static).
package rt
