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
// than a single fork-join tree. The profiler samples only while a job
// is active, so an idle pool keeps its last busy window, as on Sim.
//
// A job is its root task, as in Cilk: the root carries no fork-join
// block, and when runTask returns from it the root's joins have drained
// every task of the job: the owner ran its kids itself, or a thief
// flushed its accounting before the count its join waited for. That
// worker calls finish, the one completion path, which folds the
// report, emits JobDone and completes the Job; Submit calls it only
// for a job whose context fired before any worker took the root. No
// goroutine waits on a job: a context.AfterFunc sets its cancelled
// flag. The executor shares internal/core's Config and Report types:
// all four tempo modes run here, and reports carry the same residency
// and scheduler statistics, measured over wall-clock time.
//
// The task-boundary hot path is lock-free and allocation-free in
// steady state. The deque is the Chase–Lev implementation (CAS only on
// steals and the owner's last-item race: real thieves contend, so the
// steal path must not serialize the pool the way the paper's THE
// protocol would); Go's tasks and fork-join blocks come
// from per-worker free lists; a join counts the kids its owner pops in
// a local and pays an atomic only for the kids thieves ran, and a
// joiner with nothing left to run or steal parks on its worker's one
// wake channel, which each thief's count signals; and accounting
// never takes a global lock — each worker publishes its (state, freq,
// since) in a packed atomic word and accumulates an exact per-worker
// residency matrix (see acct.go). Readers fold the cells on demand:
// into a core.Ledger at job boundaries, rendered by the same
// Ledger.Since as the simulator's reports, and into machine energy at
// the paper's 100 Hz DAQ cadence in meterLoop.
//
// Native hot-path contract. The owner asks its deque nothing it has
// not just read: PushN and PopN report the size from the bottom and
// top the operation loaded, and the tempo pre-checks take that size,
// so only the locked Pushed or Shrunk confirmation reads Size again.
// A steal or a root take passes 0 for the caller's own size, since
// each follows a pop that found that deque empty (the hermescheck
// build asserts it). PUSH and POP take tempoMu only when
// tempo.Policy's lock-free MayRaise and MayLower say Pushed or Shrunk
// could change something, Figure 5's head-of-list guard included: a
// worker at the head of the immediacy list never locks to pop. On
// native_forkjoin's shape (fib(30), grain 8, two Unified workers) a job
// pops about 75 000 times. The thresholds alone sent 42 084 of those
// pops to the lock, and 4 435 of them moved a tier; with the head bit
// about 5 200 lock, and each moves a tier. On amd64, where every atomic store and
// read-modify-write is a fence, a spawned task its owner pops pays
// about 3.1 fence-bearing operations: Push's slot and bottom stores,
// Pop's bottom store, and 0.14 of a lock round trip. A block nothing
// was stolen from touches no atomic: its kid count is a plain field
// and join counts the kids it pops in a local. Task and spawn counts
// are plain per-job fields that the job's report folds. Rito & Paulino
// bound synchronization by the steals (about 7 a job here), and so
// does the join: a stolen kid costs its thief an add to the block's
// done and a non-blocking send, and the joiner a load per turn of its
// wait and a store of 0. go test -tags hermescheck checks this
// protocol over every bounded interleaving (check_test.go).
//
// A Fork2 spawn allocates nothing and makes no free-list trip: its
// Body, the two ints, its result and the task it pushes are carried in
// the pooled block, and putBlock clears the task's job with the body.
// fibtree and wl.For's splits spawn through it, so native_forkjoin
// measures the scheduler, not the allocator.
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
