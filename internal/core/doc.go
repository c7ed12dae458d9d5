// Package core implements the HERMES scheduler of Ribic & Liu
// (ASPLOS 2014): a Cilk-style work-stealing runtime whose workers
// execute at different tempos (DVFS frequencies) chosen by the
// workpath-sensitive and workload-sensitive algorithms of the paper's
// Figure 5, executed over the deterministic discrete-event machine
// model in internal/cpu, internal/power and internal/meter.
//
// One driver sits on the scheduler (sched, worker): a machine serves
// the jobs delivered to it, each taken by a worker's schedule loop and
// reported by jobDone. Cluster feeds that path a stream of jobs
// arriving in virtual time on N machines sharing one engine, behind a
// placement tier; it owns the one engine goroutine, submission bridge,
// arrival heap, intake process and end-of-trace ledger, and one machine
// is a Cluster with Machines 1. Run is one job delivered at t = 0 to a
// fresh machine that shuts down when the job completes — the paper's
// closed-system figures — and reports the machine's energy, as the
// paper's DAQ does, in place of the job's share. Closed-system,
// open-system, fleet and fault-injection evaluations run the same
// machine through the same code.
//
// A worker's coroutine resumes only to run a task: finding work — the
// local pop, the delivered roots, steal rounds, back-offs and idle halts
// — and waiting in a join are one stepped wait each (internal/sim),
// whose step hands the worker the task it found, and the DVFS commit,
// profiler and gossip daemons are steps that never resume. A steal
// probe is a late wait: it falls due after everything else at its
// instant, probes among themselves in worker order, so what it sees does
// not depend on when it was scheduled. A thief therefore folds its
// probes of empty deques into one wait; a push that refills a
// folded-over deque gives that probe back its event, and the ledger
// counts the folded probes as failed steals whenever it is read. Task bodies
// run ahead of virtual time: Work and Mem record a segment and return,
// and the worker settles the body's segments — simulating them in order,
// as blocking calls would have — only where the body meets the
// scheduler: entering Go, before its join, at return or panic.
package core
