// Package core implements the HERMES scheduler of Ribic & Liu
// (ASPLOS 2014): a Cilk-style work-stealing runtime whose workers
// execute at different tempos (DVFS frequencies) chosen by the
// workpath-sensitive and workload-sensitive algorithms of the paper's
// Figure 5, executed over the deterministic discrete-event machine
// model in internal/cpu, internal/power and internal/meter.
//
// Two drivers sit on the scheduler (sched, worker). Run executes one
// root task to completion on a fresh machine: the paper's closed-system
// figures. Cluster serves a stream of jobs arriving in virtual time on
// N machines sharing one engine, behind a placement tier; it owns the
// one engine goroutine, submission bridge, arrival heap, intake process
// and end-of-trace ledger. One machine is a Cluster with Machines 1, so
// open-system, fleet and fault-injection evaluations run the same
// machine through the same code.
package core
