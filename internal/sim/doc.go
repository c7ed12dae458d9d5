// Package sim is a deterministic discrete-event engine. Simulated
// activities (workers, daemons, the intake) run as processes, and a
// process is a runtime coroutine: Engine.Run, the one dispatch loop,
// pops the next event and resumes its owner with the next half of
// iter.Pull; the process runs until it parks, which yields back. The
// event order depends only on (virtual time, priority, schedule order)
// — for a late wake, (virtual time, process id) — so a run is fully
// reproducible.
//
// A process parks either until a scheduled virtual time (Sleep /
// WaitUntil) or indefinitely (ParkUntilWake, or WaitUntil(UntilWake)),
// and any running process may wake a parked one (Wake), superseding its
// pending timer. This
// early-wake primitive is what lets the scheduler re-rate in-flight
// task work when a DVFS transition commits mid-task.
//
// # One goroutine at a time
//
// Each coroutine is a goroutine of its own, but exactly one of Run's
// goroutine and the coroutines executes at any moment, and control
// passes only at next and yield. Engine and process state therefore
// needs no locks, and the handoffs give the race detector its
// happens-before edges. Why iter.Pull and not a channel per process: a
// channel handoff is two trips through the Go scheduler per event (make
// the other side runnable, park, get picked up, possibly on another
// thread that was woken for it); a coroutine switch hands the thread
// straight to the other side, with no run queue in between. Processes
// never resume each other: only Run calls next, only park calls yield.
//
// # Who runs what
//
// The step before every dispatch — the tick hook, the pop, the idle
// hook on an empty queue — runs with no process current. Run performs
// it, and so does a parking process on its way out: if the event it
// pops is its own, it moves the clock and returns from park without
// switching at all (the common case for a lone busy process); any other
// event it leaves for Run to dispatch, so nothing is popped twice. Hooks
// therefore run on whichever goroutine got there, always serialised
// with everything else, and may block (the pool's idle hook waits for
// the next submission).
//
// # Stepped waits
//
// WaitUntilStep hands a wait's continuation to the dispatcher: at each
// wake, Run — or the parking process, for its own event — calls the step
// with the process current, and a step that answers "again" is parked
// anew without the process ever having been resumed: until the time it
// names, or, for UntilWake, with no timer at all, until a Wake or an
// Inject. A loop that only looks at the world and waits again (a thief
// probing empty deques, backing off, halting until work arrives; a work
// segment re-planned at a quantum boundary) then costs no switch, and
// GoStep makes a process that is nothing but such a loop — a daemon with
// no coroutine, resumed never. The one rule: a step schedules exactly
// what the process would have, when it would have — so seq, the
// same-instant tie-break of ordinary wakes, never moves; late wakes take
// no seq. internal/core builds on it: a
// worker with no task to run hunts for one in a single stepped wait and
// is resumed only to run the task it found, its DVFS, profiler and
// gossip daemons are GoStep processes, and a task body's Work and Mem
// calls return at once, its segments simulated as one stepped wait at
// its next spawn or return, so a worker is resumed per task and frame,
// not per call or probe.
//
// # Late wakes
//
// A late wait (Late, then the wait) wakes after every ordinary and
// injected event at its instant, and late wakes at one instant fire in
// process-id order. Its place in the order therefore does not depend on
// when it was scheduled, so a process may skip waits whose outcome is
// already known and take a real event only when one could differ: a
// fold is invisible. WakeLate moves a parked process's wake to a late
// wake at a given time, and LatePassed tells whether a late wake at
// some instant would already have fired, so the skipped waits can be
// accounted for when someone looks. A Wake supersedes a late wake even
// at its own instant. internal/core's steal probes are late waits: a
// thief folds its probes of empty deques into one wait, and a push onto
// a folded-over deque gives the thief its real event back.
//
// # Where failures surface
//
// All of them from Run, on its caller's goroutine. The first panic
// inside a process or its step is captured as a *TaskPanic with its stack;
// Run stops dispatching, unwinds every other process through its own
// defers (park panics with a value IsUnwind recognises — recover blocks
// in process bodies must re-raise it) and re-raises the TaskPanic. The
// deadlock panic (empty queue, idle declined, processes alive), "time
// went backwards" and a panic out of a hook — even one a parking
// process was running — are raised by Run as themselves. A
// runtime.Goexit inside a process (t.FailNow, t.Skip) ends Run's
// goroutine the same way. On every one of these paths, and after a
// clean run, Run first stops whatever coroutine is still suspended, so
// it never leaves a goroutine behind.
//
// Wakes are queued by value in two tiers — the 64 earliest in a sorted
// front, the rest in a 4-ary heap — each naming its process by index, so
// the queue holds no pointers and moving a wake costs no write barrier.
// A superseded wake stays queued until it is popped and dropped. A
// steady-state event allocates nothing.
package sim
