// Package deque implements the work-stealing deque of Cilk-style
// runtimes, following Figure 2 of Ribic & Liu (ASPLOS 2014): an
// array-backed queue manipulated at the tail by its owning worker
// (PUSH, POP) and at the head by thieves (STEAL), with the THE-style
// optimistic locking protocol — the owner's POP takes the lock only
// when it may race a thief for the last item, while STEAL always
// locks.
//
// The paper's pseudocode indexes the last item with T; this
// implementation uses the equivalent past-the-end convention of the
// original Cilk-5 THE protocol (size = T-H, empty iff H >= T). The
// protocol and its conflict-resolution behaviour are identical.
//
// The lock-free Chase–Lev deque (chaselev.go) is the Native executor's:
// running internal/rt on THE instead cut native_forkjoin by 17 %
// (86.9–89.3 jobs/s against a median of 106.8, five alternating 3 s
// runs). THE stays for tests and the benchmark's rungs. Chase–Lev's
// push and pop counts are its owner's plain fields, so Stats may be
// read only by the owner or once the owner is quiescent.
package deque
