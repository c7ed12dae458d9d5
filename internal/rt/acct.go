package rt

import (
	"runtime"
	"sync/atomic"

	"hermes/internal/core"
	"hermes/internal/cpu"
)

// This file is the lock-free accounting spine of the Native executor.
//
// Each worker owns one padded accounting cell: it publishes its
// current (state, freq index, since-nanoseconds) in a single packed
// atomic word and accumulates its own exact residency matrix —
// nanoseconds spent in each (state, frequency) pair — locally. Nobody
// holds a global lock, and a worker's transition touches only its own
// cache lines. A job-boundary read (snapshot) folds the cells into a
// core.Ledger, the same (state × frequency) ledger the simulator
// keeps, and reports render through the same Ledger.Since.
//
// Because the power model is linear in per-core contributions
// (machine watts = uncore + Σ per-core watts(state, freq), and each
// worker owns a whole clock domain whose other cores stay Unused),
// the machine's exact integrated energy falls out of the residency
// matrix: joules = baseWatts·elapsed + Σ_w Σ_{state,freq}
// watts[state][freq]·residency_w[state][freq]. Readers (job
// snapshots and the 100 Hz meterLoop) fold the cells on demand —
// integration happens at read time, not on every transition, and is
// still exact, not sampled.
//
// Consistency: each cell is guarded by a seqlock. The writer side is
// owner-mostly — the only foreign writer is a thief retuning its
// victim's tempo under tempoMu, so writer-side contention is rare and
// the CAS acquisition almost always succeeds first try. Readers
// retry until they observe a stable even sequence, making a fold a
// consistent snapshot of word + matrix without blocking the owner.

// packAcct packs a core state (2 bits), tempo-frequency index
// (6 bits) and monotonic nanoseconds since executor start (56 bits —
// over two years) into one publishable word.
func packAcct(st cpu.CoreState, fi int, sinceNS int64) uint64 {
	return uint64(st) | uint64(fi)<<2 | uint64(sinceNS)<<8
}

func unpackAcct(w uint64) (st cpu.CoreState, fi int, sinceNS int64) {
	return cpu.CoreState(w & 3), int(w >> 2 & 63), int64(w >> 8)
}

// acct is one worker's accounting cell. The leading and trailing pads
// keep neighbouring workers' cells off its cache lines; everything
// inside is written by the owning worker (or, rarely, by a retuning
// thief under the seqlock).
type acct struct {
	_    [64]byte
	seq  atomic.Uint64 // seqlock: odd while a writer is inside
	word atomic.Uint64 // packed (state, freq index, sinceNS)
	// res is the exact residency matrix in nanoseconds, indexed
	// [state-1][freqIndex] for states IdleHalt/Spin/Busy.
	res [3][core.MaxFreqs]atomic.Int64
	// Per-worker steal counters, folded into pool totals on read: the
	// owner (acting as thief) is the only writer, so the atomics never
	// contend.
	steals, failedSteals atomic.Int64
	_                    [64]byte
}

// lockCell acquires the writer side of the cell's seqlock. The only
// possible contention is owner vs a victim-retuning thief, so the
// loop effectively never spins.
func (a *acct) lockCell() {
	for {
		s := a.seq.Load()
		if s&1 == 0 && a.seq.CompareAndSwap(s, s+1) {
			return
		}
		runtime.Gosched()
	}
}

func (a *acct) unlockCell() { a.seq.Add(1) }

// acctSet transitions a cell's published (state, freq): st < 0 keeps
// the current state, fi < 0 the current frequency index. The elapsed
// interval is credited to the outgoing (state, freq) residency cell,
// so totals stay exact across every transition. The clock is read
// inside the critical section, which keeps published sinceNS values
// monotonic even when owner and thief writers interleave.
func (e *Exec) acctSet(a *acct, st int, fi int) {
	a.lockCell()
	now := e.nowNS()
	ost, ofi, since := unpackAcct(a.word.Load())
	if d := now - since; d > 0 && ost >= cpu.IdleHalt {
		a.res[ost-1][ofi].Add(d)
	}
	nst, nfi := ost, ofi
	if st >= 0 {
		nst = cpu.CoreState(st)
	}
	if fi >= 0 {
		nfi = fi
	}
	a.word.Store(packAcct(nst, nfi, now))
	a.unlockCell()
}

// acctFold is a consistent read of one cell: the residency matrix
// with the in-flight interval already credited, the current (state,
// freq), and the steal counters.
type acctFold struct {
	res [3][core.MaxFreqs]int64
	st  cpu.CoreState
	fi  int

	steals, failedSteals int64
}

// foldAcct snapshots a cell through the reader side of its seqlock,
// then extends the matrix to "now" using the published word, so the
// fold is an exact integral up to the moment of the read.
func (e *Exec) foldAcct(a *acct) acctFold {
	var f acctFold
	var word uint64
	for {
		s := a.seq.Load()
		if s&1 != 0 {
			runtime.Gosched()
			continue
		}
		word = a.word.Load()
		for st := range f.res {
			for fi := range f.res[st] {
				f.res[st][fi] = a.res[st][fi].Load()
			}
		}
		if a.seq.Load() == s {
			break
		}
	}
	st, fi, since := unpackAcct(word)
	f.st, f.fi = st, fi
	// The clock read is ordered after the word read, and writers stamp
	// sinceNS from inside their critical section, so now >= since.
	if d := e.nowNS() - since; d > 0 && st >= cpu.IdleHalt {
		f.res[st-1][fi] += d
	}
	f.steals = a.steals.Load()
	f.failedSteals = a.failedSteals.Load()
	return f
}
