package core

import "hermes/internal/units"

// MaxFreqs bounds the tempo-frequency set (Config.Freqs) a Ledger's
// residency matrix covers; Validate rejects larger sets on both
// executors.
const MaxFreqs = 8

// Ledger is one machine's accounting, kept the same way by both
// executors: the machine's joules, each worker's exact residency in
// every (core state × tempo frequency) pair, and the scheduler
// counters. Sim credits it directly (sched.touch); Native folds its
// seqlocked per-worker cells into one at each read. A job's report is
// the difference between two copies, rendered by Since.
type Ledger struct {
	// Joules is the machine's exact integrated energy.
	Joules float64
	// Workers holds one residency matrix per worker.
	Workers []WorkerLedger

	Tasks, Spawns, Steals, FailedSteals int64
	TempoSwitches, DVFSCommits, Parks   int64
}

// WorkerLedger is one worker's part of a Ledger. Res[st-1][fi] is the
// time its core spent in state st (cpu.IdleHalt, Spin or Busy) at
// tempo frequency Config.Freqs[fi]; Steals counts its landed steals.
type WorkerLedger struct {
	Res    [3][MaxFreqs]units.Time
	Steals int64
}

// CopyFrom makes l a copy of src, reusing l's worker buffer.
func (l *Ledger) CopyFrom(src *Ledger) {
	ws := l.Workers
	*l = *src
	l.Workers = append(ws[:0], src.Workers...)
}

// Since renders the activity between base and l (base nil: since the
// ledger began) into a Report's counters and residency; freqs is the
// tempo set the matrices index. Slow time is any index but 0
// (Freqs[0] is the maximum) and FreqBusy keeps positive entries only.
// Joules and every other field are the caller's.
func (l *Ledger) Since(base *Ledger, freqs []units.Freq) Report {
	var zero WorkerLedger
	if base == nil {
		base = &Ledger{}
	}
	r := Report{
		Tasks:         l.Tasks - base.Tasks,
		Spawns:        l.Spawns - base.Spawns,
		Steals:        l.Steals - base.Steals,
		FailedSteals:  l.FailedSteals - base.FailedSteals,
		TempoSwitches: l.TempoSwitches - base.TempoSwitches,
		DVFSCommits:   l.DVFSCommits - base.DVFSCommits,
		Parks:         l.Parks - base.Parks,
		FreqBusy:      map[units.Freq]units.Time{},
		PerWorker:     make([]WorkerStats, len(l.Workers)),
	}
	var busyAt [MaxFreqs]units.Time
	for i := range l.Workers {
		b, a := &l.Workers[i], &zero
		if base.Workers != nil {
			a = &base.Workers[i]
		}
		pw := &r.PerWorker[i]
		pw.Steals = b.Steals - a.Steals
		for fi := range freqs {
			idle := b.Res[0][fi] - a.Res[0][fi]
			spin := b.Res[1][fi] - a.Res[1][fi]
			busy := b.Res[2][fi] - a.Res[2][fi]
			pw.Idle += idle
			pw.Spin += spin
			pw.Busy += busy
			if fi != 0 {
				pw.SlowSpin += spin
				pw.SlowBusy += busy
			}
			busyAt[fi] += busy
		}
		r.IdleTime += pw.Idle
		r.SpinTime += pw.Spin
		r.BusyTime += pw.Busy
		r.SlowBusyTime += pw.SlowBusy
	}
	for fi, f := range freqs {
		if busyAt[fi] > 0 {
			r.FreqBusy[f] = busyAt[fi]
		}
	}
	return r
}

// MachineStats renders the ledger, read at time at since the machine
// started, as the machine's whole-life aggregate: Sim reads it at its
// last job completion, Native at the caller's wall-clock instant.
func (l *Ledger) MachineStats(at units.Time, freqs []units.Freq) MachineStats {
	r := l.Since(nil, freqs)
	return MachineStats{
		Elapsed:       at,
		EnergyJ:       l.Joules,
		Busy:          r.BusyTime,
		Spin:          r.SpinTime,
		Idle:          r.IdleTime,
		SlowBusy:      r.SlowBusyTime,
		FreqBusy:      r.FreqBusy,
		Tasks:         r.Tasks,
		Spawns:        r.Spawns,
		Steals:        r.Steals,
		FailedSteals:  r.FailedSteals,
		TempoSwitches: r.TempoSwitches,
		DVFSCommits:   r.DVFSCommits,
		Parks:         r.Parks,
	}
}
