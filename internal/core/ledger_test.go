package core

import (
	"fmt"
	"testing"

	"hermes/internal/cpu"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// checkRendered asserts the identities every rendered ledger keeps:
// busy time is the same total whether summed by frequency, over
// workers or read directly, and so is slow busy time.
func checkRendered(t *testing.T, what string, busy, slowBusy units.Time, freqBusy map[units.Freq]units.Time, perWorker []WorkerStats) {
	t.Helper()
	var byFreq, byWorker, slowByWorker units.Time
	for _, d := range freqBusy {
		byFreq += d
	}
	for _, pw := range perWorker {
		byWorker += pw.Busy
		slowByWorker += pw.SlowBusy
	}
	if byFreq != busy || (perWorker != nil && byWorker != busy) {
		t.Fatalf("%s: busy %v, by frequency %v, by worker %v", what, busy, byFreq, byWorker)
	}
	if perWorker != nil && slowByWorker != slowBusy {
		t.Fatalf("%s: slow busy %v, by worker %v", what, slowBusy, slowByWorker)
	}
}

// TestResidencyConservation pins that the (state × frequency) ledger
// loses no core-time: every machine's residency covers Workers × its
// up time exactly, a job placed once covers Workers × its sojourn, and
// every rendering agrees with itself — in all four modes, with and
// without a machine crash.
func TestResidencyConservation(t *testing.T) {
	ats := make([]units.Time, 8)
	for i := range ats {
		ats[i] = units.Time(i) * 40 * units.Microsecond
	}
	mk := func(i int) wl.Task { return poolWork(16 + 8*(i%3)) }
	for _, mode := range []Mode{Baseline, WorkpathOnly, WorkloadOnly, Unified} {
		faultFree := ClusterConfig{
			Machines:  2,
			Machine:   Config{Spec: cpu.SystemB(), Workers: 4, Seed: 5},
			Placement: randomPlace{},
		}
		for i, ccfg := range []ClusterConfig{faultFree, crashConfig()} {
			t.Run(fmt.Sprintf("%v/%s", mode, []string{"fault-free", "crash"}[i]), func(t *testing.T) {
				ccfg.Machine.Mode = mode
				reports, errs, _, st := traceCluster(t, ccfg, ats, mk)
				workers := units.Time(ccfg.Machine.Workers)
				for m, ms := range st.Machines {
					up := st.Elapsed
					if st.Downtime != nil {
						up -= st.Downtime[m]
					}
					if got := ms.Busy + ms.Spin + ms.Idle; got != workers*up {
						t.Fatalf("machine %d: residency %v, want %d × %v", m, got, workers, up)
					}
					checkRendered(t, fmt.Sprintf("machine %d", m), ms.Busy, ms.SlowBusy, ms.FreqBusy, nil)
				}
				for i, r := range reports {
					if errs[i] != nil {
						t.Fatalf("job %d: %v", i+1, errs[i])
					}
					checkRendered(t, fmt.Sprintf("job %d", i+1), r.BusyTime, r.SlowBusyTime, r.FreqBusy, r.PerWorker)
					if r.Retries != 0 {
						continue // covers its final placement only
					}
					var covered units.Time
					for _, pw := range r.PerWorker {
						covered += pw.Busy + pw.Spin + pw.Idle
					}
					if covered != workers*r.Sojourn {
						t.Fatalf("job %d: residency %v, want %d × sojourn %v", i+1, covered, workers, r.Sojourn)
					}
				}
			})
		}
	}
}

// TestFleetSnapshotAllocatesNothing pins the per-completion fleet
// freeze to the machines' reused ledger buffers: once warm, copying
// every machine's ledger allocates nothing.
func TestFleetSnapshotAllocatesNothing(t *testing.T) {
	c, err := NewCluster(crashConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	if err := c.Submit(JobRequest{ID: 1, Root: poolWork(8), Done: func(Report, error) { close(done) }}); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.Stats() // the engine goroutine has exited: the machines are ours
	end := &c.ms[0].end
	if n := testing.AllocsPerRun(100, func() { c.freezeFleet(0, end) }); n != 0 {
		t.Fatalf("fleet snapshot allocates %v times per completion, want 0", n)
	}
}
