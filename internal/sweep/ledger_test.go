package sweep

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hermes"
	"hermes/internal/fault"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// TestFaultLedgerAccountsEveryArrival (ROADMAP 5(c)): over 20 seeds, a
// 2–6-machine fleet replays the mix trace under a compiled crash,
// failslow or blip plan; on even seeds the whole fleet then crashes for
// good at 90 % of the window, so jobs in flight or arriving after it are
// lost. Every arrival ends exactly once: its Wait gives a report and the
// observer one JobDone, or ErrJobLost and no JobDone, or another error.
// The three counts sum to the arrivals and match the fleet ledger, and a
// second run of the same seed gives identical ClusterStats. Crash
// re-placement and the fault daemon are the engine's heaviest Inject and
// Wake users.
func TestFaultLedgerAccountsEveryArrival(t *testing.T) {
	const window = 20 * time.Millisecond
	horizon := units.Time(window.Nanoseconds()) * units.Nanosecond
	plans := []string{"crash", "failslow", "blip"}
	var lostAny bool
	for seed := int64(1); seed <= 20; seed++ {
		machines, plan := 2+int(seed%5), plans[seed%3]
		arrivals, err := TraceArrivals(workload.Spec{Kind: "ticks", N: 128, Grain: 4, Work: 200_000}, "mix", 300*float64(machines), window, seed)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := fault.Compile(plan, seed, machines, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 { // the whole fleet then fails for good: the tail is lost
			for m := 0; m < machines; m++ {
				evs = append(evs, hermes.FaultEvent{At: horizon * 9 / 10, Machine: m, Kind: hermes.FaultCrash})
			}
		}
		opts := []hermes.Option{hermes.WithMachines(machines), hermes.WithWorkers(2), hermes.WithSeed(seed), hermes.WithFaults(evs...)}
		run := func() (st hermes.ClusterStats, completed, lost, other int64) {
			done := map[int64]int{}
			c, err := hermes.NewCluster(append(opts, hermes.WithObserver(hermes.ObserverFunc(func(e hermes.Event) {
				if e.Kind == hermes.EventJobDone {
					done[e.Job]++
				}
			})))...)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := c.SubmitTrace(context.Background(), arrivals)
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, len(jobs))
			for i, j := range jobs {
				_, errs[i] = j.Wait()
			}
			if err := c.Close(); err != nil { // the observer has run its last
				t.Fatal(err)
			}
			for i, j := range jobs {
				want := 0
				switch {
				case errs[i] == nil:
					completed, want = completed+1, 1
				case errors.Is(errs[i], hermes.ErrJobLost):
					lost++
				default:
					other++
				}
				if done[j.ID()] != want {
					t.Fatalf("seed %d (%s, %d machines): job %d (%v) saw %d JobDone events, want %d",
						seed, plan, machines, j.ID(), errs[i], done[j.ID()], want)
				}
			}
			return c.ClusterStats(), completed, lost, other
		}
		st, completed, lost, other := run()
		if n := int64(len(arrivals)); completed+lost+other != n {
			t.Fatalf("seed %d: %d completed + %d lost + %d failed != %d arrivals", seed, completed, lost, other, n)
		}
		if st.Completed != completed || st.Lost != lost {
			t.Fatalf("seed %d: ledger completed %d, lost %d; jobs say %d and %d", seed, st.Completed, st.Lost, completed, lost)
		}
		again, _, _, _ := run()
		if a, b := fmt.Sprintf("%+v", st), fmt.Sprintf("%+v", again); a != b {
			t.Fatalf("seed %d: fleet stats diverged between two runs:\n%s\nvs\n%s", seed, a, b)
		}
		lostAny = lostAny || lost > 0
	}
	if !lostAny {
		t.Fatal("no seed lost a job: the ErrJobLost branch went untested")
	}
}
