package hermes_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hermes"
)

// capTrace is the small arrival trace every supported Sim cell serves.
func capTrace() []hermes.Arrival {
	root, _ := leafWorkload(16)
	var arrivals []hermes.Arrival
	for i := 0; i < 4; i++ {
		arrivals = append(arrivals, hermes.Arrival{At: hermes.Time(i) * 30 * hermes.Microsecond, Task: root})
	}
	return arrivals
}

// serveTrace replays capTrace through SubmitTrace, closes rt and checks
// that every job completed and the fleet ledger shows it. Only
// SubmitTrace's own refusal is returned; anything else fails the test.
func serveTrace(t *testing.T, rt *hermes.Runtime) error {
	t.Helper()
	arrivals := capTrace()
	jobs, err := rt.SubmitTrace(context.Background(), arrivals)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if rep, err := j.Wait(); err != nil || rep.Tasks == 0 {
			t.Fatalf("job %d: %+v, %v", j.ID(), rep, err)
		}
	}
	// Before Close the engine answers with the same ledger: the one
	// through the last completion.
	live := rt.ClusterStats()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if st := rt.ClusterStats(); st.Completed != int64(len(arrivals)) || st.EnergyJ <= 0 || len(st.Machines) != rt.Machines() {
		t.Fatalf("ledger does not show the trace: %+v", st)
	} else if !reflect.DeepEqual(live, st) {
		t.Fatalf("ledger read before Close:\n%+v\nafter:\n%+v", live, st)
	}
	return nil
}

// serve runs jobs the way each backend can: a virtual-time trace on
// Sim, one submit-and-wait on Native.
func serve(t *testing.T, rt *hermes.Runtime) error {
	t.Helper()
	if rt.Backend() == hermes.Sim {
		return serveTrace(t, rt)
	}
	root, _ := leafWorkload(16)
	if rep, err := rt.Run(context.Background(), root); err != nil || rep.Tasks == 0 {
		t.Fatalf("native job: %+v, %v", rep, err)
	}
	return nil
}

// TestCapabilityMatrix is the one table of what each backend can do
// (ROADMAP 5(d)): every option or method that is not universal, on Sim
// and on Native. A supported cell is exercised — jobs complete and the
// ledger is non-zero; an unsupported one must refuse with an
// error matching one of the package's three capability sentinels,
// whether the refusal comes from New or from the method.
func TestCapabilityMatrix(t *testing.T) {
	crashAndRejoin := []hermes.FaultEvent{
		{At: 40 * hermes.Microsecond, Machine: 0, Kind: hermes.FaultCrash},
		{At: 300 * hermes.Microsecond, Machine: 0, Kind: hermes.FaultRejoin},
	}
	machineStats := func(t *testing.T, rt *hermes.Runtime) error {
		if err := serve(t, rt); err != nil {
			return err
		}
		rt.Close()
		ms, err := rt.MachineStats()
		if err == nil && (ms.EnergyJ <= 0 || ms.Tasks == 0) {
			t.Fatalf("degenerate machine stats: %+v", ms)
		}
		return err
	}
	rows := []struct {
		name string
		opts []hermes.Option
		// probe uses the capability on a built Runtime and returns its
		// refusal, if any.
		probe func(*testing.T, *hermes.Runtime) error
		// sim and native are the sentinel each backend refuses with; nil
		// means the cell must work.
		sim, native error
	}{
		{"WithMachines(3)", []hermes.Option{hermes.WithMachines(3)}, serve, nil, hermes.ErrSimOnly},
		{"WithPlacement", []hermes.Option{hermes.WithPlacement(hermes.PlacementJSQ())}, serve, nil, hermes.ErrSimOnly},
		{"WithFaults", []hermes.Option{hermes.WithFaults(crashAndRejoin...)}, func(t *testing.T, rt *hermes.Runtime) error {
			if err := serve(t, rt); err != nil {
				return err
			}
			if st := rt.ClusterStats(); st.Crashes != 1 || st.Rejoins != 1 || st.Retries == 0 {
				t.Fatalf("the plan did not play out: %+v", st)
			}
			return nil
		}, nil, hermes.ErrSimOnly},
		{"WithDispatch(priority)", []hermes.Option{hermes.WithDispatch(hermes.DispatchPriority)}, serve, nil, hermes.ErrSimOnly},
		{"WithDispatch(edf)", []hermes.Option{hermes.WithDispatch(hermes.DispatchEDF)}, serve, nil, hermes.ErrSimOnly},
		{"WithPreemptQuantum", []hermes.Option{hermes.WithPreemptQuantum(50 * hermes.Microsecond)}, serve, nil, hermes.ErrSimOnly},
		{"SubmitTrace", nil, serveTrace, nil, hermes.ErrSimOnly},
		{"MachineStats-1-machine", nil, machineStats, nil, nil},
		// A fleet has one ledger per machine: MachineStats points at
		// ClusterStats. Native never gets that far.
		{"MachineStats-3-machines", []hermes.Option{hermes.WithMachines(3)}, machineStats, hermes.ErrStatsUnavailable, hermes.ErrSimOnly},
		{"ClusterStats", nil, func(t *testing.T, rt *hermes.Runtime) error {
			if err := serve(t, rt); err != nil { // on Sim this checks the ledger
				return err
			}
			rt.Close()
			// Native's ledger is its one machine's, as on a one-machine
			// Sim fleet.
			if st := rt.ClusterStats(); rt.Backend() == hermes.Native && (st.Completed != 1 || len(st.Machines) != 1 || st.EnergyJ <= 0) {
				t.Fatalf("native ClusterStats does not show the job: %+v", st)
			}
			// Likewise the engine's counters: an engine that served a job
			// dispatched events and resumed some of them; Native has none.
			if events, resumes, _ := rt.EngineStats(); (rt.Backend() == hermes.Sim) != (events > 0 && resumes > 0 && resumes < events) {
				t.Fatalf("%v EngineStats: %d events, %d resumes", rt.Backend(), events, resumes)
			}
			return nil
		}, nil, nil},
		{"SetMode", nil, func(t *testing.T, rt *hermes.Runtime) error {
			if err := rt.SetMode(hermes.Unified); err != nil {
				return err
			}
			return serve(t, rt)
		}, hermes.ErrModeSwitchUnavailable, nil},
	}
	for _, row := range rows {
		for _, backend := range []hermes.Backend{hermes.Sim, hermes.Native} {
			t.Run(row.name+"/"+backend.String(), func(t *testing.T) {
				want := row.sim
				if backend == hermes.Native {
					want = row.native
				}
				opts := append([]hermes.Option{hermes.WithBackend(backend), hermes.WithSpec(hermes.SystemB()),
					hermes.WithWorkers(2), hermes.WithSeed(3)}, row.opts...)
				rt, err := hermes.New(opts...)
				if err == nil {
					defer rt.Close()
					err = row.probe(t, rt)
				}
				if want == nil {
					if err != nil {
						t.Fatalf("supported cell refused: %v", err)
					}
					return
				}
				if !errors.Is(err, want) {
					t.Fatalf("err = %v, want one wrapping %v", err, want)
				}
			})
		}
	}
	// The fleet constructor is New plus this one refusal.
	if _, err := hermes.NewCluster(hermes.WithBackend(hermes.Native)); !errors.Is(err, hermes.ErrSimOnly) {
		t.Fatalf("NewCluster on Native: %v, want ErrSimOnly", err)
	}
}
