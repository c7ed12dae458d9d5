package sweep

import (
	"fmt"
	"sort"
	"time"

	"hermes"
	"hermes/internal/fault"
	"hermes/internal/trace"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// grid is the shape every sweep shares — workload, arrival process,
// rate grid, window, seeds, dispatch — and the one place it is
// validated. Run and RunCluster build theirs from their Configs,
// RunPoint and ReplayTrace use a one-cell grid unvalidated: their own
// callers (the benchmark's fixed point, /capacity) validated already,
// and whatever is wrong still fails where it is used.
type grid struct {
	workload workload.Spec
	trace    string
	rates    []float64
	window   time.Duration
	seed     int64
	trials   int
	workers  int
	dispatch string
	quantum  time.Duration
	// log, when non-nil, receives progress lines and a diagnostic per
	// failed job.
	log func(string)
}

// validate fills the grid's defaults (one trial, rates sorted
// ascending in a copy) and rejects grids that cannot run.
func (g grid) validate() (grid, error) {
	spec, err := g.workload.Validate()
	if err != nil {
		return g, err
	}
	g.workload = spec
	if _, err := trace.Resolve(g.trace); err != nil {
		return g, err
	}
	if _, err := hermes.ParseDispatch(g.dispatch); err != nil {
		return g, err
	}
	if g.quantum < 0 {
		return g, fmt.Errorf("sweep: preempt quantum must be non-negative, got %v", g.quantum)
	}
	if len(g.rates) == 0 {
		return g, fmt.Errorf("sweep: no arrival rates given")
	}
	g.rates = append([]float64(nil), g.rates...)
	sort.Float64s(g.rates)
	if g.rates[0] <= 0 {
		return g, fmt.Errorf("sweep: rates must be positive, got %g", g.rates[0])
	}
	if g.window <= 0 {
		return g, fmt.Errorf("sweep: window must be positive, got %v", g.window)
	}
	if g.trials < 1 {
		g.trials = 1
	}
	return g, nil
}

// canonicalDispatch is the grid's dispatch policy as artifacts carry
// it; the grid must have validated. The default FIFO renders as ""
// (omitted from JSON) so pre-dispatch artifacts keep their byte-exact
// shape; ranked policies render their canonical names.
func (g grid) canonicalDispatch() string {
	d, _ := hermes.ParseDispatch(g.dispatch)
	if d == hermes.DispatchFIFO {
		return ""
	}
	return d.String()
}

// quantumMS is the preemption quantum as artifacts carry it.
func (g grid) quantumMS() float64 {
	return float64(g.quantum) / float64(time.Millisecond)
}

// fleet is the simulated hardware one trial runs on. The zero policy is
// NewCluster's default; with one machine every policy places alike.
type fleet struct {
	mode     hermes.Mode
	machines int
	policy   *hermes.Placement
	// plan names the fault plan compiled for each trial's seed and fleet
	// size ("" or "none" = fault-free).
	plan string
}

// point measures one grid cell: g.trials seeded traces (seed, seed+1,
// …) at rate rps, each served by a fresh fleet, pooled into one fold.
// The result is deterministic in (g, fl, rps).
func (g grid) point(fl fleet, rps float64) (*fold, error) {
	f := newFold(fl.machines)
	for trial := 0; trial < max(g.trials, 1); trial++ {
		seed := g.seed + int64(trial)
		arrivals, err := TraceArrivals(g.workload, g.trace, rps, g.window, seed)
		if err != nil {
			return nil, err
		}
		if err := g.trial(f, fl, seed, arrivals); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// trial serves one arrival trace on one fresh simulated fleet (a Sim
// Runtime) — the only place a sweep touches the runtime — and adds what
// it measured to f: submit the trace, wait for every job, close, read
// the fleet ledger.
func (g grid) trial(f *fold, fl fleet, seed int64, arrivals []hermes.Arrival) error {
	dispatch, err := hermes.ParseDispatch(g.dispatch)
	if err != nil {
		return err
	}
	opts := []hermes.Option{
		hermes.WithMachines(fl.machines),
		hermes.WithMode(fl.mode),
		hermes.WithSeed(seed),
	}
	if fl.policy != nil {
		opts = append(opts, hermes.WithPlacement(*fl.policy))
	}
	if dispatch != hermes.DispatchFIFO {
		opts = append(opts, hermes.WithDispatch(dispatch))
	}
	if g.quantum > 0 {
		opts = append(opts, hermes.WithPreemptQuantum(units.Time(g.quantum)*units.Nanosecond))
	}
	if fault.Canonical(fl.plan) != "" {
		horizon := units.Time(g.window.Nanoseconds()) * units.Nanosecond
		evs, err := fault.Compile(fl.plan, seed, fl.machines, horizon)
		if err != nil {
			return err
		}
		opts = append(opts, hermes.WithFaults(evs...))
	}
	if g.workers > 0 {
		opts = append(opts, hermes.WithWorkers(g.workers))
	}
	c, err := hermes.NewCluster(opts...)
	if err != nil {
		return err
	}
	jobs, err := c.SubmitTrace(nil, arrivals)
	if err != nil {
		c.Close()
		return err
	}
	t := trialOut{arrivals: arrivals, reports: make([]hermes.Report, len(jobs)), errs: make([]error, len(jobs))}
	for i, j := range jobs {
		t.reports[i], t.errs[i] = j.Wait()
		if t.errs[i] != nil && g.log != nil {
			g.log(fmt.Sprintf("sweep: job %d failed: %v", j.ID(), t.errs[i]))
		}
	}
	// One close, error-checked: the engine must have shut down cleanly
	// for the fleet ledger below to be final.
	if err := c.Close(); err != nil {
		return err
	}
	t.stats = c.ClusterStats()
	t.workers = c.Config().Workers
	events, resumes, probes := c.EngineStats()
	f.events, f.resumes, f.probes = f.events+events, f.resumes+resumes, f.probes+probes
	f.add(t)
	return nil
}

// trialOut is what one trial produced: a report (or error) per arrival,
// in trace order, and the fleet ledger.
type trialOut struct {
	arrivals []hermes.Arrival
	reports  []hermes.Report
	errs     []error
	stats    hermes.ClusterStats
	workers  int // per machine, as validated
}

// classAcc accumulates one service class's raw measurements.
type classAcc struct {
	arrivals  int64
	errors    int64
	sojourns  []units.Time
	jobJoules float64
	sloMet    int64
}

// fold pools the trials of one grid cell. Point and ClusterPoint are
// both rendered from it, so a percentile, a class row or a tier share
// means the same thing in every artifact.
type fold struct {
	trials  int
	workers int // per machine, as the last trial simulated

	arrivals, errors int64
	peak             int64
	makespan         units.Time
	sojourns, queues []units.Time
	jobJoules        float64 // Σ per-job attributed energy, completed jobs
	steals           int64

	// Fleet ledger, summed over trials.
	fleetJ       float64
	fleetElapsed units.Time
	tierBusy     map[units.Freq]units.Time
	totalBusy    units.Time
	perMachine   []MachinePoint
	migrated     int64
	idleMachines int64
	crashes      int64
	rejoins      int64
	retries      int64
	lost         int64
	downtime     units.Time

	// classes is keyed by the full class value; empty for unclassed
	// traces.
	classes map[hermes.Class]*classAcc

	// Engine events, coroutine resumes and steal-probe events over the
	// trials; in no artifact.
	events, resumes, probes uint64
}

func newFold(machines int) *fold {
	f := &fold{
		tierBusy:   map[units.Freq]units.Time{},
		perMachine: make([]MachinePoint, machines),
		classes:    map[hermes.Class]*classAcc{},
	}
	for m := range f.perMachine {
		f.perMachine[m].Machine = m
	}
	return f
}

// add pools one trial. A failed job occupied the system from arrival
// until it failed (its partial report still carries the real sojourn),
// so it counts toward in-flight depth and the makespan — only the
// latency percentiles, steals and energy stay success-only.
func (f *fold) add(t trialOut) {
	f.trials++
	f.workers = t.workers
	f.arrivals += int64(len(t.arrivals))
	mixed := false
	for _, a := range t.arrivals {
		if !a.Class.IsZero() {
			mixed = true
			break
		}
	}
	var (
		spans     = make([]Span, len(t.arrivals))
		makespan  units.Time
		jobJoules float64
	)
	for i, a := range t.arrivals {
		rep := t.reports[i]
		done := a.At + rep.Sojourn
		spans[i] = Span{Arrive: a.At, Done: done}
		makespan = max(makespan, done)
		var acc *classAcc
		if mixed {
			if acc = f.classes[a.Class]; acc == nil {
				acc = &classAcc{}
				f.classes[a.Class] = acc
			}
			acc.arrivals++
		}
		if t.errs[i] != nil {
			f.errors++
			if acc != nil {
				acc.errors++
			}
			continue
		}
		f.sojourns = append(f.sojourns, rep.Sojourn)
		f.queues = append(f.queues, max(rep.Sojourn-rep.Span, 0))
		jobJoules += rep.EnergyJ
		f.steals += rep.Steals
		if acc != nil {
			acc.sojourns = append(acc.sojourns, rep.Sojourn)
			acc.jobJoules += rep.EnergyJ
			if target := a.Class.SLOTarget; target > 0 && rep.Sojourn <= target {
				acc.sloMet++
			}
		}
	}
	f.peak = max(f.peak, PeakInflight(spans))
	f.makespan += makespan
	f.jobJoules += jobJoules

	st := t.stats
	f.fleetJ += st.EnergyJ
	f.fleetElapsed += st.Elapsed
	f.crashes += st.Crashes
	f.rejoins += st.Rejoins
	f.retries += st.Retries
	f.lost += st.Lost
	for _, d := range st.Downtime {
		f.downtime += d
	}
	for m, ms := range st.Machines {
		mp := &f.perMachine[m]
		mp.Placed += st.Placed[m]
		mp.Migrated += st.Migrated[m]
		mp.Tasks += ms.Tasks
		mp.Steals += ms.Steals
		mp.EnergyJ += ms.EnergyJ
		f.migrated += st.Migrated[m]
		if ms.Tasks == 0 {
			mp.IdleTrials++
			f.idleMachines++
		}
		f.totalBusy += ms.Busy
		for freq, d := range ms.FreqBusy {
			f.tierBusy[freq] += d
		}
		if t.workers > 0 && st.Elapsed > 0 {
			mp.BusyFrac += float64(ms.Busy) / (float64(st.Elapsed) * float64(t.workers))
		}
	}
}

// completed is the number of jobs that finished without error.
func (f *fold) completed() int64 { return int64(len(f.sojourns)) }

// perCompleted divides a pooled total by the completed jobs (0 with
// none).
func (f *fold) perCompleted(total float64) float64 {
	if f.completed() == 0 {
		return 0
	}
	return total / float64(f.completed())
}

// machinePoint renders the fold as one single-machine Point.
func (f *fold) machinePoint(rps float64) Point {
	return Point{
		OfferedRPS:       rps,
		latency:          f.latency(),
		JoulesPerRequest: f.perCompleted(f.jobJoules),
		AvgPowerW:        f.avgPowerW(),
		StealsPerRequest: f.perCompleted(float64(f.steals)),
		Tiers:            f.tiers(),
		Classes:          f.classPoints(),
	}
}

// avgPowerW is the fleet's energy over its elapsed virtual time, both
// summed over trials.
func (f *fold) avgPowerW() float64 {
	if s := f.fleetElapsed.Seconds(); s > 0 {
		return f.fleetJ / s
	}
	return 0
}

// latency renders the pooled counts and percentiles. It sorts the
// fold's samples in place.
func (f *fold) latency() latency {
	sortTimes(f.sojourns)
	sortTimes(f.queues)
	l := latency{
		Arrivals:     f.arrivals,
		Completed:    f.completed(),
		Errors:       f.errors,
		PeakInflight: f.peak,
		MakespanS:    f.makespan.Seconds(),
		P50SojournMS: pctMS(f.sojourns, 0.50),
		P95SojournMS: pctMS(f.sojourns, 0.95),
		P99SojournMS: pctMS(f.sojourns, 0.99),
		MaxSojournMS: pctMS(f.sojourns, 1),
		P50QueueMS:   pctMS(f.queues, 0.50),
		P95QueueMS:   pctMS(f.queues, 0.95),
		P99QueueMS:   pctMS(f.queues, 0.99),
	}
	if l.MakespanS > 0 {
		l.ObservedRPS = float64(l.Completed) / l.MakespanS
	}
	return l
}

// tiers renders fleet-wide DVFS residency, fastest tier first.
func (f *fold) tiers() []Tier {
	freqs := make([]units.Freq, 0, len(f.tierBusy))
	for freq := range f.tierBusy {
		freqs = append(freqs, freq)
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	var tiers []Tier
	for _, freq := range freqs {
		tier := Tier{FreqKHz: int64(freq), BusyS: f.tierBusy[freq].Seconds()}
		if f.totalBusy > 0 {
			tier.Frac = float64(f.tierBusy[freq]) / float64(f.totalBusy)
		}
		tiers = append(tiers, tier)
	}
	return tiers
}

// classPoints renders the pooled per-class accumulators as artifact
// rows in classOrder — deterministic for a fixed config. Nil for
// unclassed traces, so the Classes fields stay omitted from JSON.
func (f *fold) classPoints() []ClassPoint {
	if len(f.classes) == 0 {
		return nil
	}
	keys := classOrder(f.classes)
	out := make([]ClassPoint, 0, len(keys))
	for _, c := range keys {
		acc := f.classes[c]
		sortTimes(acc.sojourns)
		cp := ClassPoint{
			Tenant:       c.Tenant,
			Priority:     c.Priority,
			Arrivals:     acc.arrivals,
			Errors:       acc.errors,
			Completed:    int64(len(acc.sojourns)),
			P50SojournMS: pctMS(acc.sojourns, 0.50),
			P95SojournMS: pctMS(acc.sojourns, 0.95),
			P99SojournMS: pctMS(acc.sojourns, 0.99),
		}
		if cp.Completed > 0 {
			cp.JoulesPerRequest = acc.jobJoules / float64(cp.Completed)
		}
		if c.SLOTarget > 0 {
			target := float64(c.SLOTarget) / float64(units.Millisecond)
			cp.SLOTargetMS = &target
			attain := 0.0
			if cp.Completed > 0 {
				attain = float64(acc.sloMet) / float64(cp.Completed)
			}
			cp.SLOAttainment = &attain
		}
		out = append(out, cp)
	}
	return out
}

// classOrder returns the pooled classes in the order every
// per-class artifact lists them: highest priority first, then tenant,
// deadline and SLO target ascending.
func classOrder(classes map[hermes.Class]*classAcc) []hermes.Class {
	keys := make([]hermes.Class, 0, len(classes))
	for c := range classes {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		return a.SLOTarget < b.SLOTarget
	})
	return keys
}

// sortTimes sorts virtual times ascending.
func sortTimes(ts []units.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}

// nearestRank returns the index of the p-quantile (0..1) among n sorted
// samples by the nearest-rank method, clamped to [0, n-1]; n must be
// positive. It is the one percentile rule behind every sweep artifact
// and the load generator's wall-clock run. (metrics.Hist.Quantile
// interpolates inside histogram buckets: a different algorithm for data
// that keeps no samples.)
func nearestRank(n int, p float64) int {
	return min(max(int(p*float64(n)+0.5)-1, 0), n-1)
}

// pctMS returns the p-quantile (0..1, nearest rank) of sorted virtual
// times in milliseconds at full picosecond resolution — sub-millisecond
// sim sojourns survive instead of truncating through microseconds.
func pctMS(sorted []units.Time, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[nearestRank(len(sorted), p)]) / float64(units.Millisecond)
}
