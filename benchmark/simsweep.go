package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"hermes"
	"hermes/internal/sweep"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// sim_sweep drives the simulator the way every sweep, open-system
// figure and /capacity does. A round is two grids on one seed
// (seed + round):
//
//   - pool half: sweep.RunPoint, `ticks` defaults, rates
//     {50,200,400,800} rps × {baseline, unified}, default workers — one
//     machine, deep queues at the top rate, idle spin-down at the bottom;
//   - cluster half: sweep.RunCluster, `mix` trace, 4 machines × 4
//     workers, policies {p2c, gossip} × faults {none, crash} × rates
//     {200, 800}, edf dispatch with a 50 µs quantum — placement, gossip
//     daemons, crashes, retries and preemption.
//
// An operation is one simulated job; the latency is the host time of
// one grid point, what a caller of RunPoint waits for. The virtual
// window is one second, which makes a round about 14 k jobs and three
// to four seconds of host time.
const (
	simWindow      = time.Second
	simWindowSmall = 200 * time.Millisecond
	simQuantum     = 50 * time.Microsecond
)

var (
	simPoolRates    = []float64{50, 200, 400, 800}
	simPoolModes    = []hermes.Mode{hermes.Baseline, hermes.Unified}
	simPolicies     = []string{"p2c", "gossip"}
	simFaults       = []string{"none", "crash"}
	simClusterRates = []float64{200, 800}
	simSpec         = workload.Spec{Kind: "ticks"}
)

// poolPoint is what the benchmark keeps of one pool grid point. Both
// paths fill the first six fields with bit-identical values; only the
// traced path, which reads the machine ledger itself, knows the rest.
type poolPoint struct {
	arrivals, completed, errors int64
	p99MS, joulesPerReq         float64
	steals                      int64

	tasks, tempoSwitches, dvfsCommits int64
}

// runPoolPoint measures one pool grid point. Untraced it is
// sweep.RunPoint. Traced it makes the calls RunPoint makes — generate
// the trace, build a Sim runtime, SubmitTrace, Wait on every job,
// Close, MachineStats — with a span around each, and folds the reports
// by RunPoint's own rules.
func runPoolPoint(mode hermes.Mode, rps float64, window time.Duration, seed int64, tr *tracer) (poolPoint, error) {
	if tr == nil {
		pt, err := sweep.RunPoint(sweep.PointConfig{
			Workload: simSpec, Mode: mode, RPS: rps, Window: window, Seed: seed,
		})
		if err != nil {
			return poolPoint{}, err
		}
		return poolPoint{
			arrivals: pt.Arrivals, completed: pt.Completed, errors: pt.Errors,
			p99MS: pt.P99SojournMS, joulesPerReq: pt.JoulesPerRequest,
			steals: int64(pt.StealsPerRequest*float64(pt.Completed) + 0.5),
		}, nil
	}
	op := tr.op()
	root := tr.begin("sweep.point", 0, op)
	defer tr.end(root)

	s := tr.begin("trace.generate", root, op)
	arrivals, err := sweep.TraceArrivals(simSpec, "", rps, window, seed)
	tr.end(s)
	if err != nil {
		return poolPoint{}, err
	}
	s = tr.begin("hermes.new", root, op)
	rt, err := hermes.New(hermes.WithBackend(hermes.Sim), hermes.WithMode(mode), hermes.WithSeed(seed))
	tr.end(s)
	if err != nil {
		return poolPoint{}, err
	}
	s = tr.begin("runtime.submit_trace", root, op)
	jobs, err := rt.SubmitTrace(context.Background(), arrivals)
	tr.end(s)
	if err != nil {
		rt.Close()
		return poolPoint{}, err
	}
	pt := poolPoint{arrivals: int64(len(arrivals))}
	var sojourns []units.Time
	var jobJoules float64
	s = tr.begin("job.wait", root, op)
	for _, j := range jobs {
		rep, err := j.Wait()
		if err != nil {
			pt.errors++
			continue
		}
		sojourns = append(sojourns, rep.Sojourn)
		jobJoules += rep.EnergyJ
		pt.steals += rep.Steals
	}
	tr.end(s)
	s = tr.begin("runtime.close", root, op)
	err = rt.Close()
	tr.end(s)
	if err != nil {
		return poolPoint{}, err
	}
	s = tr.begin("runtime.machine_stats", root, op)
	ms, err := rt.MachineStats()
	tr.end(s)
	if err != nil {
		return poolPoint{}, err
	}
	pt.completed = int64(len(sojourns))
	if pt.completed > 0 {
		// Nearest-rank p99 at picosecond resolution, as sweep does it.
		sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
		idx := min(max(int(0.99*float64(len(sojourns))+0.5)-1, 0), len(sojourns)-1)
		pt.p99MS = float64(sojourns[idx]) / float64(units.Millisecond)
		pt.joulesPerReq = jobJoules / float64(pt.completed)
	}
	pt.tasks, pt.tempoSwitches, pt.dvfsCommits = ms.Tasks, ms.TempoSwitches, ms.DVFSCommits
	return pt, nil
}

// runClusterPoint measures one cluster grid point through
// sweep.RunCluster on a one-point grid; both paths make this call.
func runClusterPoint(policy, faults string, rps float64, window time.Duration, seed int64, tr *tracer) (sweep.ClusterPoint, error) {
	op := tr.op()
	root := tr.begin("sweep.run_cluster", 0, op)
	defer tr.end(root)
	p, err := hermes.ParsePlacement(policy)
	if err != nil {
		return sweep.ClusterPoint{}, err
	}
	res, err := sweep.RunCluster(sweep.ClusterConfig{
		Workload: simSpec, Trace: "mix", Faults: []string{faults},
		Mode: hermes.Unified, Policies: []hermes.Placement{p}, Machines: []int{4},
		RatesRPS: []float64{rps}, Window: window, Seed: seed, Workers: 4,
		Dispatch: "edf", PreemptQuantum: simQuantum,
	})
	if err != nil {
		return sweep.ClusterPoint{}, err
	}
	return res.Curves[0].Points[0], nil
}

func runSimSweep(sl slice) (outcome, error) {
	o := outcome{layer: map[string]float64{}}
	window := simWindow
	if sl.small {
		window = simWindowSmall
	}

	// Set-up: both modes of the pool half and both policies of the
	// cluster half at a middling rate, which touches every code path of
	// a round once and grows the heap to its working size.
	err := timeSetups(sl.setups, &o, func() error {
		for _, mode := range simPoolModes {
			if _, err := runPoolPoint(mode, 200, window, sl.seed, nil); err != nil {
				return fmt.Errorf("sim_sweep warm-up: %w", err)
			}
		}
		for _, policy := range simPolicies {
			if _, err := runClusterPoint(policy, "crash", 200, window, sl.seed, nil); err != nil {
				return fmt.Errorf("sim_sweep warm-up: %w", err)
			}
		}
		return nil
	}, nil)
	if err != nil {
		return o, err
	}

	rss := startRSSSampler(0)
	defer rss.finish()
	start := time.Now()
	var (
		rounds             int
		dig                digester
		poolSec, clSec     float64
		poolJobs, clJobs   int64
		poolMS, clMS       []float64
		tasks              int64
		joules0, done0     float64
		p99Unified400      float64
		r0                 poolPoint // round 0's pool half, summed
		cl0                struct{ arrivals, retries, migrated, lost int64 }
		mallocs0, poolJob0 float64
	)
	for time.Since(start).Seconds() < sl.seconds || rounds == 0 {
		seed := sl.seed + int64(rounds)
		var seg segment
		roundStart, cpu0 := time.Now(), selfCPUSeconds()

		var before runtime.MemStats
		if rounds == 0 {
			runtime.ReadMemStats(&before)
		}
		half := time.Now()
		for _, mode := range simPoolModes {
			for _, rps := range simPoolRates {
				t0 := time.Now()
				pt, err := runPoolPoint(mode, rps, window, seed, sl.tr)
				if err != nil {
					return o, fmt.Errorf("sim_sweep pool %v @ %g rps: %w", mode, rps, err)
				}
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				seg.latMS = append(seg.latMS, ms)
				poolMS = append(poolMS, ms)
				o.attempted += int(pt.arrivals)
				o.failed += int(pt.errors)
				if pt.arrivals != pt.completed+pt.errors {
					o.violate("pool %v @ %g rps: arrivals %d != completed %d + errors %d",
						mode, rps, pt.arrivals, pt.completed, pt.errors)
				}
				seg.ops += int(pt.completed)
				poolJobs += pt.completed
				tasks += pt.tasks
				if rounds == 0 {
					dig.add(fmt.Sprintf("pool/%v/%g", mode, rps), float64(pt.arrivals), float64(pt.completed),
						float64(pt.errors), pt.p99MS, pt.joulesPerReq, float64(pt.steals))
					joules0 += pt.joulesPerReq * float64(pt.completed)
					done0 += float64(pt.completed)
					r0.completed += pt.completed
					r0.steals += pt.steals
					r0.tempoSwitches += pt.tempoSwitches
					r0.dvfsCommits += pt.dvfsCommits
					if mode == hermes.Unified && rps == 400 {
						p99Unified400 = pt.p99MS
					}
				}
			}
		}
		poolSec += time.Since(half).Seconds()
		if rounds == 0 {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			mallocs0 = float64(after.Mallocs - before.Mallocs)
			poolJob0 = float64(r0.completed)
		}

		half = time.Now()
		for _, policy := range simPolicies {
			for _, faults := range simFaults {
				for _, rps := range simClusterRates {
					t0 := time.Now()
					pt, err := runClusterPoint(policy, faults, rps, window, seed, sl.tr)
					if err != nil {
						return o, fmt.Errorf("sim_sweep cluster %s/%s @ %g rps: %w", policy, faults, rps, err)
					}
					ms := float64(time.Since(t0).Nanoseconds()) / 1e6
					seg.latMS = append(seg.latMS, ms)
					clMS = append(clMS, ms)
					o.attempted += int(pt.Arrivals)
					o.failed += int(pt.Errors)
					// sweep counts a lost job among the errors, so the
					// ledger is arrivals = completed + lost + other
					// errors with lost <= errors.
					if pt.Arrivals != pt.Completed+pt.Errors || pt.Lost > pt.Errors {
						o.violate("cluster %s/%s @ %g rps: arrivals %d != completed %d + lost %d + errors %d",
							policy, faults, rps, pt.Arrivals, pt.Completed, pt.Lost, pt.Errors-pt.Lost)
					}
					seg.ops += int(pt.Completed)
					clJobs += pt.Completed
					// The gossip tier's outcome is not repeatable at this
					// commit: the 800 rps point lands on one of two
					// results from one process to the next (233 or 242
					// migrations, about six runs to one). Until the
					// cluster's determinism invariant holds for it, its
					// points stay out of the digest, which would
					// otherwise flap.
					if rounds == 0 && policy != "gossip" {
						dig.add(fmt.Sprintf("cluster/%s/%s/%g", policy, faults, rps), float64(pt.Arrivals),
							float64(pt.Completed), float64(pt.Errors), float64(pt.Lost), float64(pt.Retries),
							float64(pt.Migrated), pt.P99SojournMS, pt.FleetJoulesPerRequest)
					}
					if rounds == 0 {
						joules0 += pt.FleetJoulesPerRequest * float64(pt.Completed)
						done0 += float64(pt.Completed)
						cl0.arrivals += pt.Arrivals
						cl0.retries += pt.Retries
						cl0.migrated += pt.Migrated
						cl0.lost += pt.Lost
					}
				}
			}
		}
		clSec += time.Since(half).Seconds()
		seg.sec, seg.cpuS = time.Since(roundStart).Seconds(), selfCPUSeconds()-cpu0
		o.segs = append(o.segs, seg)
		rounds++
	}
	o.rssMB = rss.mean()
	if done0 > 0 {
		o.joules = joules0 / done0
	}
	o.digest = dig.sum()

	o.layer["core.sim_sojourn_p99_ms"] = p99Unified400
	o.layer["sweep.pool_jobs_per_s"] = float64(poolJobs) / poolSec
	o.layer["sweep.cluster_jobs_per_s"] = float64(clJobs) / clSec
	o.layer["sweep.pool_point_ms_p50"] = median(poolMS)
	o.layer["sweep.cluster_point_ms_p50"] = median(clMS)
	if cl0.arrivals > 0 {
		o.layer["cluster.retries_per_job"] = float64(cl0.retries) / float64(cl0.arrivals)
		o.layer["cluster.migrated_per_job"] = float64(cl0.migrated) / float64(cl0.arrivals)
		o.layer["cluster.lost_frac"] = float64(cl0.lost) / float64(cl0.arrivals)
	}
	if sl.tr != nil && r0.completed > 0 {
		o.layer["core.host_us_per_sim_task"] = poolSec * 1e6 / float64(tasks)
		o.layer["core.allocs_per_sim_job"] = mallocs0 / poolJob0
		o.layer["core.steals_per_job"] = float64(r0.steals) / float64(r0.completed)
		o.layer["core.tempo_switches_per_job"] = float64(r0.tempoSwitches) / float64(r0.completed)
		o.layer["core.dvfs_commits_per_job"] = float64(r0.dvfsCommits) / float64(r0.completed)
	}
	return o, nil
}
