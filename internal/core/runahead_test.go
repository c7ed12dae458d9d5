package core_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hermes/internal/cluster"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/fault"
	"hermes/internal/obs"
	"hermes/internal/units"
	"hermes/internal/wl"
)

// body is a task body drawn ahead of the run, so both runs of a
// scenario execute the same calls whatever order the engine runs the
// bodies' host code in: each step is an accounting call, a fork-join
// block of drawn bodies, or a panic.
type body []step

type step struct {
	kind  byte // 'w' Work, 'm' Mem, 'x' WorkMix, 'g' Go, 'p' panic
	cy    units.Cycles
	d     units.Time
	frac  float64
	block []body
}

func (b body) task() wl.Task {
	return func(c wl.Ctx) {
		for _, s := range b {
			switch s.kind {
			case 'w':
				c.Work(s.cy)
			case 'm':
				c.Mem(s.d)
			case 'x':
				c.WorkMix(s.cy, s.frac)
			case 'g':
				tasks := make([]wl.Task, len(s.block))
				for i, k := range s.block {
					tasks[i] = k.task()
				}
				c.Go(tasks...)
			case 'p':
				panic("drawn panic")
			}
		}
	}
}

// drawBody draws one to six steps; below depth 0 no block is forked.
// Zero-sized accounting calls and pure-CPU or pure-memory mixes are in
// the draw: they are no-ops or single segments on the run-ahead path.
func drawBody(rng *rand.Rand, depth int) body {
	var b body
	for n := 1 + rng.Intn(6); len(b) < n; {
		cy := units.Cycles(rng.Intn(6) * 60_000)
		switch r := rng.Intn(10); {
		case r < 3:
			b = append(b, step{kind: 'w', cy: cy})
		case r < 5:
			b = append(b, step{kind: 'm', d: units.Time(rng.Intn(5)) * 12 * units.Microsecond})
		case r < 7:
			b = append(b, step{kind: 'x', cy: cy, frac: []float64{0, 0.3, 1, rng.Float64()}[rng.Intn(4)]})
		case depth > 0:
			blk := make([]body, 1+rng.Intn(3))
			for i := range blk {
				blk[i] = drawBody(rng, depth-1)
			}
			b = append(b, step{kind: 'g', block: blk})
		}
	}
	return b
}

type recorder struct{ events []obs.Event }

func (r *recorder) Observe(e obs.Event) { r.events = append(r.events, e) }

// coverage counts what a scenario exercised, so the test can insist
// every path it is meant to compare actually ran.
type coverage struct{ crashes, preemptions, interrupted, panics int }

// runAheadScenario runs one drawn scenario and returns the digest of
// everything it produced — reports, errors (their first line: the rest
// is a goroutine stack), fleet stats, the observer stream — and the
// engine's dispatched-event count. Scenario seed picks the tempo mode,
// FIFO or EDF dispatch with a 30 µs quantum, and one machine or three
// under the crash fault plan. Job 2 forks a body that panics with two
// segments pending; job 4 is cancelled at its sixth cancellation poll.
func runAheadScenario(t *testing.T, seed int64, cov *coverage) (digest string, dispatched uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	modes := []core.Mode{core.Baseline, core.WorkpathOnly, core.WorkloadOnly, core.Unified}
	rec := &recorder{}
	mcfg := core.Config{Spec: cpu.SystemA(), Workers: 3, Mode: modes[seed%4], Seed: seed, Observer: rec}
	ranked := seed%8 >= 4
	if ranked {
		mcfg.Dispatch, mcfg.PreemptQuantum = core.DispatchEDF, 30*units.Microsecond
	}
	ccfg := core.ClusterConfig{Machines: 1, Machine: mcfg, Placement: cluster.Policy{Kind: "pkc", Choices: 2}.Placer()}
	if seed%2 == 1 {
		evs, err := fault.Compile("crash", seed, 3, 3*units.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ccfg.Machines, ccfg.Faults = 3, evs
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 10
	reports := make([]core.Report, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	wg.Add(jobs)
	reqs := make([]core.JobRequest, jobs)
	at := units.Time(0)
	for i := range reqs {
		i := i
		at += units.Time(rng.Intn(300)) * units.Microsecond
		root := drawBody(rng, 3)
		if i == 2 {
			panicky := body{{kind: 'w', cy: 90_000}, {kind: 'm', d: 20 * units.Microsecond}, {kind: 'p'}}
			root = append(root, step{kind: 'g', block: []body{drawBody(rng, 1), panicky}})
		}
		task := root.task()
		reqs[i] = core.JobRequest{ID: int64(i + 1), At: at,
			Root: func(c wl.Ctx) {
				if core.Preempting(c) {
					cov.preemptions++
				}
				task(c)
			},
			Done: func(r core.Report, err error) { reports[i], errs[i] = r, err; wg.Done() }}
		if ranked && i%3 == 2 {
			reqs[i].Class = core.Class{Tenant: "lc", Deadline: 300 * units.Microsecond}
		}
		if i == 4 {
			polls := 0
			reqs[i].Cancelled = func() error {
				if polls++; polls > 5 {
					return context.Canceled
				}
				return nil
			}
		}
	}
	if err := c.Submit(reqs...); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	cov.crashes += int(stats.Crashes)
	var b strings.Builder
	for i, r := range reports {
		msg := ""
		if errs[i] != nil {
			msg, _, _ = strings.Cut(errs[i].Error(), "\n")
		}
		if errors.Is(errs[i], context.Canceled) {
			cov.interrupted++
		}
		if strings.Contains(msg, "drawn panic") {
			cov.panics++
		}
		fmt.Fprintf(&b, "report %d err=%q\n%#v\n", i, msg, r)
	}
	fmt.Fprintf(&b, "stats %#v\n", stats)
	for i, e := range rec.events {
		fmt.Fprintf(&b, "event %d %#v\n", i, e)
	}
	dispatched, _, _ = c.EngineStats()
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))), dispatched
}

// TestRunAheadIsInvisible is the invariant run-ahead bodies rest on:
// when a body's accounting calls are simulated cannot be observed, so
// settling every segment as its call returns (bound 1, what blocking
// calls did) and settling a frame's segments at its next spawn or
// return give byte-identical reports, errors, fleet stats and observer
// streams, and dispatch the very same events.
func TestRunAheadIsInvisible(t *testing.T) {
	var cov coverage
	for seed := int64(1); seed <= 16; seed++ {
		saved := *core.PendBound
		*core.PendBound = 1
		want, wantN := runAheadScenario(t, seed, &coverage{})
		*core.PendBound = saved
		got, gotN := runAheadScenario(t, seed, &cov)
		if got != want || gotN != wantN {
			t.Errorf("seed %d: run-ahead digest %s, %d events; settled at once %s, %d events", seed, got, gotN, want, wantN)
		}
	}
	if cov.crashes == 0 || cov.preemptions == 0 || cov.interrupted == 0 || cov.panics == 0 {
		t.Errorf("the scenarios left a path unexercised: %+v", cov)
	}
	t.Logf("exercised: %+v", cov)
}
