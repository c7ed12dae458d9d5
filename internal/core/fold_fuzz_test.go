package core_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hermes/internal/cluster"
	"hermes/internal/core"
	"hermes/internal/cpu"
	"hermes/internal/fault"
	"hermes/internal/units"
	"hermes/internal/workload"
)

// foldCase is one small fleet and trace drawn by FuzzProbeFold.
type foldCase struct {
	workers, machines uint8
	gapUS             uint16
	kind              uint8
	seed              int64
	flags             uint8 // bit 0 SystemA, bits 1–2 mode, bit 3 gossip, bit 4 faults
}

// foldWorkloads are the catalog workloads FuzzProbeFold draws from, at
// sizes that keep a trace to a few milliseconds of host time.
var foldWorkloads = []workload.Spec{
	{Kind: "fib", N: 12, Grain: 4},
	{Kind: "ticks", N: 32, Grain: 4},
	{Kind: "spawnjoin", N: 32},
	{Kind: "fibtree", N: 14, Grain: 6},
}

// run serves eight arrivals of the drawn workload on the drawn fleet and
// digests everything it produced: every report, error (its first line),
// the fleet stats and the observer stream.
func (fc foldCase) run(t *testing.T) string {
	t.Helper()
	spec := cpu.SystemB()
	if fc.flags&1 != 0 {
		spec = cpu.SystemA()
	}
	modes := []core.Mode{core.Baseline, core.WorkpathOnly, core.WorkloadOnly, core.Unified}
	rec := &recorder{}
	ccfg := core.ClusterConfig{
		Machines: 1 + int(fc.machines%3),
		Machine: core.Config{Spec: spec, Workers: 1 + int(fc.workers)%spec.Domains(),
			Mode: modes[fc.flags>>1&3], Seed: fc.seed, Observer: rec},
		Placement: cluster.Policy{Kind: "random"}.Placer(),
		Gossip:    fc.flags&8 != 0,
	}
	if fc.flags&16 != 0 {
		evs, err := fault.Compile("crash", fc.seed, ccfg.Machines, 3*units.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ccfg.Faults = evs
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 8
	reports := make([]core.Report, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	wg.Add(jobs)
	reqs := make([]core.JobRequest, jobs)
	for i := range reqs {
		root, _, err := foldWorkloads[int(fc.kind)%len(foldWorkloads)].Task()
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = core.JobRequest{ID: int64(i + 1), At: units.Time(i) * units.Time(fc.gapUS%400) * units.Microsecond,
			Root: root, Done: func(r core.Report, err error) { reports[i], errs[i] = r, err; wg.Done() }}
	}
	if err := c.Submit(reqs...); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, r := range reports {
		msg := ""
		if errs[i] != nil {
			msg, _, _ = strings.Cut(errs[i].Error(), "\n")
		}
		fmt.Fprintf(&b, "report %d err=%q\n%#v\n", i, msg, r)
	}
	fmt.Fprintf(&b, "stats %#v\n", c.Stats())
	for i, e := range rec.events {
		fmt.Fprintf(&b, "event %d %#v\n", i, e)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// FuzzProbeFold is TestProbeFoldIsInvisible over small random fleets,
// traces and workloads: folding a thief's probes of empty deques must
// not move a report, error, fleet snapshot or observer event.
func FuzzProbeFold(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint16(40), uint8(0), int64(1), uint8(6))
	f.Add(uint8(15), uint8(0), uint16(0), uint8(1), int64(2), uint8(7))
	f.Add(uint8(1), uint8(2), uint16(120), uint8(2), int64(3), uint8(24+6))
	f.Add(uint8(3), uint8(1), uint16(10), uint8(3), int64(4), uint8(16+2))
	f.Fuzz(func(t *testing.T, workers, machines uint8, gapUS uint16, kind uint8, seed int64, flags uint8) {
		fc := foldCase{workers, machines, gapUS, kind, seed, flags}
		saved := *core.FoldProbes
		defer func() { *core.FoldProbes = saved }()
		*core.FoldProbes = false
		want := fc.run(t)
		*core.FoldProbes = true
		if got := fc.run(t); got != want {
			t.Errorf("%+v: folded digest %s, unfolded %s", fc, got, want)
		}
	})
}
