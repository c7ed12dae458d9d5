package tempo

import (
	"math/rand"
	"testing"
)

// TestPolicyScriptProperties drives random event scripts through a
// Policy for 2–8 workers in every mode and checks the paper's
// invariants after each event:
//   - the immediacy links form acyclic chains with mutual next/prev;
//   - a fresh thief sits exactly one level below its victim, capped at
//     maxLevels−1;
//   - a worker at the head of the list never slows on Shrunk, nor a
//     victim at the head on Stole;
//   - every tier stays in [0, K];
//   - Reset restores the top tier and level 0 with an empty list;
//   - Baseline never invokes the callback (Reset, the mode switch that
//     restores full tempo, aside).
//
// It also checks that the callback always reports the worker's level
// as Level computes it.
func TestPolicyScriptProperties(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		k := 1 + rng.Intn(3)
		maxLevels := 2 + rng.Intn(4)
		m := Mode(seed % 4)
		var calls int
		var p *Policy
		p = NewPolicy(n, k, float64(rng.Intn(6)), maxLevels, 1+rng.Intn(4), func(w, level int) {
			calls++
			if got := p.Level(w, m); got != level {
				t.Fatalf("seed %d: callback level %d for worker %d, Level says %d", seed, level, w, got)
			}
		})
		sizes := make([]int, n)
		for step := 0; step < 300; step++ {
			calls = 0
			i := rng.Intn(n)
			before := p.Level(i, m)
			head := m.Workpath() && p.ws[i].node.AtHead()
			op := rng.Intn(9)
			switch op {
			case 0, 1:
				sizes[i]++
				p.Pushed(i, sizes[i], m)
			case 2:
				if sizes[i] == 0 {
					continue
				}
				sizes[i]--
				p.Shrunk(i, sizes[i], m)
				if head && p.Level(i, m) > before {
					t.Fatalf("seed %d step %d: head worker %d slowed on Shrunk", seed, step, i)
				}
			case 3, 4:
				v := rng.Intn(n)
				if v == i || sizes[v] == 0 {
					continue
				}
				vBefore, vHead := p.Level(v, m), m.Workpath() && p.ws[v].node.AtHead()
				sizes[v]--
				p.Stole(i, v, sizes[i], sizes[v], m)
				if m.Workpath() {
					if want := min(p.ws[v].wp+1, maxLevels-1); p.ws[i].wp != want {
						t.Fatalf("seed %d step %d: thief %d at workpath level %d, victim %d at %d (cap %d)",
							seed, step, i, p.ws[i].wp, v, p.ws[v].wp, maxLevels-1)
					}
				}
				if vHead && p.Level(v, m) > vBefore {
					t.Fatalf("seed %d step %d: head victim %d slowed on Stole", seed, step, v)
				}
			case 5:
				if sizes[i] == 0 {
					p.OutOfWork(i, m)
					if p.ws[i].node.InList() {
						t.Fatalf("seed %d step %d: worker %d still linked after OutOfWork", seed, step, i)
					}
				}
			case 6:
				p.TookRoot(i, sizes[i], m)
			case 7:
				if sizes[i] == 0 {
					p.Parked(i, m)
				}
			case 8:
				if rng.Intn(8) == 0 {
					p.Reset(m)
					for j := range p.ws {
						s := &p.ws[j]
						if s.node.InList() || s.wp != 0 || s.th.Tier() != k || p.Level(j, m) != 0 {
							t.Fatalf("seed %d step %d: worker %d after Reset: linked %v, wp %d, tier %d",
								seed, step, j, s.node.InList(), s.wp, s.th.Tier())
						}
					}
					continue
				}
				p.Profile(sizes, m)
				if calls != 0 {
					t.Fatalf("seed %d step %d: Profile invoked the callback", seed, step)
				}
			}
			if m == Baseline && calls != 0 {
				t.Fatalf("seed %d step %d: Baseline invoked the callback %d times on op %d", seed, step, calls, op)
			}
			checkChains(t, p)
			for j := range p.ws {
				if tier := p.ws[j].th.Tier(); tier < 0 || tier > k {
					t.Fatalf("seed %d step %d: worker %d tier %d outside [0, %d]", seed, step, j, tier, k)
				}
			}
		}
	}
}

// checkChains asserts that the immediacy links form acyclic chains:
// every next/prev pair is mutual, and walking from each head visits
// every linked worker exactly once.
func checkChains(t *testing.T, p *Policy) {
	t.Helper()
	seen := make([]bool, len(p.ws))
	for i := range p.ws {
		x := &p.ws[i].node
		if (x.next != nil && x.next.prev != x) || (x.prev != nil && x.prev.next != x) {
			t.Fatalf("worker %d: next/prev not mutual", i)
		}
		if !x.InList() || !x.AtHead() {
			continue
		}
		for y := x; y != nil; y = y.next {
			if seen[y.Val] {
				t.Fatalf("worker %d reached twice: the list has a cycle", y.Val)
			}
			seen[y.Val] = true
		}
	}
	for i := range p.ws {
		if p.ws[i].node.InList() && !seen[i] {
			t.Fatalf("worker %d is linked but on no chain from a head", i)
		}
	}
}
