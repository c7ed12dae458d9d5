package core

import (
	"math/rand"
	"testing"

	"hermes/internal/deque"
)

// TestRingMatchesModelAndTHE drives the ring with random Push/Pop/Steal
// schedules (ROADMAP 5(c), Sim side). Every call must answer as a slice
// model of the deque does and as deque.Deque, the THE deque the ring
// replaced, does under the same schedule; at the end every pushed task
// has come out exactly once. Push-heavy phases grow the ring past its
// initial 64 slots, and steal-heavy ones walk head and tail round the
// buffer so indices wrap.
func TestRingMatchesModelAndTHE(t *testing.T) {
	grew, wrapped := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, the := newRing(64), deque.New[*task](64)
		var model []*task
		seen := map[*task]int{}
		pushed := 0
		check := func(op string, got *task, ok bool, want *task, wantOK bool, tg *task, tok bool) {
			t.Helper()
			if ok != wantOK || got != want || tok != wantOK || tg != want {
				t.Fatalf("seed %d, %s after %d pushes: ring (%p, %v), THE (%p, %v), model (%p, %v)",
					seed, op, pushed, got, ok, tg, tok, want, wantOK)
			}
			if ok {
				seen[got]++
			}
		}
		for phase := 0; phase < 8; phase++ {
			pPush := []float64{0.9, 0.5, 0.35}[rng.Intn(3)]
			pSteal := rng.Float64()
			for op := 0; op < 500; op++ {
				switch x := rng.Float64(); {
				case x < pPush:
					it := new(task)
					pushed++
					r.Push(it)
					the.Push(it)
					model = append(model, it)
				case rng.Float64() < pSteal:
					var want *task
					if len(model) > 0 {
						want, model = model[0], model[1:]
					}
					got, ok := r.Steal()
					tg, tok := the.Steal()
					check("steal", got, ok, want, want != nil, tg, tok)
				default:
					var want *task
					if n := len(model); n > 0 {
						want, model = model[n-1], model[:n-1]
					}
					got, ok := r.Pop()
					tg, tok := the.Pop()
					check("pop", got, ok, want, want != nil, tg, tok)
				}
				if mask := len(r.buf) - 1; r.Size() > 1 && (r.tail-1)&mask < r.head&mask {
					wrapped++ // the live range straddles the buffer's end
				}
				if r.Size() != len(model) || r.Empty() != (len(model) == 0) || the.Size() != len(model) {
					t.Fatalf("seed %d: ring size %d (empty %v), THE %d, model %d",
						seed, r.Size(), r.Empty(), the.Size(), len(model))
				}
			}
		}
		for len(model) > 0 {
			want := model[len(model)-1]
			model = model[:len(model)-1]
			got, ok := r.Pop()
			tg, tok := the.Pop()
			check("drain", got, ok, want, true, tg, tok)
		}
		if len(seen) != pushed {
			t.Fatalf("seed %d: %d tasks pushed, %d came out", seed, pushed, len(seen))
		}
		for it, n := range seen {
			if n != 1 {
				t.Fatalf("seed %d: task %p came out %d times", seed, it, n)
			}
		}
		if len(r.buf) > 64 {
			grew++
		}
	}
	if grew == 0 || wrapped == 0 {
		t.Fatalf("schedules too tame: %d seeds grew the ring, %d ops saw it wrapped", grew, wrapped)
	}
	t.Logf("%d of 200 seeds grew the ring; %d ops saw it wrapped", grew, wrapped)
}
