package deque

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// impls enumerates both deque implementations behind the Queue
// interface over *int elements, so every correctness property runs
// against the THE reference and the lock-free Chase–Lev alike.
func impls() map[string]func(n int) Queue[*int] {
	return map[string]func(n int) Queue[*int]{
		"the":      func(n int) Queue[*int] { return New[*int](n) },
		"chaselev": func(n int) Queue[*int] { return NewChaseLev[int](n) },
	}
}

func TestQueueEmptyOps(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			d := mk(4)
			if _, ok := d.Pop(); ok {
				t.Fatal("Pop on empty deque succeeded")
			}
			if _, ok := d.Steal(); ok {
				t.Fatal("Steal on empty deque succeeded")
			}
			if d.Size() != 0 || !d.Empty() {
				t.Fatal("empty deque reports non-zero size")
			}
		})
	}
}

func TestQueueOwnerLIFOThiefFIFO(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			vals := make([]int, 16)
			for i := range vals {
				vals[i] = i
			}
			d := mk(2)
			for i := 0; i < 8; i++ {
				d.Push(&vals[i])
			}
			// Thief drains the head in FIFO order.
			for i := 0; i < 4; i++ {
				v, ok := d.Steal()
				if !ok || *v != i {
					t.Fatalf("Steal = %v,%v, want %d", v, ok, i)
				}
			}
			// Owner drains the tail in LIFO order.
			for i := 7; i >= 4; i-- {
				v, ok := d.Pop()
				if !ok || *v != i {
					t.Fatalf("Pop = %v,%v, want %d", v, ok, i)
				}
			}
			if !d.Empty() {
				t.Fatalf("size = %d, want 0", d.Size())
			}
		})
	}
}

func TestQueueGrowPreservesOrder(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			const n = 1000
			vals := make([]int, n)
			d := mk(1)
			for i := 0; i < n; i++ {
				vals[i] = i
				d.Push(&vals[i])
			}
			for i := 0; i < n/2; i++ {
				if v, ok := d.Steal(); !ok || *v != i {
					t.Fatalf("steal %d: got %v,%v", i, v, ok)
				}
			}
			for i := n - 1; i >= n/2; i-- {
				if v, ok := d.Pop(); !ok || *v != i {
					t.Fatalf("pop %d: got %v,%v", i, v, ok)
				}
			}
		})
	}
}

// TestQueueModel replays a random op sequence against a slice model,
// checking LIFO/FIFO results and sizes for both implementations.
func TestQueueModel(t *testing.T) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			d := mk(1)
			vals := make([]int, 0, 4096)
			var model []int
			for op := 0; op < 4096; op++ {
				switch rng.Intn(3) {
				case 0:
					vals = vals[:len(vals)+1]
					vals[len(vals)-1] = op
					d.Push(&vals[len(vals)-1])
					model = append(model, op)
				case 1:
					v, ok := d.Pop()
					if len(model) == 0 {
						if ok {
							t.Fatal("Pop succeeded on empty deque")
						}
						continue
					}
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if !ok || *v != want {
						t.Fatalf("Pop = %v,%v, want %d", v, ok, want)
					}
				case 2:
					v, ok := d.Steal()
					if len(model) == 0 {
						if ok {
							t.Fatal("Steal succeeded on empty deque")
						}
						continue
					}
					want := model[0]
					model = model[1:]
					if !ok || *v != want {
						t.Fatalf("Steal = %v,%v, want %d", v, ok, want)
					}
				}
				if d.Size() != len(model) {
					t.Fatalf("size = %d, want %d", d.Size(), len(model))
				}
			}
		})
	}
}

// sizedOwner is ChaseLev's owner side that reports the deque's size.
type sizedOwner interface {
	PushN(item *int) int
	PopN() (*int, int, bool)
}

// TestQueueConcurrentNoLossNoDup hammers one owner (pushing 1e5 items,
// popping a random third of them) against several concurrent thieves
// and checks that every item is consumed exactly once — for both the
// THE reference and the lock-free Chase–Lev, under -race. Chase–Lev's
// owner pushes and pops through PushN and PopN, and every size they
// report lies in [0, pushes − pops]: thieves only take items away.
func TestQueueConcurrentNoLossNoDup(t *testing.T) {
	const (
		items   = 100_000
		thieves = 4
	)
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) {
			d := mk(8)
			vals := make([]int, items)
			sized, _ := d.(sizedOwner)
			var pushes, pops, badSize int
			push := func(v *int) {
				pushes++
				if sized == nil {
					d.Push(v)
				} else if n := sized.PushN(v); n < 0 || n > pushes-pops {
					badSize = n
				}
			}
			pop := func() (*int, bool) {
				if sized == nil {
					return d.Pop()
				}
				v, n, ok := sized.PopN()
				if ok {
					pops++
				}
				if n < 0 || n > pushes-pops {
					badSize = n
				}
				return v, ok
			}
			var mu sync.Mutex
			seen := make(map[int]int, items)
			record := func(v *int) {
				mu.Lock()
				seen[*v]++
				mu.Unlock()
			}

			var wg sync.WaitGroup
			done := make(chan struct{})
			for i := 0; i < thieves; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if v, ok := d.Steal(); ok {
							record(v)
							continue
						}
						select {
						case <-done:
							// Final drain after the owner stops.
							for {
								v, ok := d.Steal()
								if !ok {
									return
								}
								record(v)
							}
						default:
							// A failed steal yields, so four spinning thieves
							// do not starve the owner of a small host's cores.
							runtime.Gosched()
						}
					}
				}()
			}

			rng := rand.New(rand.NewSource(42))
			for i := 0; i < items; i++ {
				vals[i] = i
				push(&vals[i])
				if rng.Intn(3) == 0 {
					if v, ok := pop(); ok {
						record(v)
					}
				}
			}
			for {
				v, ok := pop()
				if !ok {
					break
				}
				record(v)
			}
			close(done)
			wg.Wait()
			// One more owner drain in case thieves backed off before the
			// last push became visible.
			for {
				v, ok := d.Pop()
				if !ok {
					break
				}
				record(v)
			}

			if badSize != 0 {
				t.Fatalf("an owner operation reported size %d, outside [0, pushes − pops]", badSize)
			}
			if len(seen) != items {
				t.Fatalf("consumed %d distinct items, want %d", len(seen), items)
			}
			for v, n := range seen {
				if n != 1 {
					t.Fatalf("item %d consumed %d times", v, n)
				}
			}
		})
	}
}

// TestChaseLevStatsBalance checks the Chase–Lev counters account for
// every successful operation: pushes == pops + steals after a
// concurrent run drains the deque.
func TestChaseLevStatsBalance(t *testing.T) {
	d := NewChaseLev[int](8)
	vals := make([]int, 10_000)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, ok := d.Steal(); ok {
				continue
			}
			select {
			case <-done:
				for {
					if _, ok := d.Steal(); !ok {
						return
					}
				}
			default:
			}
		}
	}()
	for i := range vals {
		d.Push(&vals[i])
		if i%2 == 0 {
			d.Pop()
		}
	}
	for {
		if _, ok := d.Pop(); !ok {
			break
		}
	}
	close(done)
	wg.Wait()
	for {
		if _, ok := d.Pop(); !ok {
			break
		}
	}
	pushes, pops, steals, _ := d.Stats()
	if pushes != int64(len(vals)) {
		t.Fatalf("pushes = %d, want %d", pushes, len(vals))
	}
	if pops+steals != pushes {
		t.Fatalf("pops(%d) + steals(%d) != pushes(%d)", pops, steals, pushes)
	}
}

// FuzzChaseLevModel drives ChaseLev through a byte-coded sequence
// against a slice model: by the byte's value mod 4, an owner push, an
// owner pop, a steal, or a burst of 8 + byte/4 pushes, which outgrows
// the ring. Every item must come out where the model says, and every
// size an owner operation reports must equal the model's length and
// Size.
func FuzzChaseLevModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 1, 1})
	f.Add([]byte{3, 2, 1, 7, 1, 2, 2, 1, 1})
	f.Add([]byte{0xff, 2, 0x7f, 1, 2, 0x3b, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := NewChaseLev[int](1)
		var model []int
		next := 0
		sized := func(op string, n int) {
			if n != len(model) || d.Size() != n {
				t.Fatalf("%s reported size %d, Size %d, model %d", op, n, d.Size(), len(model))
			}
		}
		push := func() {
			v := next
			next++
			model = append(model, v)
			sized("PushN", d.PushN(&v))
		}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				push()
			case 1:
				v, n, ok := d.PopN()
				if k := len(model); k == 0 {
					if ok {
						t.Fatalf("PopN took %d from an empty deque", *v)
					}
				} else {
					if want := model[k-1]; !ok || *v != want {
						t.Fatalf("PopN = %v, %v; want %d", v, ok, want)
					}
					model = model[:k-1]
				}
				sized("PopN", n)
			case 2:
				v, ok := d.Steal()
				if len(model) == 0 {
					if ok {
						t.Fatalf("Steal took %d from an empty deque", *v)
					}
				} else {
					if want := model[0]; !ok || *v != want {
						t.Fatalf("Steal = %v, %v; want %d", v, ok, want)
					}
					model = model[1:]
				}
				if d.Size() != len(model) {
					t.Fatalf("Size %d after Steal, model %d", d.Size(), len(model))
				}
			case 3:
				for range 8 + int(op>>2) {
					push()
				}
			}
		}
	})
}
