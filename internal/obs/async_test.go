package obs

import (
	"sync"
	"testing"
	"time"
)

// countingSink records every delivered event.
type countingSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *countingSink) Observe(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *countingSink) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func TestAsyncDeliversInOrderAndDrains(t *testing.T) {
	sink := &countingSink{}
	a := NewAsync(sink, 128)
	const n = 100
	for i := 0; i < n; i++ {
		a.Observe(Event{Kind: Steal, Worker: i})
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.len(); got != n {
		t.Fatalf("delivered %d events, want %d", got, n)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, e := range sink.events {
		if e.Worker != i {
			t.Fatalf("event %d out of order: worker=%d", i, e.Worker)
		}
	}
	if a.Dropped() != 0 {
		t.Fatalf("dropped %d events below buffer size", a.Dropped())
	}
}

// blockingSink parks inside Observe until released, signalling entry.
type blockingSink struct {
	entered chan struct{}
	release chan struct{}
	count   int
}

func (b *blockingSink) Observe(Event) {
	if b.count == 0 {
		b.entered <- struct{}{}
		<-b.release
	}
	b.count++
}

// TestAsyncDropCountExactUnderOverflow pins the drop accounting: with
// the consumer wedged inside the sink and the buffer full, every
// additional event must be counted as dropped — no more, no fewer.
func TestAsyncDropCountExactUnderOverflow(t *testing.T) {
	const bufSize = 16
	sink := &blockingSink{entered: make(chan struct{}, 1), release: make(chan struct{})}
	a := NewAsync(sink, bufSize)

	// Wedge the consumer inside the first delivery.
	a.Observe(Event{Kind: Steal})
	<-sink.entered

	// Fill the buffer exactly, then overflow by a known amount.
	for i := 0; i < bufSize; i++ {
		a.Observe(Event{Kind: Steal})
	}
	const overflow = 37
	for i := 0; i < overflow; i++ {
		a.Observe(Event{Kind: Steal})
	}
	if got := a.Dropped(); got != overflow {
		t.Fatalf("Dropped() = %d, want exactly %d", got, overflow)
	}

	close(sink.release)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything accepted must have been delivered: 1 wedged + bufSize.
	if sink.count != 1+bufSize {
		t.Fatalf("sink saw %d events, want %d", sink.count, 1+bufSize)
	}
	if got := a.Dropped(); got != overflow {
		t.Fatalf("Dropped() after close = %d, want %d", got, overflow)
	}
}

// TestAsyncProducerNotBlockedBySlowConsumer asserts the decoupling
// the async sink exists for: a consumer that takes ~forever per event
// must not make Observe slow.
func TestAsyncProducerNotBlockedBySlowConsumer(t *testing.T) {
	slow := Func(func(Event) { time.Sleep(50 * time.Millisecond) })
	a := NewAsync(slow, 4)
	const n = 10_000
	start := time.Now()
	for i := 0; i < n; i++ {
		a.Observe(Event{Kind: Steal})
	}
	elapsed := time.Since(start)
	// Synchronous delivery would take n*50ms = 500 s. Allow a huge
	// margin over the real cost (tens of microseconds) to stay
	// flake-free on loaded CI machines.
	if elapsed > 2*time.Second {
		t.Fatalf("10k Observe calls took %v with a slow consumer; producer is being blocked", elapsed)
	}
	if a.Dropped() == 0 {
		t.Fatal("expected drops with a 4-slot buffer and slow consumer")
	}
	a.Close() // ~5 slow deliveries to drain: ~250ms
}

func TestAsyncCloseIdempotentAndConcurrent(t *testing.T) {
	sink := &countingSink{}
	a := NewAsync(sink, 8)
	a.Observe(Event{Kind: JobStart, Job: 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := sink.len(); got != 1 {
		t.Fatalf("delivered %d events, want 1", got)
	}
	// Post-close events are dropped and counted, never delivered.
	a.Observe(Event{Kind: JobDone, Job: 1})
	if a.Dropped() != 1 {
		t.Fatalf("post-close Observe: Dropped() = %d, want 1", a.Dropped())
	}
	if got := sink.len(); got != 1 {
		t.Fatalf("post-close event was delivered (%d events)", got)
	}
}

func TestAsyncDefaultBuffer(t *testing.T) {
	sink := &countingSink{}
	a := NewAsync(sink, 0)
	if cap(a.buf) != DefaultBuffer {
		t.Fatalf("cap(buf) = %d, want %d", cap(a.buf), DefaultBuffer)
	}
	a.Close()
}
