package obs

import (
	"sync"
	"sync/atomic"
)

// DefaultBuffer is the Async event buffer size used when the caller
// passes a non-positive size.
const DefaultBuffer = 4096

// Async decouples event production from consumption: producers
// (scheduler workers, the meter loop) enqueue onto a bounded buffer
// with one atomic check and one channel send — never blocking, never
// waiting on the downstream sink — while a single consumer goroutine
// drains the buffer into the wrapped Observer.
//
// The buffer is bounded: when the consumer falls behind and the buffer
// is full, new events are dropped and counted rather than applying
// backpressure to the scheduler hot path. Telemetry loss is always
// observable through Dropped, so a sized-out deployment (Dropped
// staying 0) knows its event stream is complete.
//
// Close stops intake, drains every buffered event into the sink, and
// waits for the consumer to finish — events accepted before Close are
// never lost. Events observed after Close has begun are dropped and
// counted. Producers should therefore be stopped before Close when a
// complete stream matters (the Runtime closes its executor first for
// exactly this reason).
type Async struct {
	sink Observer
	buf  chan Event
	quit chan struct{}
	done chan struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	closeMu   sync.Mutex // serializes the post-drain straggler sweep

	dropped atomic.Uint64
}

// NewAsync starts an async sink delivering to downstream with a
// buffer of size events (DefaultBuffer if size <= 0). The returned
// Async is itself an Observer, safe for concurrent use from any
// number of producers.
func NewAsync(downstream Observer, size int) *Async {
	if size <= 0 {
		size = DefaultBuffer
	}
	a := &Async{
		sink: downstream,
		buf:  make(chan Event, size),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.loop()
	return a
}

// Observe enqueues e without blocking: if the buffer has room the
// event is accepted, otherwise it is dropped and counted. Never
// called on the consumer goroutine's stack, so a slow sink cannot
// stall the caller.
func (a *Async) Observe(e Event) {
	if a.closed.Load() {
		a.dropped.Add(1)
		return
	}
	select {
	case a.buf <- e:
	default:
		a.dropped.Add(1)
	}
}

// Dropped returns how many events were discarded because the buffer
// was full (or because they arrived after Close began).
func (a *Async) Dropped() uint64 { return a.dropped.Load() }

// Close stops intake, drains all buffered events into the downstream
// sink, and waits for delivery to finish. Safe to call multiple
// times, including concurrently; every call returns only once the
// drain is complete.
func (a *Async) Close() error {
	a.closeOnce.Do(func() {
		a.closed.Store(true)
		close(a.quit)
	})
	<-a.done
	// Sweep stragglers: a producer that passed the closed check just
	// before Close flipped it may have enqueued after the drain loop
	// saw an empty buffer. By contract producers are stopped by now,
	// so one final non-blocking drain empties the buffer for good.
	a.closeMu.Lock()
	defer a.closeMu.Unlock()
	for {
		select {
		case e := <-a.buf:
			a.sink.Observe(e)
		default:
			return nil
		}
	}
}

// loop is the single consumer: drain until quit, then drain the
// residue and exit.
func (a *Async) loop() {
	defer close(a.done)
	for {
		select {
		case e := <-a.buf:
			a.sink.Observe(e)
		case <-a.quit:
			for {
				select {
				case e := <-a.buf:
					a.sink.Observe(e)
				default:
					return
				}
			}
		}
	}
}
