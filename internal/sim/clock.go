// Package sim provides the deterministic simulation kernel underneath the
// Garnet reproduction: a pluggable clock abstraction with a heap-based
// virtual implementation (so every experiment is replayable bit-for-bit
// from a seed) and fork-able pseudo-random streams.
//
// The middleware itself is written against the Clock interface and never
// reads the wall clock directly; examples run it on RealClock, tests and
// the benchmark harness on VirtualClock.
package sim

import (
	"runtime"
	"sync"
	"time"
)

// Clock abstracts time for the middleware and the simulator.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run after d has elapsed on this clock and
	// returns a handle that can cancel it. Implementations may run f on an
	// arbitrary goroutine (RealClock) or synchronously inside an Advance
	// call (VirtualClock); f must therefore not block. (A RealClock
	// AfterFunc callback has a goroutine to itself; a zero-delay
	// ScheduleFunc callback does not — see Scheduler.)
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a cancellation handle returned by Clock.AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing.
	Stop() bool
}

// Scheduler is an optional Clock extension for fire-and-forget timers:
// ScheduleFunc behaves like AfterFunc but returns no cancellation
// handle, which lets implementations keep no per-timer bookkeeping
// outside their queue (a VirtualClock event is then a value in its heap,
// not an allocation). Hot paths that schedule one
// callback per broadcast — the radio medium above all — probe for this
// interface so a dense field costs zero steady-state allocations in the
// clock.
type Scheduler interface {
	// ScheduleFunc schedules f to run after d on this clock. It cannot
	// be cancelled. f never runs inside the ScheduleFunc call, so it may
	// take locks the caller holds.
	//
	// f must not block. On RealClock a zero-delay f runs on one of a few
	// shared delivery workers (see RealClock.ScheduleFunc), not on a
	// goroutine of its own: an f that never returns holds that worker for
	// good, and as many of them as there are workers stall every
	// zero-delay callback in the process.
	ScheduleFunc(d time.Duration, f func())
}

// RealClock is a Clock backed by the runtime's wall clock.
// The zero value is ready to use.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

// ScheduleFunc implements Scheduler. A positive delay is a runtime timer.
// A callback due now — the radio medium's hand-off on a channel without
// delay — goes on one process-wide FIFO drained by resident workers
// instead: a timer and a goroutine per callback cost more than the
// callback, and each new goroutine grows its stack from the minimum down
// the whole delivery path, where a resident worker's stack is already
// grown — also for the next callback of a stream that leaves the queue
// empty between two of them, because an idle worker parks and keeps it.
func (RealClock) ScheduleFunc(d time.Duration, f func()) {
	if d > 0 {
		time.AfterFunc(d, f)
		return
	}
	handoffs.schedule(f)
}

// handoffs runs every zero-delay RealClock.ScheduleFunc callback in the
// process. At least two workers, so that one callback waiting on another
// (which the contract forbids, but a mutex handed over is enough) cannot
// stop the queue on a single-CPU host.
var handoffs = newExecutor(max(2, runtime.GOMAXPROCS(0)))

// executor runs callbacks in the order they were scheduled on at most
// bound worker goroutines. A worker is started only when a callback
// arrives, none is parked and fewer than bound exist; one that finds the
// queue empty parks on wake rather than exiting, so the next callback runs
// on a stack that is already grown instead of on a new goroutine that
// copies its stack on the way down. Parked workers are never reaped and
// there is nothing to close: the one executor is process-wide, and a
// parked worker costs its stack and no CPU. workers − idle is how many are
// inside a callback or about to pop one.
type executor struct {
	bound int

	mu      sync.Mutex
	queue   []func() // ring: queued callbacks are queue[head], queue[head+1], … (mod len)
	head    int
	queued  int
	workers int           // drain goroutines, parked ones included; never falls
	idle    int           // workers parked on wake, or about to be, with no token sent for them yet
	wake    chan struct{} // one token per parked worker a schedule has claimed; capacity bound, so a send never blocks
	worker  func()        // drain, bound once: starting a worker allocates nothing
}

func newExecutor(bound int) *executor {
	e := &executor{bound: bound, wake: make(chan struct{}, bound)}
	e.worker = e.drain
	return e
}

// schedule queues f behind everything already queued, and makes sure a
// worker will come for it: a parked one if there is one, else a new one if
// the bound allows, else whichever running worker pops next.
func (e *executor) schedule(f func()) {
	e.mu.Lock()
	if e.queued == len(e.queue) {
		e.grow()
	}
	e.queue[(e.head+e.queued)&(len(e.queue)-1)] = f
	e.queued++
	switch {
	case e.idle > 0:
		// Claimed under the lock: the worker counted itself idle before it
		// let go of the lock, so whether or not it has reached the receive
		// yet, the buffered token is there when it does.
		e.idle--
		e.mu.Unlock()
		e.wake <- struct{}{}
	case e.workers < e.bound:
		e.workers++
		e.mu.Unlock()
		go e.worker()
	default:
		e.mu.Unlock()
	}
}

// grow doubles the ring (a power of two, so positions wrap with a mask),
// moving the queued callbacks to its front.
func (e *executor) grow() {
	bigger := make([]func(), max(16, 2*len(e.queue)))
	n := copy(bigger, e.queue[e.head:])
	copy(bigger[n:], e.queue[:e.head])
	e.queue, e.head = bigger, 0
}

// drain pops and runs callbacks — no lock held while one runs — and parks
// whenever the queue is empty. A token is for any parked worker, not for a
// particular one, and the callback it was sent for may have been popped by
// a worker that was still running, so a woken worker just looks again.
func (e *executor) drain() {
	for {
		e.mu.Lock()
		if e.queued == 0 {
			e.idle++
			e.mu.Unlock()
			<-e.wake
			continue
		}
		f := e.queue[e.head]
		e.queue[e.head] = nil
		e.head = (e.head + 1) & (len(e.queue) - 1)
		e.queued--
		e.mu.Unlock()
		f()
	}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }
