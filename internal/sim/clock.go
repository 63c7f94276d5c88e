// Package sim provides the deterministic simulation kernel underneath the
// Garnet reproduction: a pluggable clock abstraction with a heap-based
// virtual implementation (so every experiment is replayable bit-for-bit
// from a seed) and fork-able pseudo-random streams.
//
// The middleware itself is written against the Clock interface and never
// reads the wall clock directly; examples run it on RealClock, tests and
// the benchmark harness on VirtualClock.
package sim

import "time"

// Clock abstracts time for the middleware and the simulator.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run after d has elapsed on this clock and
	// returns a handle that can cancel it. Implementations may run f on an
	// arbitrary goroutine (RealClock) or synchronously inside an Advance
	// call (VirtualClock); f must therefore not block.
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
// handle, which lets implementations recycle their per-timer bookkeeping
// (VirtualClock pools its heap events). Hot paths that schedule one
// callback per broadcast — the radio medium above all — probe for this
// interface so a dense field costs zero steady-state allocations in the
// clock.
type Scheduler interface {
	// ScheduleFunc schedules f to run after d on this clock. It cannot
	// be cancelled.
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

// ScheduleFunc implements Scheduler.
func (RealClock) ScheduleFunc(d time.Duration, f func()) {
	time.AfterFunc(d, f)
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }
