package sim

import (
	"sync"
	"time"
)

// Ticker invokes a callback at a fixed period on a Clock until stopped. It
// is the scheduling primitive behind periodic sensor sampling and
// coordinator sweeps; unlike a raw time.Ticker it works identically on
// virtual and real clocks and never leaks its timer.
type Ticker struct {
	clock  Clock
	fn     func(now time.Time)
	mu     sync.Mutex
	period time.Duration
	timer  Timer
	// gen numbers the armed timer. A fire that does not carry the current
	// gen comes from a timer SetPeriod replaced but could not stop — on
	// RealClock its callback may already be waiting for mu — and must not
	// arm a second chain beside the current one.
	gen  uint64
	done bool
}

// NewTicker schedules fn to run every period on clock, starting one period
// from now. Callers must Stop the ticker when finished. period must be
// positive; NewTicker panics otherwise (a programming error, caught in
// tests).
func NewTicker(clock Clock, period time.Duration, fn func(now time.Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{clock: clock, fn: fn, period: period}
	t.armLocked()
	return t
}

// armLocked arms the next tick one period from now as the current timer.
// Caller holds t.mu (or owns t exclusively).
func (t *Ticker) armLocked() {
	t.gen++
	gen := t.gen
	t.timer = t.clock.AfterFunc(t.period, func() { t.tick(gen) })
}

func (t *Ticker) tick(gen uint64) {
	t.mu.Lock()
	if t.done || gen != t.gen {
		t.mu.Unlock()
		return
	}
	// Re-arm before invoking so that the callback observes a live ticker
	// and so SetPeriod from inside the callback takes effect next round.
	t.armLocked()
	fn := t.fn
	t.mu.Unlock()
	fn(t.clock.Now())
}

// SetPeriod changes the tick period. The new period takes effect from the
// next firing. It is how actuated sample-rate changes are applied to a
// running sensor stream.
func (t *Ticker) SetPeriod(period time.Duration) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.period = period
	// Re-arm immediately so a long-period timer does not delay the switch
	// to a short period.
	t.timer.Stop()
	t.armLocked()
}

// Period returns the current tick period.
func (t *Ticker) Period() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.period
}

// Stop cancels the ticker. It is idempotent.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.timer.Stop()
}
