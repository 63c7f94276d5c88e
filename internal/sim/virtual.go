package sim

import (
	"math"
	"sync"
	"time"
)

// VirtualClock is a deterministic Clock driven explicitly by the test or
// simulation harness. Timers fire in (deadline, schedule-order) order when
// the caller advances the clock; callbacks run synchronously on the
// advancing goroutine, one at a time, so a run with a given seed is fully
// reproducible.
//
// Callbacks may schedule further timers (including zero-delay ones); they
// fire within the same Advance call if they fall inside the advanced
// window.
//
// The pending timers sit in one binary heap ordered by the key each entry
// carries inline: its deadline in nanoseconds since the clock's start, then
// its schedule sequence number. Comparing two entries reads two integers
// each and nothing else. A stopped timer leaves the heap at once, so
// scheduling, firing and Stop each cost O(log live), where live is what
// Pending reports: the timers that can still fire.
type VirtualClock struct {
	origin time.Time // set once by NewVirtualClock

	mu   sync.Mutex
	now  int64 // nanoseconds since origin
	seq  uint64
	heap []event
}

// NewVirtualClock returns a VirtualClock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{origin: start}
}

// event is one pending callback, held by value in the heap.
type event struct {
	at    int64  // deadline, nanoseconds since origin
	seq   uint64 // tie-break: schedule order
	fn    func()
	timer *timer // the AfterFunc handle; nil for ScheduleFunc
}

// before is the heap order: earlier deadline first, then schedule order.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// timer is the Timer AfterFunc returns. It knows where its event sits in
// the heap so Stop can take it out; index is -1 once the event has fired
// or been stopped.
type timer struct {
	clock *VirtualClock
	index int
}

// Stop implements Timer.
func (t *timer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.index < 0 {
		return false
	}
	c.remove(t.index)
	return true
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.origin.Add(time.Duration(c.now))
}

// AfterFunc implements Clock. Negative durations are treated as zero. The
// returned handle is the only allocation.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	t := &timer{clock: c}
	c.mu.Lock()
	c.push(d, f, t)
	c.mu.Unlock()
	return t
}

// ScheduleFunc implements Scheduler: like AfterFunc but without a
// cancellation handle, so it allocates nothing beyond the heap's own
// growth — the radio medium's per-broadcast scheduling path is free at
// steady state. Negative durations are treated as zero.
func (c *VirtualClock) ScheduleFunc(d time.Duration, f func()) {
	c.mu.Lock()
	c.push(d, f, nil)
	c.mu.Unlock()
}

// push schedules f d from now. Caller holds c.mu.
func (c *VirtualClock) push(d time.Duration, f func(), t *timer) {
	c.heap = append(c.heap, event{at: c.after(d), seq: c.seq, fn: f, timer: t})
	c.seq++
	c.up(len(c.heap) - 1)
}

// after returns the instant d from now, nanoseconds since origin. Negative
// durations count as zero, and the sum saturates rather than wrap. Caller
// holds c.mu.
func (c *VirtualClock) after(d time.Duration) int64 {
	if d <= 0 {
		return c.now
	}
	if int64(d) > math.MaxInt64-c.now {
		return math.MaxInt64
	}
	return c.now + int64(d)
}

// up moves the entry at i toward the root until its parent is not later,
// shifting each later parent down into the hole.
func (c *VirtualClock) up(i int) {
	h := c.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		c.place(i, h[p])
		i = p
	}
	c.place(i, e)
}

// down moves the entry at i toward the leaves until no child is earlier,
// shifting each earlier child up into the hole. It reports whether the
// entry moved.
func (c *VirtualClock) down(i int) bool {
	h := c.heap
	n := len(h)
	start := i
	e := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&e) {
			break
		}
		c.place(i, h[m])
		i = m
	}
	c.place(i, e)
	return i > start
}

// place stores e at heap position i and tells its handle, if it has one.
func (c *VirtualClock) place(i int, e event) {
	c.heap[i] = e
	if e.timer != nil {
		e.timer.index = i
	}
}

// remove takes the entry at i out of the heap and returns it, its handle
// marked as no longer pending. Caller holds c.mu.
func (c *VirtualClock) remove(i int) event {
	h := c.heap
	n := len(h) - 1
	e := h[i]
	if i != n {
		c.place(i, h[n])
	}
	h[n] = event{}
	c.heap = h[:n]
	if i != n && !c.down(i) {
		c.up(i)
	}
	if e.timer != nil {
		e.timer.index = -1
	}
	return e
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls within the window in deterministic order. It returns the number of
// callbacks fired.
func (c *VirtualClock) Advance(d time.Duration) int {
	c.mu.Lock()
	target := c.after(d)
	c.mu.Unlock()
	return c.run(target, math.MaxInt, true)
}

// RunUntil fires timers in order until the clock reaches t. Timers
// scheduled by callbacks are honoured if they fall at or before t. The
// clock finishes exactly at t (unless it is already past t, in which case
// nothing happens).
func (c *VirtualClock) RunUntil(t time.Time) int {
	return c.run(int64(t.Sub(c.origin)), math.MaxInt, true)
}

// RunAll fires every pending timer (including ones scheduled by callbacks)
// until none remain or the safety limit of one million callbacks is hit,
// and returns the number fired. It is intended for draining a simulation
// at shutdown.
func (c *VirtualClock) RunAll() int {
	return c.run(math.MaxInt64, 1_000_000, false)
}

// run fires, in order, up to limit callbacks due at or before target and
// returns how many it fired. When none due is left and settle is set, it
// moves the clock on to target unless the clock is past it already.
func (c *VirtualClock) run(target int64, limit int, settle bool) int {
	fired := 0
	for fired < limit {
		c.mu.Lock()
		if len(c.heap) == 0 || c.heap[0].at > target {
			if settle && c.now < target {
				c.now = target
			}
			c.mu.Unlock()
			return fired
		}
		e := c.remove(0)
		if e.at > c.now {
			c.now = e.at
		}
		c.mu.Unlock()
		e.fn()
		fired++
	}
	return fired
}

// Pending returns the number of timers that can still fire: scheduled,
// not yet fired and not stopped.
func (c *VirtualClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.heap)
}

// NextDeadline returns the deadline of the earliest pending timer.
// ok is false when no timers are pending.
func (c *VirtualClock) NextDeadline() (deadline time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) == 0 {
		return time.Time{}, false
	}
	return c.origin.Add(time.Duration(c.heap[0].at)), true
}
