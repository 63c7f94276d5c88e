package sim

import (
	"container/heap"
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
type VirtualClock struct {
	mu   sync.Mutex
	now  time.Time
	seq  uint64
	heap eventHeap
}

// NewVirtualClock returns a VirtualClock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

type event struct {
	when    time.Time
	seq     uint64 // tie-break: schedule order
	fn      func()
	stopped bool
	pooled  bool // fire-and-forget (ScheduleFunc): recycle after firing
	index   int  // heap index, -1 once popped
}

// eventPool recycles fire-and-forget events (ScheduleFunc). Events with
// a Timer handle are never pooled: the handle may outlive the firing.
var eventPool = sync.Pool{New: func() any { return new(event) }}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc implements Clock. Negative durations are treated as zero.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := &event{when: c.now.Add(d), seq: c.seq, fn: f}
	c.seq++
	heap.Push(&c.heap, ev)
	return &virtualTimer{clock: c, ev: ev}
}

// ScheduleFunc implements Scheduler: like AfterFunc but without a
// cancellation handle, so the event is drawn from (and returned to) a
// pool — the radio medium's per-broadcast scheduling path allocates
// nothing at steady state. Negative durations are treated as zero.
func (c *VirtualClock) ScheduleFunc(d time.Duration, f func()) {
	if d < 0 {
		d = 0
	}
	ev := eventPool.Get().(*event)
	c.mu.Lock()
	defer c.mu.Unlock()
	*ev = event{when: c.now.Add(d), seq: c.seq, fn: f, pooled: true}
	c.seq++
	heap.Push(&c.heap, ev)
}

type virtualTimer struct {
	clock *VirtualClock
	ev    *event
}

// Stop implements Timer.
func (t *virtualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.ev.stopped || t.ev.index == -1 {
		return false
	}
	t.ev.stopped = true
	heap.Remove(&t.clock.heap, t.ev.index)
	return true
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls within the window in deterministic order. It returns the number of
// callbacks fired.
func (c *VirtualClock) Advance(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	target := c.now.Add(d)
	c.mu.Unlock()
	return c.RunUntil(target)
}

// RunUntil fires timers in order until the clock reaches t. Timers
// scheduled by callbacks are honoured if they fall at or before t. The
// clock finishes exactly at t (unless it is already past t, in which case
// nothing happens).
func (c *VirtualClock) RunUntil(t time.Time) int {
	fired := 0
	for {
		c.mu.Lock()
		if len(c.heap) == 0 || c.heap[0].when.After(t) {
			if c.now.Before(t) {
				c.now = t
			}
			c.mu.Unlock()
			return fired
		}
		ev := heap.Pop(&c.heap).(*event)
		if ev.when.After(c.now) {
			c.now = ev.when
		}
		c.mu.Unlock()
		fire(ev)
		fired++
	}
}

// fire runs an event's callback and recycles fire-and-forget events.
func fire(ev *event) {
	fn := ev.fn
	if ev.pooled {
		*ev = event{}
		eventPool.Put(ev)
	}
	fn()
}

// RunAll fires every pending timer (including ones scheduled by callbacks)
// until none remain or the safety limit of one million callbacks is hit,
// and returns the number fired. It is intended for draining a simulation
// at shutdown.
func (c *VirtualClock) RunAll() int {
	const limit = 1_000_000
	fired := 0
	for fired < limit {
		c.mu.Lock()
		if len(c.heap) == 0 {
			c.mu.Unlock()
			return fired
		}
		ev := heap.Pop(&c.heap).(*event)
		if ev.when.After(c.now) {
			c.now = ev.when
		}
		c.mu.Unlock()
		fire(ev)
		fired++
	}
	return fired
}

// Pending returns the number of timers currently scheduled.
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
	return c.heap[0].when, true
}
