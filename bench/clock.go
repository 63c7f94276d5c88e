package main

import (
	"container/heap"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/sim"
)

// queueClock is the chain's clock: virtual time plus a queue of scheduled
// callbacks that only run when the driver calls advance, on the driver's
// goroutine, each inside a span. That turns the radio medium's scheduled
// hand-offs — invisible goroutines under RealClock — into calls the tracer
// can see.
type queueClock struct {
	tr *tracer

	mu   sync.Mutex
	now  time.Time
	seq  uint64
	evs  eventHeap
	kind spanName // span recorded around callbacks scheduled from now on
}

type event struct {
	at      time.Time
	seq     uint64
	fn      func()
	kind    spanName
	stopped *bool
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = event{}
	*h = old[:len(old)-1]
	return e
}

func newQueueClock(start time.Time, tr *tracer) *queueClock {
	return &queueClock{tr: tr, now: start, kind: spTimer}
}

var (
	_ sim.Clock     = (*queueClock)(nil)
	_ sim.Scheduler = (*queueClock)(nil)
)

func (c *queueClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *queueClock) push(d time.Duration, f func(), stopped *bool) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	c.seq++
	heap.Push(&c.evs, event{at: c.now.Add(d), seq: c.seq, fn: f, kind: c.kind, stopped: stopped})
	c.mu.Unlock()
}

// ScheduleFunc implements sim.Scheduler.
func (c *queueClock) ScheduleFunc(d time.Duration, f func()) { c.push(d, f, nil) }

type queueTimer struct {
	c       *queueClock
	stopped *bool
}

func (t queueTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if *t.stopped {
		return false
	}
	*t.stopped = true
	return true
}

// AfterFunc implements sim.Clock.
func (c *queueClock) AfterFunc(d time.Duration, f func()) sim.Timer {
	stopped := new(bool)
	c.push(d, f, stopped)
	return queueTimer{c: c, stopped: stopped}
}

// setKind sets the span kind recorded around callbacks scheduled from now
// on and returns the previous one, for the caller to restore.
func (c *queueClock) setKind(k spanName) spanName {
	c.mu.Lock()
	prev := c.kind
	c.kind = k
	c.mu.Unlock()
	return prev
}

// advance moves virtual time forward by d, running every callback that
// falls due, in (time, scheduling order), including ones scheduled by
// earlier callbacks.
func (c *queueClock) advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for len(c.evs) > 0 && !c.evs[0].at.After(target) {
		e := heap.Pop(&c.evs).(event)
		if e.stopped != nil {
			if *e.stopped {
				continue
			}
			*e.stopped = true // fired: Stop now reports false
		}
		if e.at.After(c.now) {
			c.now = e.at
		}
		c.mu.Unlock()
		sp := c.tr.begin(e.kind)
		e.fn()
		c.tr.end(sp)
		c.mu.Lock()
	}
	c.now = target
	c.mu.Unlock()
}
