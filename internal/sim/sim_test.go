package sim

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var testEpoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC) // ICDCSW'03 opening day

func TestVirtualClockNow(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	if !c.Now().Equal(testEpoch) {
		t.Fatalf("Now = %v, want %v", c.Now(), testEpoch)
	}
	c.Advance(3 * time.Second)
	if want := testEpoch.Add(3 * time.Second); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
}

func TestVirtualClockFiresInOrder(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	var got []int
	c.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	c.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	c.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	if fired := c.Advance(time.Second); fired != 3 {
		t.Fatalf("fired %d, want 3", fired)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("fire order %v, want [1 2 3]", got)
		}
	}
}

func TestVirtualClockTieBreakBySchedulingOrder(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		c.AfterFunc(time.Millisecond, func() { got = append(got, i) })
	}
	c.Advance(time.Millisecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v, want ascending", got)
		}
	}
}

func TestVirtualClockCallbackSeesFireTime(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	var at time.Time
	c.AfterFunc(42*time.Millisecond, func() { at = c.Now() })
	c.Advance(time.Second)
	if want := testEpoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("callback saw %v, want %v", at, want)
	}
}

func TestVirtualClockNestedScheduling(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	var got []string
	c.AfterFunc(10*time.Millisecond, func() {
		got = append(got, "outer")
		c.AfterFunc(5*time.Millisecond, func() { got = append(got, "inner") })
	})
	c.Advance(20 * time.Millisecond)
	if len(got) != 2 || got[0] != "outer" || got[1] != "inner" {
		t.Fatalf("got %v, want [outer inner]", got)
	}
}

func TestVirtualClockNestedBeyondWindowDeferred(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	fired := false
	c.AfterFunc(10*time.Millisecond, func() {
		c.AfterFunc(50*time.Millisecond, func() { fired = true })
	})
	c.Advance(20 * time.Millisecond)
	if fired {
		t.Fatal("inner timer fired before its deadline")
	}
	c.Advance(40 * time.Millisecond)
	if !fired {
		t.Fatal("inner timer did not fire after its deadline")
	}
}

func TestVirtualTimerStop(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	fired := false
	timer := c.AfterFunc(10*time.Millisecond, func() { fired = true })
	if !timer.Stop() {
		t.Fatal("first Stop should report true")
	}
	if timer.Stop() {
		t.Fatal("second Stop should report false")
	}
	c.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestVirtualTimerStopAfterFire(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	timer := c.AfterFunc(time.Millisecond, func() {})
	c.Advance(time.Second)
	if timer.Stop() {
		t.Fatal("Stop after firing should report false")
	}
}

func TestVirtualClockZeroAndNegativeDelay(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	n := 0
	c.AfterFunc(0, func() { n++ })
	c.AfterFunc(-time.Second, func() { n++ })
	c.Advance(0)
	if n != 2 {
		t.Fatalf("fired %d, want 2", n)
	}
}

func TestVirtualClockRunAll(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	depth := 0
	var schedule func()
	schedule = func() {
		if depth < 10 {
			depth++
			c.AfterFunc(time.Minute, schedule)
		}
	}
	c.AfterFunc(time.Minute, schedule)
	if fired := c.RunAll(); fired != 11 {
		t.Fatalf("RunAll fired %d, want 11", fired)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after RunAll, want 0", c.Pending())
	}
}

func TestVirtualClockNextDeadline(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("NextDeadline should report !ok with empty heap")
	}
	c.AfterFunc(5*time.Second, func() {})
	d, ok := c.NextDeadline()
	if !ok || !d.Equal(testEpoch.Add(5*time.Second)) {
		t.Fatalf("NextDeadline = %v/%v", d, ok)
	}
}

// Property: for any set of random delays, callbacks observe a
// non-decreasing clock and fire in sorted-delay order.
func TestVirtualClockOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		c := NewVirtualClock(testEpoch)
		want := make([]time.Duration, len(delays))
		var got []time.Duration
		for i, d := range delays {
			dd := time.Duration(d) * time.Millisecond
			want[i] = dd
			c.AfterFunc(dd, func() { got = append(got, c.Now().Sub(testEpoch)) })
		}
		c.RunAll()
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVirtualClockConcurrentScheduling(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	var wg sync.WaitGroup
	var mu sync.Mutex
	count := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.AfterFunc(time.Duration(i)*time.Millisecond, func() {
					mu.Lock()
					count++
					mu.Unlock()
				})
			}
		}()
	}
	wg.Wait()
	c.RunAll()
	if count != 800 {
		t.Fatalf("count = %d, want 800", count)
	}
}

func TestRealClock(t *testing.T) {
	var c RealClock
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatal("RealClock.Now far in the past")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RealClock.AfterFunc never fired")
	}
	timer := c.AfterFunc(time.Hour, func() {})
	if !timer.Stop() {
		t.Fatal("Stop on pending real timer should report true")
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	var fires []time.Time
	ticker := NewTicker(c, 10*time.Millisecond, func(now time.Time) { fires = append(fires, now) })
	defer ticker.Stop()
	c.Advance(35 * time.Millisecond)
	if len(fires) != 3 {
		t.Fatalf("fired %d times, want 3", len(fires))
	}
	for i, at := range fires {
		want := testEpoch.Add(time.Duration(i+1) * 10 * time.Millisecond)
		if !at.Equal(want) {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	n := 0
	ticker := NewTicker(c, 10*time.Millisecond, func(time.Time) { n++ })
	c.Advance(25 * time.Millisecond)
	ticker.Stop()
	ticker.Stop() // idempotent
	c.Advance(100 * time.Millisecond)
	if n != 2 {
		t.Fatalf("fired %d times after stop, want 2", n)
	}
}

func TestTickerSetPeriod(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	n := 0
	ticker := NewTicker(c, time.Hour, func(time.Time) { n++ })
	defer ticker.Stop()
	ticker.SetPeriod(time.Millisecond)
	c.Advance(10 * time.Millisecond)
	if n != 10 {
		t.Fatalf("fired %d times after SetPeriod, want 10", n)
	}
	if ticker.Period() != time.Millisecond {
		t.Fatalf("Period = %v, want 1ms", ticker.Period())
	}
}

// manualClock fires a timer only when the test calls it. A timer that has
// fired or been stopped reports false from Stop, as a RealClock timer does
// once its callback has started, even if that callback has not yet got
// past the ticker's lock.
type manualClock struct{ timers []*manualTimer }

type manualTimer struct {
	f              func()
	fired, stopped bool
}

func (c *manualClock) Now() time.Time { return testEpoch }

func (c *manualClock) AfterFunc(_ time.Duration, f func()) Timer {
	mt := &manualTimer{f: f}
	c.timers = append(c.timers, mt)
	return mt
}

func (mt *manualTimer) Stop() bool {
	if mt.fired || mt.stopped {
		return false
	}
	mt.stopped = true
	return true
}

// fire runs the timer's callback the way a clock does.
func (mt *manualTimer) fire() {
	mt.fired = true
	mt.f()
}

// armed counts the timers that can still fire.
func (c *manualClock) armed() []*manualTimer {
	var live []*manualTimer
	for _, mt := range c.timers {
		if !mt.fired && !mt.stopped {
			live = append(live, mt)
		}
	}
	return live
}

// TestTickerSetPeriodIgnoresLateFire: a tick that fired before SetPeriod
// but reaches the ticker only after it must not arm a second timer beside
// the one SetPeriod armed; the ticker would then sample at double rate
// until Stop.
func TestTickerSetPeriodIgnoresLateFire(t *testing.T) {
	c := &manualClock{}
	n := 0
	ticker := NewTicker(c, time.Second, func(time.Time) { n++ })
	late := c.timers[0]
	late.fired = true // its callback has started and waits for the ticker's lock
	ticker.SetPeriod(time.Millisecond)
	late.f()
	live := c.armed()
	if len(live) != 1 {
		t.Fatalf("armed timers after a late fire = %d, want 1", len(live))
	}
	if n != 0 {
		t.Fatalf("late fire of a replaced timer ran the callback %d times, want 0", n)
	}
	live[0].fire()
	if live = c.armed(); len(live) != 1 || n != 1 {
		t.Fatalf("after one current tick: armed %d (want 1), fired %d (want 1)", len(live), n)
	}
	ticker.Stop()
	if live = c.armed(); len(live) != 0 {
		t.Fatalf("armed timers after Stop = %d, want 0", len(live))
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	c := NewVirtualClock(testEpoch)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive period")
		}
	}()
	NewTicker(c, 0, func(time.Time) {})
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give identical streams")
		}
	}
	cDiff := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == cDiff.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSubSeedIndependence(t *testing.T) {
	seen := map[uint64]string{}
	labels := []string{"radio", "sensor/1", "sensor/2", "mobility", "field"}
	for _, l := range labels {
		s := SubSeed(7, l)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SubSeed collision between %q and %q", prev, l)
		}
		seen[s] = l
	}
	if SubSeed(7, "radio") != SubSeed(7, "radio") {
		t.Fatal("SubSeed not deterministic")
	}
	if SubSeed(7, "radio") == SubSeed(8, "radio") {
		t.Fatal("SubSeed ignores parent seed")
	}
}

// TestScheduleFuncOrderingMatchesAfterFunc: fire-and-forget events share
// the same (deadline, schedule-order) discipline as AfterFunc timers,
// including interleaved with them, round after round.
func TestScheduleFuncOrderingMatchesAfterFunc(t *testing.T) {
	var _ Scheduler = (*VirtualClock)(nil)
	var _ Scheduler = RealClock{}

	clock := NewVirtualClock(time.Unix(0, 0))
	for round := 0; round < 3; round++ { // later rounds reuse the heap's slots
		var got []int
		clock.ScheduleFunc(2*time.Millisecond, func() { got = append(got, 2) })
		clock.AfterFunc(time.Millisecond, func() { got = append(got, 1) })
		clock.ScheduleFunc(time.Millisecond, func() { got = append(got, 11) })
		clock.ScheduleFunc(0, func() { got = append(got, 0) })
		clock.ScheduleFunc(-time.Second, func() { got = append(got, 0) }) // negative = zero
		clock.Advance(5 * time.Millisecond)
		want := []int{0, 0, 1, 11, 2}
		if len(got) != len(want) {
			t.Fatalf("round %d: fired %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: fired %v, want %v", round, got, want)
			}
		}
	}
}

// TestScheduleFuncNestedReschedule: a fire-and-forget event's callback may
// itself call ScheduleFunc (the radio delivery path does when a Deliver
// re-broadcasts) while the heap slot it fired from is being reused.
func TestScheduleFuncNestedReschedule(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			clock.ScheduleFunc(time.Millisecond, rec)
		}
	}
	clock.ScheduleFunc(time.Millisecond, rec)
	clock.RunAll()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
}

func TestNewRandIsUsableSource(t *testing.T) {
	r := NewRand(1)
	// Sanity: values in range and not constant.
	var distinct bool
	first := r.IntN(1000)
	for i := 0; i < 20; i++ {
		v := r.IntN(1000)
		if v < 0 || v >= 1000 {
			t.Fatalf("IntN out of range: %d", v)
		}
		if v != first {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("RNG appears constant")
	}
	var _ *rand.Rand = r
}
