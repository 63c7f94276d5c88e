package sim

import (
	"testing"
	"time"
)

// BenchmarkVirtualClock measures the event queue under a standing
// population of 1 000 live timers, the order of what a field of sensors
// and a return path with requests in flight keep armed.
//
//   - schedule-fire: every op advances the clock by one step, firing the
//     one fire-and-forget callback due then, which schedules itself again
//     one full cycle later; the population stays at 1 000.
//   - afterfunc-stop: every op arms a cancellable timer among the 1 000
//     and stops it again, as an acknowledged request does its retry.
func BenchmarkVirtualClock(b *testing.B) {
	const live = 1000
	const step = time.Microsecond

	b.Run("schedule-fire/live=1k", func(b *testing.B) {
		c := NewVirtualClock(testEpoch)
		var again func()
		again = func() { c.ScheduleFunc(live*step, again) }
		for i := 1; i <= live; i++ {
			c.ScheduleFunc(time.Duration(i)*step, again)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Advance(step)
		}
		b.StopTimer()
		if n := c.Pending(); n != live {
			b.Fatalf("Pending = %d, want %d", n, live)
		}
	})

	b.Run("afterfunc-stop/live=1k", func(b *testing.B) {
		c := NewVirtualClock(testEpoch)
		noop := func() {}
		for i := 1; i <= live; i++ {
			c.ScheduleFunc(time.Duration(i)*step, noop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Spread the deadlines over the live range so a Stop removes
			// from the middle of the queue, not only its end.
			t := c.AfterFunc(time.Duration(1+i*7919%live)*step, noop)
			if !t.Stop() {
				b.Fatal("Stop of a pending timer reported false")
			}
		}
		b.StopTimer()
		if n := c.Pending(); n != live {
			b.Fatalf("Pending = %d, want %d", n, live)
		}
	})
}
