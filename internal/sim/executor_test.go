package sim

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor fails the test if done is not closed in reasonable time: a hang
// here is a callback that was lost or a deadlock, not a slow machine.
func waitFor(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestExecutorRunsEachOnceInScheduleOrder: with every worker but one held
// by a blocked callback, the callbacks behind them start in exactly the
// order they were scheduled, each once.
func TestExecutorRunsEachOnceInScheduleOrder(t *testing.T) {
	const bound, n = 3, 2000
	e := newExecutor(bound)
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(bound - 1)
	for i := 0; i < bound-1; i++ {
		e.schedule(func() { held.Done(); <-gate })
	}
	held.Wait() // bound-1 workers are now inside a callback that will not return

	var order []int // appended by one worker at a time, ordered by the executor's lock
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		e.schedule(func() {
			order = append(order, i)
			if len(order) == n {
				close(done)
			}
		})
	}
	waitFor(t, done, "the queued callbacks")
	close(gate)
	for i, got := range order {
		if got != i {
			t.Fatalf("callback %d started in position %d", got, i)
		}
	}
}

// TestExecutorRescheduleGoesBehindTheQueue: a callback that schedules
// another one queues it behind everything already waiting.
func TestExecutorRescheduleGoesBehindTheQueue(t *testing.T) {
	e := newExecutor(1)
	var order []string
	queued, done := make(chan struct{}), make(chan struct{})
	e.schedule(func() {
		<-queued // b and c are waiting behind us
		order = append(order, "a")
		e.schedule(func() { order = append(order, "a'"); close(done) })
	})
	e.schedule(func() { order = append(order, "b") })
	e.schedule(func() { order = append(order, "c") })
	close(queued)
	waitFor(t, done, "the rescheduled callback")
	if want := []string{"a", "b", "c", "a'"}; !slices.Equal(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
}

// TestExecutorLosesNothingWithinItsBound: 8 goroutines × 10 000 schedules
// all run, on never more than bound workers, and once the queue has
// drained every worker there is is parked.
func TestExecutorLosesNothingWithinItsBound(t *testing.T) {
	const producers, each, bound = 8, 10000, 3
	e := newExecutor(bound)
	var ran, running, peak atomic.Int64
	var all sync.WaitGroup
	all.Add(producers * each)
	f := func() {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		e.mu.Lock() // no lock is held while a callback runs, so this cannot deadlock
		workers := e.workers
		e.mu.Unlock()
		if workers > bound {
			t.Errorf("%d live workers, bound is %d", workers, bound)
		}
		ran.Add(1)
		running.Add(-1)
		all.Done()
	}
	for p := 0; p < producers; p++ {
		go func() {
			for i := 0; i < each; i++ {
				e.schedule(f)
			}
		}()
	}
	done := make(chan struct{})
	go func() { all.Wait(); close(done) }()
	waitFor(t, done, "80 000 callbacks")
	if got := ran.Load(); got != producers*each {
		t.Fatalf("%d callbacks ran, want %d", got, producers*each)
	}
	if got := peak.Load(); got > bound {
		t.Fatalf("%d callbacks ran at once on an executor bounded at %d", got, bound)
	}
	// Workers park when they find the queue empty. The last one's parking
	// is not an event a test can wait on, so poll briefly.
	var workers, idle, queued int
	quiet := func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		workers, idle, queued = e.workers, e.idle, e.queued
		return idle == workers && workers <= bound && queued == 0
	}
	for deadline := time.Now().Add(10 * time.Second); !quiet(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("drained executor counts %d workers, %d of them idle, and %d queued callbacks; bound is %d",
				workers, idle, queued, bound)
		}
	}
}

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 123 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	header := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(header[1]), 10, 64)
	return id
}

// TestExecutorSerialHandoffsReuseWorkers: a stream of callbacks that each
// find the queue empty — the unloaded case, one sample at a time — runs on
// the same few resident goroutines, not on a new one per callback (whose
// stack the runtime would grow from the minimum every time).
func TestExecutorSerialHandoffsReuseWorkers(t *testing.T) {
	const cycles, bound = 10000, 3
	baseline := runtime.NumGoroutine()
	e := newExecutor(bound)
	ids := map[uint64]bool{} // written by one callback at a time: each cycle waits for its own
	done := make(chan struct{}, 1)
	f := func() { ids[goroutineID()] = true; done <- struct{}{} }
	for i := 0; i < cycles; i++ {
		e.schedule(f)
		waitFor(t, done, "a callback scheduled on an idle executor")
	}
	if len(ids) > bound {
		t.Fatalf("%d serial callbacks ran on %d different goroutines, want at most %d", cycles, len(ids), bound)
	}
	if got := runtime.NumGoroutine(); got > baseline+bound {
		t.Fatalf("%d goroutines after %d serial callbacks, %d before: more than %d were left behind", got, cycles, baseline, bound)
	}
}

// TestExecutorWakeIsNotLostToAParkingWorker: a worker counts itself idle
// under the lock and blocks on the wake channel after letting go of it; a
// schedule that lands in between must still get its callback run. One
// worker, so nobody else can pick up a callback whose wake-up went
// missing, and a producer that spins instead of sleeping, so its next
// schedule lands wherever the worker happens to be on its way to parking.
func TestExecutorWakeIsNotLostToAParkingWorker(t *testing.T) {
	const n = 20000
	e := newExecutor(1)
	var ran atomic.Int64
	f := func() { ran.Add(1) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= n; i++ {
			e.schedule(f)
			for ran.Load() != i {
				runtime.Gosched()
			}
		}
	}()
	waitFor(t, done, "a callback scheduled while the only worker was parking")
}

// TestRealClockZeroDelayRunsOffTheCallersStack: the caller may hold a lock
// the callback takes.
func TestRealClockZeroDelayRunsOffTheCallersStack(t *testing.T) {
	var mu sync.Mutex
	done := make(chan struct{})
	mu.Lock()
	RealClock{}.ScheduleFunc(0, func() {
		mu.Lock()
		defer mu.Unlock()
		close(done)
	})
	mu.Unlock()
	waitFor(t, done, "a callback that takes the scheduler's lock")
}

// TestRealClockBlockedCallbackDoesNotStopTheQueue: there are at least two
// workers however few CPUs there are, so one callback stuck on a channel
// leaves later ones running.
func TestRealClockBlockedCallbackDoesNotStopTheQueue(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if handoffs.bound < 2 {
		t.Fatalf("RealClock's executor is bounded at %d workers, want at least 2", handoffs.bound)
	}
	release, stuck, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	RealClock{}.ScheduleFunc(0, func() { close(stuck); <-release })
	<-stuck
	RealClock{}.ScheduleFunc(-time.Second, func() { close(done) }) // a negative delay means now, too
	waitFor(t, done, "the callback behind a blocked one")
	close(release)
}

// TestRealClockPositiveDelayIsARuntimeTimer: only callbacks due now go
// through the executor; a delayed one fires no earlier than its delay.
func TestRealClockPositiveDelayIsARuntimeTimer(t *testing.T) {
	const d = 20 * time.Millisecond
	fired := make(chan time.Time, 1)
	start := time.Now()
	RealClock{}.ScheduleFunc(d, func() { fired <- time.Now() })
	handoffs.mu.Lock()
	queued := handoffs.queued
	handoffs.mu.Unlock()
	if queued != 0 {
		t.Fatalf("a delayed callback put %d entries on the zero-delay queue", queued)
	}
	select {
	case at := <-fired:
		if got := at.Sub(start); got < d {
			t.Fatalf("fired after %v, want no earlier than %v", got, d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("delayed callback never fired")
	}
}
