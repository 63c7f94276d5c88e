package ring

import (
	"sync"
	"testing"
)

// BenchmarkWakeup pins the satellite claim behind the Waiter: notifying
// a running drainer through the two-state atomic is cheaper than
// sync.Cond.Signal, which acquires the cond's internal lock on every
// call whether or not anyone waits. Both benchmarks measure the
// producer-side cost with the consumer awake — what an enqueue pays
// while the drainer is busy or has only yielded its turn, when it still
// has to offer a wakeup.
func BenchmarkWakeup(b *testing.B) {
	b.Run("cond_signal", func(b *testing.B) {
		var mu sync.Mutex
		cond := sync.NewCond(&mu)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				cond.Signal()
			}
		})
	})
	b.Run("atomic_park", func(b *testing.B) {
		w := NewWaiter()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				w.Wake()
			}
		})
	})
}

// BenchmarkWakeupParked measures the full park/unpark round trip: the
// consumer actually sleeps between wakeups, so the producer pays the
// CAS + channel send and the consumer the channel receive. For a drainer
// that parks on its first empty look this is the steady state, not an
// edge — 57 % of enqueues on the deployment benchmark's fan-out workload
// — which is why the dispatcher's drainer looks twice before it parks
// (20 % after; see the package comment).
func BenchmarkWakeupParked(b *testing.B) {
	b.Run("cond_signal", func(b *testing.B) {
		var mu sync.Mutex
		cond := sync.NewCond(&mu)
		work := 0
		done := false
		go func() {
			mu.Lock()
			for !done {
				for work == 0 && !done {
					cond.Wait()
				}
				work = 0
			}
			mu.Unlock()
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Lock()
			work++
			mu.Unlock()
			cond.Signal()
		}
		b.StopTimer()
		mu.Lock()
		done = true
		mu.Unlock()
		cond.Signal()
	})
	b.Run("atomic_park", func(b *testing.B) {
		w := NewWaiter()
		var work sync.Mutex
		pending := 0
		finished := false
		go func() {
			for {
				work.Lock()
				n, fin := pending, finished
				pending = 0
				work.Unlock()
				if fin && n == 0 {
					return
				}
				if n > 0 {
					continue
				}
				w.Prepare()
				work.Lock()
				n, fin = pending, finished
				work.Unlock()
				if n > 0 || fin {
					w.Cancel()
					continue
				}
				w.Wait()
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work.Lock()
			pending++
			work.Unlock()
			w.Wake()
		}
		b.StopTimer()
		work.Lock()
		finished = true
		work.Unlock()
		w.Wake()
	})
}

// BenchmarkRingEnqueueDequeue measures the raw queue hot pair: on an empty
// ring, and on a capacity-4096 ring holding a standing backlog of 256,
// which has grown past its first segment and must stay at 0 B/op there.
func BenchmarkRingEnqueueDequeue(b *testing.B) {
	for _, c := range []struct {
		name              string
		capacity, backlog int
	}{{"empty", 1024, 0}, {"backlog=256", 4096, 256}} {
		b.Run(c.name, func(b *testing.B) {
			r := New[int](c.capacity)
			for i := 0; i < c.backlog; i++ {
				r.TryEnqueue(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.TryEnqueue(i)
				r.TryDequeue()
			}
		})
	}
}

// BenchmarkRingProducers measures contended enqueue with a draining
// consumer, the dispatcher's fan-in shape.
func BenchmarkRingProducers(b *testing.B) {
	r := New[int](1024)
	stop := make(chan struct{})
	go func() {
		buf := make([]int, 64)
		for {
			if r.DequeueBatch(buf) == 0 {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for !r.TryEnqueue(1) {
				r.TryDequeue()
			}
		}
	})
	close(stop)
}
