package ring

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestRingFIFO(t *testing.T) {
	r := New[int](8)
	if r.Cap() != 8 {
		t.Fatalf("Cap() = %d, want 8", r.Cap())
	}
	for i := 0; i < 8; i++ {
		if !r.TryEnqueue(i) {
			t.Fatalf("enqueue %d refused below capacity", i)
		}
	}
	if r.TryEnqueue(99) {
		t.Fatal("enqueue admitted past capacity")
	}
	for i := 0; i < 8; i++ {
		v, ok := r.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := r.TryDequeue(); ok {
		t.Fatal("dequeue from empty ring succeeded")
	}
	if !r.Empty() {
		t.Fatal("drained ring not Empty")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := New[int](4)
	next := 0
	// Many laps around the physical ring, enqueueing and dequeueing in
	// mixed-size bursts, so the sequence stamps cross the wrap boundary
	// repeatedly.
	expect := 0
	for lap := 0; lap < 100; lap++ {
		burst := 1 + lap%4
		for i := 0; i < burst; i++ {
			if !r.TryEnqueue(next) {
				t.Fatalf("lap %d: enqueue %d refused with Len=%d", lap, next, r.Len())
			}
			next++
		}
		for i := 0; i < burst; i++ {
			v, ok := r.TryDequeue()
			if !ok || v != expect {
				t.Fatalf("lap %d: dequeue got %d ok=%v, want %d", lap, v, ok, expect)
			}
			expect++
		}
	}
}

func TestRingNonPowerOfTwoCapacity(t *testing.T) {
	r := New[int](6)
	if r.Cap() != 6 {
		t.Fatalf("Cap() = %d, want 6", r.Cap())
	}
	n := 0
	for r.TryEnqueue(n) {
		n++
	}
	// Under a serial producer the logical bound is exact even though the
	// physical ring has 8 slots.
	if n != 6 {
		t.Fatalf("serial producer admitted %d, want 6", n)
	}
}

func TestRingCapacityFloor(t *testing.T) {
	r := New[int](0)
	if r.Cap() != 1 {
		t.Fatalf("Cap() = %d, want 1", r.Cap())
	}
	if !r.TryEnqueue(7) {
		t.Fatal("capacity-1 ring refused first enqueue")
	}
	if r.TryEnqueue(8) {
		t.Fatal("capacity-1 ring admitted a second value")
	}
}

func TestRingDequeueBatch(t *testing.T) {
	r := New[int](16)
	for i := 0; i < 10; i++ {
		r.TryEnqueue(i)
	}
	buf := make([]int, 4)
	if n := r.DequeueBatch(buf); n != 4 {
		t.Fatalf("first batch: %d, want 4", n)
	}
	for i, v := range buf {
		if v != i {
			t.Fatalf("batch[%d] = %d, want %d", i, v, i)
		}
	}
	if n := r.DequeueBatch(make([]int, 16)); n != 6 {
		t.Fatalf("second batch: %d, want 6", n)
	}
}

// TestRingDequeueReleasesPayload pins the slot-zeroing behaviour: a
// dequeued slot must not keep the payload pointer alive until the slot's
// next lap.
func TestRingDequeueReleasesPayload(t *testing.T) {
	r := New[[]byte](4)
	r.TryEnqueue(make([]byte, 1))
	r.TryDequeue()
	if r.slots[0].val != nil {
		t.Fatal("dequeued slot still references the payload")
	}
}

// TestRingMPMCStress hammers the ring from many producers and a few
// consumers (the drop-oldest policy makes producers dequeue too) and
// checks that every value is delivered at most once and nothing is
// delivered that was not enqueued. Run with -race.
func TestRingMPMCStress(t *testing.T) {
	const (
		producers = 8
		perProd   = 2000
	)
	r := New[int](64)
	var mu sync.Mutex
	got := make(map[int]int)
	var wg sync.WaitGroup
	var consumed sync.WaitGroup
	stop := make(chan struct{})

	record := func(v int) {
		mu.Lock()
		got[v]++
		mu.Unlock()
	}

	consumed.Add(2)
	for c := 0; c < 2; c++ {
		go func() {
			defer consumed.Done()
			buf := make([]int, 32)
			for {
				n := r.DequeueBatch(buf)
				for _, v := range buf[:n] {
					record(v)
				}
				if n == 0 {
					select {
					case <-stop:
						// Final drain after producers finished.
						for {
							v, ok := r.TryDequeue()
							if !ok {
								return
							}
							record(v)
						}
					default:
					}
				}
			}
		}()
	}

	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				v := p*perProd + i
				for !r.TryEnqueue(v) {
					// Full: discard the oldest, like DropOldest does.
					if old, ok := r.TryDequeue(); ok {
						record(old)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	consumed.Wait()

	for v, n := range got {
		if n != 1 {
			t.Fatalf("value %d delivered %d times", v, n)
		}
		if v < 0 || v >= producers*perProd {
			t.Fatalf("value %d was never enqueued", v)
		}
	}
	if len(got) != producers*perProd {
		t.Fatalf("delivered %d distinct values, want %d", len(got), producers*perProd)
	}
}

// TestRingSPSCOrderStress checks per-producer FIFO with a single
// consumer: values from one producer must arrive in enqueue order even
// while other producers interleave. Run with -race.
func TestRingSPSCOrderStress(t *testing.T) {
	const (
		producers = 4
		perProd   = 5000
	)
	r := New[[2]int](128)
	lastSeen := make([]int, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := 0
		for seen < producers*perProd {
			v, ok := r.TryDequeue()
			if !ok {
				runtime.Gosched() // single-core friendliness
				continue
			}
			p, i := v[0], v[1]
			if i <= lastSeen[p] {
				panic("producer order inverted")
			}
			lastSeen[p] = i
			seen++
		}
	}()
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !r.TryEnqueue([2]int{p, i}) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	<-done
	for p, last := range lastSeen {
		if last != perProd-1 {
			t.Fatalf("producer %d: last index %d, want %d", p, last, perProd-1)
		}
	}
}

// TestWaiterNoLostWakeup stresses the park/unpark handshake: a producer
// that publishes work and calls Wake must always unblock a waiter that
// Prepared before re-checking. Run with -race.
func TestWaiterNoLostWakeup(t *testing.T) {
	const rounds = 20000
	w := NewWaiter()
	var work int64 // accessed via w's protocol only
	var mu sync.Mutex

	done := make(chan struct{})
	go func() {
		defer close(done)
		consumed := 0
		for consumed < rounds {
			mu.Lock()
			n := work
			work = 0
			mu.Unlock()
			consumed += int(n)
			if n > 0 {
				continue
			}
			w.Prepare()
			mu.Lock()
			pending := work
			mu.Unlock()
			if pending > 0 {
				w.Cancel()
				continue
			}
			w.Wait()
		}
	}()
	for i := 0; i < rounds; i++ {
		mu.Lock()
		work++
		mu.Unlock()
		w.Wake()
	}
	<-done
}

// TestRingZeroAlloc pins that the hot enqueue/dequeue pair allocates
// nothing.
func TestRingZeroAlloc(t *testing.T) {
	r := New[int](64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.TryEnqueue(1)
		r.TryDequeue()
	})
	if allocs != 0 {
		t.Fatalf("enqueue/dequeue allocates %.1f/op, want 0", allocs)
	}
}

// TestRingCursorPadding pins the anti-false-sharing layout: the enqueue
// cursor, dequeue cursor and length must each sit on their own cache
// line.
func TestRingCursorPadding(t *testing.T) {
	var r Ring[int]
	base := uintptr(unsafe.Pointer(&r))
	offs := map[string]uintptr{
		"enq":    uintptr(unsafe.Pointer(&r.enq)) - base,
		"deq":    uintptr(unsafe.Pointer(&r.deq)) - base,
		"length": uintptr(unsafe.Pointer(&r.length)) - base,
	}
	lines := make(map[uintptr]string)
	for name, off := range offs {
		line := off / cacheLine
		if prev, clash := lines[line]; clash {
			t.Fatalf("%s and %s share cache line %d", prev, name, line)
		}
		lines[line] = name
	}
}
