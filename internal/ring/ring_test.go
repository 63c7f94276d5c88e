package ring

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestRingFIFO(t *testing.T) {
	r := New[int](8)
	if int(r.capacity) != 8 {
		t.Fatalf("capacity = %d, want 8", int(r.capacity))
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
	if int(r.capacity) != 6 {
		t.Fatalf("capacity = %d, want 6", int(r.capacity))
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
	if int(r.capacity) != 1 {
		t.Fatalf("capacity = %d, want 1", int(r.capacity))
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
	if r.head.Load().slots[0].val != nil {
		t.Fatal("dequeued slot still references the payload")
	}
}

// segmentSizes lists the slot counts of the segments from head to tail.
func segmentSizes[T any](r *Ring[T]) []int {
	var out []int
	for s := r.head.Load(); s != nil; s = s.next.Load() {
		out = append(out, len(s.slots))
	}
	return out
}

// TestRingSerialFIFOAcrossSegments fills a capacity-4096 ring in bursts of
// every size from 1 to 4096 and drains each burst completely. On a fresh
// ring a burst crosses every segment boundary of the 64 → 4096 chain it
// reaches; on a ring kept across bursts it crosses into each new segment
// from a different offset of the last one.
func TestRingSerialFIFOAcrossSegments(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine: nothing for the race detector to find")
	}
	kept := New[int](4096)
	for burst := 1; burst <= 4096; burst++ {
		for _, r := range []*Ring[int]{New[int](4096), kept} {
			for i := 0; i < burst; i++ {
				if !r.TryEnqueue(i) {
					t.Fatalf("burst %d: enqueue %d refused with Len=%d", burst, i, r.Len())
				}
			}
			if burst == 4096 && r.TryEnqueue(-1) {
				t.Fatal("enqueue admitted past capacity")
			}
			for i := 0; i < burst; i++ {
				if v, ok := r.TryDequeue(); !ok || v != i {
					t.Fatalf("burst %d: dequeue %d got %d ok=%v", burst, i, v, ok)
				}
			}
			if _, ok := r.TryDequeue(); ok || !r.Empty() {
				t.Fatalf("burst %d: ring not empty after draining it", burst)
			}
		}
	}
	if got := segmentSizes(kept); len(got) != 1 || got[0] != 4096 {
		t.Fatalf("a drained ring that reached its capacity holds segments %v, want [4096]", got)
	}
}

// stressCapacities are the two shapes the stress tests run on: a ring
// that is one segment from the start, and a capacity-4096 ring whose
// first 64-slot segment must grow — its consumers wait until half the
// capacity is queued, so producers race across segment links.
var stressCapacities = []int{64, 4096}

// releaseAt closes start, once, when the ring first holds at least half
// its capacity; callers that finish enqueueing close it regardless.
func releaseAt[T any](r *Ring[T], once *sync.Once, start chan struct{}) {
	if r.Len() >= int(r.capacity)/2 {
		once.Do(func() { close(start) })
	}
}

// checkGrew fails unless the ring's tail segment reached half the
// capacity, which the consumers' late start forces.
func checkGrew[T any](t *testing.T, r *Ring[T]) {
	t.Helper()
	if n := len(r.tail.Load().slots); n < int(r.capacity)/2 {
		t.Fatalf("tail segment has %d slots, want at least %d: the ring never grew", n, int(r.capacity)/2)
	}
}

// TestRingMPMCStress hammers the ring from many producers and a few
// consumers (the drop-oldest policy makes producers dequeue too) and
// checks that every value is delivered at most once and nothing is
// delivered that was not enqueued. Run with -race.
func TestRingMPMCStress(t *testing.T) {
	for _, capacity := range stressCapacities {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) { mpmcStress(t, capacity) })
	}
}

func mpmcStress(t *testing.T, capacity int) {
	const (
		producers = 8
		perProd   = 2000
	)
	r := New[int](capacity)
	var mu sync.Mutex
	got := make(map[int]int)
	var wg sync.WaitGroup
	var consumed sync.WaitGroup
	stop := make(chan struct{})
	start := make(chan struct{})
	var once sync.Once

	record := func(v int) {
		mu.Lock()
		got[v]++
		mu.Unlock()
	}

	consumed.Add(2)
	for c := 0; c < 2; c++ {
		go func() {
			defer consumed.Done()
			<-start
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
					// Full: discard the oldest, as the dispatcher's ports do.
					if old, ok := r.TryDequeue(); ok {
						record(old)
					}
				}
				releaseAt(r, &once, start)
			}
		}(p)
	}
	wg.Wait()
	once.Do(func() { close(start) })
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
	checkGrew(t, r)
}

// TestRingSPSCOrderStress checks per-producer FIFO with a single
// consumer: values from one producer must arrive in enqueue order even
// while other producers interleave. Run with -race.
func TestRingSPSCOrderStress(t *testing.T) {
	for _, capacity := range []int{128, 4096} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) { spscOrderStress(t, capacity) })
	}
}

func spscOrderStress(t *testing.T, capacity int) {
	const (
		producers = 4
		perProd   = 5000
	)
	r := New[[2]int](capacity)
	lastSeen := make([]int, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	start := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-start
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
				releaseAt(r, &once, start)
			}
		}(p)
	}
	wg.Wait()
	once.Do(func() { close(start) })
	<-done
	for p, last := range lastSeen {
		if last != perProd-1 {
			t.Fatalf("producer %d: last index %d, want %d", p, last, perProd-1)
		}
	}
	checkGrew(t, r)
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
// nothing, on a ring that is still its first segment and on one that has
// grown and carries a standing backlog across the measurement, and that
// Push below a full segment allocates nothing either.
func TestRingZeroAlloc(t *testing.T) {
	fresh := New[int](64)
	grown := New[int](4096)
	for i := 0; i < 1000; i++ {
		grown.TryEnqueue(i)
	}
	for grown.Len() > 256 {
		grown.TryDequeue()
	}
	for name, r := range map[string]*Ring[int]{"fresh": fresh, "grown": grown} {
		allocs := testing.AllocsPerRun(1000, func() {
			r.TryEnqueue(1)
			r.TryDequeue()
		})
		if allocs != 0 {
			t.Fatalf("%s ring: enqueue/dequeue allocates %.1f/op, want 0", name, allocs)
		}
	}
	if got := segmentSizes(grown); len(got) != 1 || got[0] != 1024 {
		t.Fatalf("grown ring holds segments %v after the measurement, want [1024]", got)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		fresh.Push(1)
		fresh.TryDequeue()
	}); allocs != 0 {
		t.Fatalf("push/dequeue allocates %.1f/op, want 0", allocs)
	}
}

// TestRingPushPastCapacity: Push admits at Len() == Cap(), linking past
// phys slots when the tail is physically full, and TryEnqueue refuses
// until the ring is back under its capacity.
func TestRingPushPastCapacity(t *testing.T) {
	r := New[int](4)
	for i := 0; i < 4; i++ {
		r.TryEnqueue(i)
	}
	for i := 4; i < 10; i++ {
		if r.Len() < int(r.capacity) {
			t.Fatalf("Len() = %d below the capacity", r.Len())
		}
		r.Push(i)
	}
	if got := segmentSizes(r); len(got) != 3 || got[0] != 4 || got[1] != 4 || got[2] != 4 {
		t.Fatalf("segments %v, want three of phys = 4 slots", got)
	}
	for want := 0; want < 10; want++ {
		if want < 7 && r.TryEnqueue(-1) {
			t.Fatalf("TryEnqueue admitted at Len() = %d, Cap() = 4", r.Len())
		}
		if v, ok := r.TryDequeue(); !ok || v != want {
			t.Fatalf("dequeue got %d ok=%v, want %d", v, ok, want)
		}
	}
	if !r.TryEnqueue(10) {
		t.Fatal("TryEnqueue refused on a drained ring")
	}
}

// adoptedSeqs returns [first, first+n) as a fresh slice to adopt.
func adoptedSeqs(first, n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = first + i
	}
	return vals
}

// TestRingAdoptFIFO queues values across grown segments, adopts a batch
// behind them and pushes more behind that: everything drains in order,
// through DequeueBatch calls whose ends fall inside segments.
func TestRingAdoptFIFO(t *testing.T) {
	r := New[int](256)
	for i := 0; i < 100; i++ { // a 64-slot segment and a 128-slot one
		r.TryEnqueue(i)
	}
	r.Adopt(adoptedSeqs(100, 150))
	r.Adopt(nil)
	for i := 250; i < 400; i++ {
		r.Push(i)
	}
	if r.Len() != 400 {
		t.Fatalf("Len() = %d, want 400", r.Len())
	}
	buf := make([]int, 37)
	next := 0
	for {
		n := r.DequeueBatch(buf)
		if n == 0 {
			break
		}
		for _, v := range buf[:n] {
			if v != next {
				t.Fatalf("drained %d, want %d", v, next)
			}
			next++
		}
	}
	if next != 400 || !r.Empty() {
		t.Fatalf("drained %d of 400, Len() = %d", next, r.Len())
	}
}

// TestRingAdoptDoesNotCopy: the ring drains the caller's own array and
// zeroes each element as it goes, so nothing it dequeued stays pinned.
func TestRingAdoptDoesNotCopy(t *testing.T) {
	r := New[*int](8)
	vals := make([]*int, 50)
	for i := range vals {
		vals[i] = new(int)
	}
	r.Adopt(vals)
	if v, ok := r.TryDequeue(); !ok || v == nil {
		t.Fatal("first adopted value missing")
	}
	for r.DequeueBatch(make([]*int, 16)) > 0 {
	}
	for i, v := range vals {
		if v != nil {
			t.Fatalf("vals[%d] still set after the drain: the ring copied the batch", i)
		}
	}
}

// TestRingAdoptAllocations: Adopt allocates the same — the adopted
// segment's header and the fresh segment behind it — however long the
// batch is.
func TestRingAdoptAllocations(t *testing.T) {
	bytes := func(n int) uint64 {
		r := New[int](64)
		vals := adoptedSeqs(0, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Adopt(vals)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// A copy of 65536 ints would be 512 KB; the slack absorbs whatever
	// other goroutines allocate meanwhile.
	small, large := bytes(1), bytes(1<<16)
	if large > small+1024 {
		t.Fatalf("Adopt allocated %d B for 1 value and %d B for 65536: it copies", small, large)
	}
	r := New[int](64)
	vals := adoptedSeqs(0, 1<<16)
	if allocs := testing.AllocsPerRun(1, func() { r.Adopt(vals) }); allocs > 3 {
		t.Fatalf("Adopt: %.0f allocations, want the two segment headers and one slot array", allocs)
	}
}

// TestRingAdoptedDrainStress races producer-side TryDequeue (drop-oldest
// eviction) against the batch-draining consumer across adopted segments
// interleaved with pushed values: every value comes out exactly once.
// Run with -race.
func TestRingAdoptedDrainStress(t *testing.T) {
	const rounds, batch, pushes = 40, 500, 20
	r := New[int](64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var consumer, evictor []int
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]int, 32)
		for {
			n := r.DequeueBatch(buf)
			consumer = append(consumer, buf[:n]...)
			if n == 0 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			if v, ok := r.TryDequeue(); ok {
				evictor = append(evictor, v)
				continue
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	next := 0
	for round := 0; round < rounds; round++ {
		r.Adopt(adoptedSeqs(next, batch))
		next += batch
		for i := 0; i < pushes; i++ {
			r.Push(next)
			next++
		}
	}
	for !r.Empty() {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	got := make([]int, next)
	for _, v := range append(consumer, evictor...) {
		got[v]++
	}
	for v, n := range got {
		if n != 1 {
			t.Fatalf("value %d came out %d times", v, n)
		}
	}
	for i := 1; i < len(consumer); i++ {
		if consumer[i] <= consumer[i-1] {
			t.Fatalf("consumer saw %d after %d", consumer[i], consumer[i-1])
		}
	}
}

// TestRingGrowsOnlyToBacklog walks a capacity-4096 ring's occupancy at
// random between 0 and 200 — and to 200 itself — for many laps: the
// chain links 64 → 128 → 256 and stops there, and once the small
// segments drain the ring is the one 256-slot segment.
func TestRingGrowsOnlyToBacklog(t *testing.T) {
	r := New[int](4096)
	rng := rand.New(rand.NewSource(11))
	next, expect, peak := 0, 0, 0
	for step := 0; step < 200_000; step++ {
		if r.Len() < 200 && (r.Len() == 0 || rng.Intn(2) == 0) {
			if !r.TryEnqueue(next) {
				t.Fatalf("step %d: enqueue refused with Len=%d", step, r.Len())
			}
			next++
			peak = max(peak, r.Len())
			continue
		}
		if v, ok := r.TryDequeue(); !ok || v != expect {
			t.Fatalf("step %d: dequeue got %d ok=%v, want %d", step, v, ok, expect)
		}
		expect++
	}
	if peak != 200 {
		t.Fatalf("occupancy peaked at %d, want the walk to reach 200", peak)
	}
	for r.Len() > 0 {
		r.TryDequeue()
	}
	if got := segmentSizes(r); len(got) != 1 || got[0] != 256 {
		t.Fatalf("ring holds segments %v, want [256]", got)
	}
}

// TestRingCursorPadding pins the anti-false-sharing layout: a segment's
// enqueue and dequeue cursors each sit on their own cache line, apart
// from the segment's read-mostly header, and the ring's length sits on a
// line apart from the head and tail pointers.
func TestRingCursorPadding(t *testing.T) {
	var s segment[int]
	var r Ring[int]
	for what, offs := range map[string]map[string]uintptr{
		"segment": {
			"next": uintptr(unsafe.Pointer(&s.next)) - uintptr(unsafe.Pointer(&s)),
			"enq":  uintptr(unsafe.Pointer(&s.enq)) - uintptr(unsafe.Pointer(&s)),
			"deq":  uintptr(unsafe.Pointer(&s.deq)) - uintptr(unsafe.Pointer(&s)),
		},
		"ring": {
			"head/tail": uintptr(unsafe.Pointer(&r.tail)) - uintptr(unsafe.Pointer(&r)),
			"length":    uintptr(unsafe.Pointer(&r.length)) - uintptr(unsafe.Pointer(&r)),
		},
	} {
		lines := make(map[uintptr]string)
		for name, off := range offs {
			line := off / cacheLine
			if prev, clash := lines[line]; clash {
				t.Fatalf("%s: %s and %s share cache line %d", what, prev, name, line)
			}
			lines[line] = name
		}
	}
}
