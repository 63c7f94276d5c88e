package dispatch

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Tests of the drainer's idle transition (port.run): take, yield once,
// take again, and only then Prepare / take / Wait. CI runs them under
// -race -cpu 1,2,8 -count=5.

// queuePaths names the two ways producers reach the one ring: lock-free,
// and deciding under the port's mutex, as producers do while a catch-up
// gate is open or closing.
var queuePaths = []struct {
	name string
	slow bool
}{{"ring", false}, {"slow", true}}

// holdSlow keeps p on its mutex path for good, as an open gate or a
// closing port does, without holding anything back.
func holdSlow(p *port) { p.enterSlow() }

// subscribeAll subscribes c to every stream. On the slow path it then
// catches c's port up once with an empty replay, on a stream nothing
// publishes — which must leave the port back on the lock-free ring — and
// holds the port slow, so every later enqueue decides under the port's
// mutex. It returns the ids whose removal closes the port.
func subscribeAll(t *testing.T, d *Dispatcher, c Consumer, slow bool) []SubscriptionID {
	t.Helper()
	id, err := d.Subscribe(c, All())
	if err != nil {
		t.Fatal(err)
	}
	ids := []SubscriptionID{id}
	if slow {
		id, _, err := d.SubscribeWithReplay(c, wire.MustStreamID(999, 0), func() []filtering.Delivery { return nil })
		if err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		p := d.ports[c]
		d.mu.Unlock()
		if n := p.slow.Load(); n != 0 {
			t.Fatalf("a port that caught up is still slow (%d)", n)
		}
		holdSlow(p)
		ids = append(ids, id)
	}
	return ids
}

// spin waits d without sleeping: time.Sleep rounds a few microseconds up
// to a timer tick, and the point of the gaps below is to land enqueues
// inside the drainer's yield, its Prepare and its Wait.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// waitGoroutines waits for the goroutine count to come back down to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d: a drainer did not exit", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLookTwiceLosesNoWakeup: producers enqueue single deliveries at
// seeded random gaps of 0–50 µs, so enqueues straddle every step of the
// idle transition. Every delivery must be consumed, in per-stream order,
// within a deadline — a lost wakeup strands the last delivery of a
// stream until the next one, and the last one of all for good — and no
// more tokens may have been sent than deliveries made.
func TestLookTwiceLosesNoWakeup(t *testing.T) {
	const producers, perProducer = 4, 400
	for _, path := range queuePaths {
		t.Run(path.name, func(t *testing.T) {
			d := New(Options{Mode: ModeAsync, QueueCapacity: producers * perProducer})
			var consumed atomic.Int64
			next := make([]wire.Seq, producers) // touched by the one drainer only
			var outOfOrder atomic.Bool
			c := &ConsumerFunc{ConsumerName: "c", Fn: func(dd filtering.Delivery) {
				p := int(dd.Msg.Stream.Sensor()) - 1
				if dd.Msg.Seq != next[p] {
					outOfOrder.Store(true)
				}
				next[p] = dd.Msg.Seq + 1
				consumed.Add(1)
			}}
			subscribeAll(t, d, c, path.slow)
			d.Start()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(17 + p)))
					stream := wire.MustStreamID(wire.SensorID(p+1), 0)
					for i := 0; i < perProducer; i++ {
						d.Dispatch(del(stream, wire.Seq(i)))
						spin(time.Duration(rng.Intn(51)) * time.Microsecond)
					}
				}(p)
			}
			wg.Wait()
			deadline := time.Now().Add(5 * time.Second)
			for consumed.Load() < producers*perProducer && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			st := d.Stats()
			if got := consumed.Load(); got != producers*perProducer || st.Dropped != 0 {
				t.Fatalf("consumed %d of %d (dropped %d): a delivery is stranded in the queue", got, producers*perProducer, st.Dropped)
			}
			if outOfOrder.Load() {
				t.Fatal("a stream was consumed out of order")
			}
			if w := d.Wakeups(); w > st.Delivered {
				t.Fatalf("Wakeups = %d > Delivered = %d", w, st.Delivered)
			}
			d.Stop()
		})
	}
}

// TestEveryDeliveryIsTheLastOne: with traffic flowing, a delivery whose
// wakeup was lost is rescued by the next enqueue and nobody notices. Here
// nothing follows a delivery until it has been consumed, so a lost wakeup
// is a hang, and the gap before the next one (seeded, 0–5 µs, with every
// eighth up to 50 µs) sweeps the enqueue across the drainer's second look,
// its Prepare, its last take and its Wait.
func TestEveryDeliveryIsTheLastOne(t *testing.T) {
	const rounds = 10000
	for _, path := range queuePaths {
		t.Run(path.name, func(t *testing.T) {
			d := New(Options{Mode: ModeAsync})
			var consumed atomic.Int64
			c := &ConsumerFunc{ConsumerName: "c", Fn: func(filtering.Delivery) { consumed.Add(1) }}
			subscribeAll(t, d, c, path.slow)
			d.Start()
			defer d.Stop()
			rng := rand.New(rand.NewSource(29))
			oneP := runtime.GOMAXPROCS(0) == 1
			for i := int64(0); i < rounds; i++ {
				d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(i)))
				// Poll without yielding where the drainer has a P of its own,
				// so the next enqueue can be early enough to meet it on its
				// way to sleep.
				deadline := time.Now().Add(5 * time.Second)
				for polls := 1; consumed.Load() <= i; polls++ {
					if oneP {
						runtime.Gosched()
					}
					if polls%1024 == 0 && time.Now().After(deadline) {
						t.Fatalf("delivery %d enqueued and never consumed: its wakeup was lost", i)
					}
				}
				gap := time.Duration(rng.Intn(5000))
				if i%8 == 0 {
					gap *= 10
				}
				spin(gap)
			}
			if w, st := d.Wakeups(), d.Stats(); w > st.Delivered {
				t.Fatalf("Wakeups = %d > Delivered = %d", w, st.Delivered)
			}
		})
	}
}

// TestWakeupsCountsParkedEnqueues: an enqueue that finds the drainer parked is counted,
// one that finds it awake is not, and synchronous dispatch has no drainer
// to wake.
func TestWakeupsCountsParkedEnqueues(t *testing.T) {
	d := New(Options{Mode: ModeAsync})
	release := make(chan struct{})
	var consumed atomic.Int64
	c := &ConsumerFunc{ConsumerName: "c", Fn: func(filtering.Delivery) {
		<-release
		consumed.Add(1)
	}}
	if _, err := d.Subscribe(c, All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	// The drainer of an idle port parks; how soon is the scheduler's
	// business, so offer it single deliveries until one had to wake it.
	// While the consumer holds the drainer inside Consume it is awake:
	// nine more enqueues must not add a wakeup.
	deadline := time.Now().Add(5 * time.Second)
	sent := int64(0)
	for d.Wakeups() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no enqueue ever found the idle drainer parked")
		}
		time.Sleep(time.Millisecond)
		d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(sent)))
		sent++
		if d.Wakeups() == 0 {
			release <- struct{}{}
			for consumed.Load() < sent {
				runtime.Gosched()
			}
		}
	}
	for i := 0; i < 9; i++ {
		d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(sent)))
		sent++
	}
	if w := d.Wakeups(); w != 1 {
		t.Fatalf("Wakeups = %d after one enqueue to a parked drainer and 9 to a busy one, want 1", w)
	}
	close(release)
	d.Stop()
	if got := consumed.Load(); got != sent {
		t.Fatalf("consumed %d of %d", got, sent)
	}

	s := New(Options{})
	if _, err := s.Subscribe(&recorder{name: "r"}, All()); err != nil {
		t.Fatal(err)
	}
	s.Dispatch(del(wire.MustStreamID(1, 0), 0))
	if w, st := s.Wakeups(), s.Stats(); w != 0 || st.Delivered != 1 {
		t.Fatalf("sync dispatch: Wakeups = %d, Delivered = %d, want 0 and 1", w, st.Delivered)
	}
}

// TestCloseDuringIdleTransitionDrainsAndExits: Unsubscribe and Stop land
// at seeded random offsets after the last enqueue — while the drainer is
// consuming, yielded, between Prepare and Wait, or parked. Whichever it
// is, everything admitted before the close is consumed and the drainer
// goroutine exits.
func TestCloseDuringIdleTransitionDrainsAndExits(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(23))
	for _, path := range queuePaths {
		for round := 0; round < 300; round++ {
			d := New(Options{Mode: ModeAsync})
			var consumed atomic.Int64
			c := &ConsumerFunc{ConsumerName: "c", Fn: func(filtering.Delivery) { consumed.Add(1) }}
			ids := subscribeAll(t, d, c, path.slow)
			d.Start()
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(i)))
			}
			spin(time.Duration(rng.Intn(30)) * time.Microsecond)
			if round%2 == 0 {
				for _, id := range ids { // the last one closes the port; the drainer exits on its own
					d.Unsubscribe(id)
				}
				waitGoroutines(t, base)
			}
			d.Stop()
			if got := consumed.Load(); got != int64(n) {
				t.Fatalf("%s round %d: consumed %d of %d admitted before the close", path.name, round, got, n)
			}
		}
	}
	waitGoroutines(t, base)
}

// TestIdlePortKeepsNoPayload: a parked drainer must not pin what it last
// delivered. The queue slots are zeroed on dequeue; the drainer's reused
// batch buffer has to be cleared on the way to Wait as well, or an idle
// port holds its last batch's payloads (pooled receive buffers, in a
// deployment) for as long as it stays idle.
func TestIdlePortKeepsNoPayload(t *testing.T) {
	for _, path := range queuePaths {
		t.Run(path.name, func(t *testing.T) {
			d := New(Options{Mode: ModeAsync})
			var consumed atomic.Bool
			c := &ConsumerFunc{ConsumerName: "c", Fn: func(filtering.Delivery) { consumed.Store(true) }}
			subscribeAll(t, d, c, path.slow)
			d.Start()
			defer d.Stop()

			freed := make(chan struct{})
			func() {
				payload := new([256]byte)
				runtime.SetFinalizer(payload, func(*[256]byte) { close(freed) })
				dd := del(wire.MustStreamID(1, 0), 1)
				dd.Msg.Payload = payload[:]
				d.Dispatch(dd)
			}()
			deadline := time.Now().Add(5 * time.Second)
			for !consumed.Load() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if !consumed.Load() {
				t.Fatal("delivery not consumed")
			}
			for time.Now().Before(deadline) {
				runtime.GC()
				select {
				case <-freed:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("payload still reachable 5 s after it was consumed: the idle port pins it")
		})
	}
}
