package dispatch

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

type recorder struct {
	name string
	mu   sync.Mutex
	got  []filtering.Delivery
}

func (r *recorder) Name() string { return r.name }
func (r *recorder) Consume(d filtering.Delivery) {
	r.mu.Lock()
	r.got = append(r.got, d)
	r.mu.Unlock()
}
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

func del(stream wire.StreamID, seq wire.Seq) filtering.Delivery {
	return filtering.Delivery{
		Msg: wire.Message{Stream: stream, Seq: seq},
		At:  epoch,
	}
}

func TestExactSubscription(t *testing.T) {
	d := New(Options{})
	c := &recorder{name: "c"}
	if _, err := d.Subscribe(c, Exact(wire.MustStreamID(1, 0))); err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	d.Dispatch(del(wire.MustStreamID(1, 1), 0)) // other stream, same sensor
	d.Dispatch(del(wire.MustStreamID(2, 0), 0)) // other sensor
	if c.count() != 1 {
		t.Fatalf("delivered %d, want 1", c.count())
	}
}

func TestBySensorSubscription(t *testing.T) {
	d := New(Options{})
	c := &recorder{name: "c"}
	if _, err := d.Subscribe(c, BySensor(1)); err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	d.Dispatch(del(wire.MustStreamID(1, 7), 0))
	d.Dispatch(del(wire.MustStreamID(2, 0), 0))
	if c.count() != 2 {
		t.Fatalf("delivered %d, want 2", c.count())
	}
}

func TestAllSubscription(t *testing.T) {
	d := New(Options{})
	c := &recorder{name: "c"}
	if _, err := d.Subscribe(c, All()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d.Dispatch(del(wire.MustStreamID(wire.SensorID(i), 0), 0))
	}
	if c.count() != 5 {
		t.Fatalf("delivered %d, want 5", c.count())
	}
}

func TestWhereSubscription(t *testing.T) {
	d := New(Options{})
	c := &recorder{name: "c"}
	// Subscribe to location streams only.
	_, err := d.Subscribe(c, Where(func(m wire.Message) bool {
		return m.Stream.Index() == wire.LocationStreamIndex
	}))
	if err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	d.Dispatch(del(wire.MustStreamID(1, wire.LocationStreamIndex), 0))
	if c.count() != 1 {
		t.Fatalf("delivered %d, want 1", c.count())
	}
}

func TestMutuallyUnawareConsumersBothReceive(t *testing.T) {
	d := New(Options{})
	a, b := &recorder{name: "a"}, &recorder{name: "b"}
	id := wire.MustStreamID(1, 0)
	if _, err := d.Subscribe(a, Exact(id)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe(b, Exact(id)); err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(id, 0))
	if a.count() != 1 || b.count() != 1 {
		t.Fatalf("a=%d b=%d, want 1 and 1", a.count(), b.count())
	}
}

func TestOverlappingSubscriptionsDeliverOnce(t *testing.T) {
	d := New(Options{})
	c := &recorder{name: "c"}
	id := wire.MustStreamID(1, 0)
	if _, err := d.Subscribe(c, Exact(id)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe(c, BySensor(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe(c, All()); err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(id, 0))
	if c.count() != 1 {
		t.Fatalf("delivered %d, want 1 (per-consumer dedup)", c.count())
	}
}

func TestOrphanRouting(t *testing.T) {
	d := New(Options{})
	var orphans []filtering.Delivery
	d.SetOrphanSink(func(dd filtering.Delivery) { orphans = append(orphans, dd) })
	c := &recorder{name: "c"}
	if _, err := d.Subscribe(c, Exact(wire.MustStreamID(1, 0))); err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(wire.MustStreamID(9, 9), 0)) // nobody subscribed
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	if len(orphans) != 1 || orphans[0].Msg.Stream != wire.MustStreamID(9, 9) {
		t.Fatalf("orphans = %v", orphans)
	}
	if st := d.Stats(); st.Orphaned != 1 {
		t.Fatalf("Orphaned = %d", st.Orphaned)
	}
}

func TestUnsubscribe(t *testing.T) {
	d := New(Options{})
	c := &recorder{name: "c"}
	id, err := d.Subscribe(c, All())
	if err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	if !d.Unsubscribe(id) {
		t.Fatal("Unsubscribe returned false")
	}
	if d.Unsubscribe(id) {
		t.Fatal("second Unsubscribe returned true")
	}
	d.Dispatch(del(wire.MustStreamID(1, 0), 1))
	if c.count() != 1 {
		t.Fatalf("delivered %d after unsubscribe, want 1", c.count())
	}
	if st := d.Stats(); st.Subscriptions != 0 || st.Consumers != 0 {
		t.Fatalf("stats after unsubscribe: %+v", st)
	}
}

func TestSubscribeValidation(t *testing.T) {
	d := New(Options{})
	if _, err := d.Subscribe(nil, All()); !errors.Is(err, ErrBadPattern) {
		t.Errorf("nil consumer err = %v", err)
	}
	c := &recorder{name: "c"}
	if _, err := d.Subscribe(c, Pattern{Kind: KindWhere}); !errors.Is(err, ErrBadPattern) {
		t.Errorf("nil predicate err = %v", err)
	}
	if _, err := d.Subscribe(c, Pattern{Kind: 99}); !errors.Is(err, ErrBadPattern) {
		t.Errorf("bad kind err = %v", err)
	}
}

func TestSubscribed(t *testing.T) {
	d := New(Options{})
	c := &recorder{name: "c"}
	exact, bySensor, byWhere := wire.MustStreamID(1, 0), wire.MustStreamID(2, 3), wire.MustStreamID(4, 1)
	unclaimed := wire.MustStreamID(5, 2)
	if _, err := d.Subscribe(c, Exact(exact)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe(c, BySensor(bySensor.Sensor())); err != nil {
		t.Fatal(err)
	}
	where, err := d.Subscribe(c, Where(func(m wire.Message) bool { return m.Stream == byWhere }))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []wire.StreamID{exact, bySensor, byWhere} {
		if !d.Subscribed(id) {
			t.Errorf("Subscribed(%v) = false", id)
		}
	}
	if d.Subscribed(unclaimed) {
		t.Errorf("Subscribed(%v) = true with no matching subscription", unclaimed)
	}
	d.Unsubscribe(where)
	if d.Subscribed(byWhere) {
		t.Errorf("Subscribed(%v) = true after its subscription went", byWhere)
	}
	if _, err := d.Subscribe(c, All()); err != nil {
		t.Fatal(err)
	}
	if !d.Subscribed(unclaimed) {
		t.Errorf("Subscribed(%v) = false under an All subscription", unclaimed)
	}
}

// Fan-out order compares ports of one dispatcher only, so each dispatcher
// numbers its own: a second dispatcher in the process starts from 1 too.
func TestPortSequenceIsPerDispatcher(t *testing.T) {
	first := func() uint64 {
		d := New(Options{})
		if _, err := d.Subscribe(&recorder{name: "c"}, All()); err != nil {
			t.Fatal(err)
		}
		for _, p := range d.ports {
			return p.seq
		}
		t.Fatal("no port")
		return 0
	}
	if a, b := first(), first(); a != b || a != 1 {
		t.Fatalf("first ports numbered %d and %d, want 1 and 1", a, b)
	}
}

func TestAsyncDelivery(t *testing.T) {
	d := New(Options{Mode: ModeAsync})
	c := &recorder{name: "c"}
	if _, err := d.Subscribe(c, All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	for i := 0; i < 100; i++ {
		d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(i)))
	}
	d.Stop() // drains queues
	if c.count() != 100 {
		t.Fatalf("delivered %d, want 100", c.count())
	}
}

func TestAsyncSubscribeAfterStart(t *testing.T) {
	d := New(Options{Mode: ModeAsync})
	d.Start()
	c := &recorder{name: "late"}
	if _, err := d.Subscribe(c, All()); err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	d.Stop()
	if c.count() != 1 {
		t.Fatalf("late subscriber got %d, want 1", c.count())
	}
}

func TestAsyncOverflowDropOldest(t *testing.T) {
	d := New(Options{Mode: ModeAsync, QueueCapacity: 4})
	block := make(chan struct{})
	var mu sync.Mutex
	var got []wire.Seq
	slow := &ConsumerFunc{ConsumerName: "slow", Fn: func(dd filtering.Delivery) {
		<-block
		mu.Lock()
		got = append(got, dd.Msg.Seq)
		mu.Unlock()
	}}
	if _, err := d.Subscribe(slow, All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	// Fill beyond capacity while the worker is blocked. The worker takes a
	// batch (DefaultBatchSize clamps to the capacity, 4) before it blocks on the
	// batch's first delivery, and the queue holds 4 more, so 8 can be in
	// hand with nothing dropped. Dispatch 16: at least 8 must be dropped
	// (oldest first) however the drainer's takes fall.
	const n = 16
	for i := 0; i < n; i++ {
		d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(i)))
	}
	close(block)
	d.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(got) > 8 {
		t.Fatalf("got %d of %d: more than a batch and a full queue survived", len(got), n)
	}
	// The newest delivery must survive.
	last := got[len(got)-1]
	if last != n-1 {
		t.Fatalf("newest delivery lost: last = %d, want %d", last, n-1)
	}
	if st := d.Stats(); st.Dropped < n-8 {
		t.Fatalf("Dropped = %d, want at least %d", st.Dropped, n-8)
	}
}

func TestSlowConsumerDoesNotStallOthers(t *testing.T) {
	d := New(Options{Mode: ModeAsync}) // default queue capacity: no overflow for 50 messages
	release := make(chan struct{})
	slow := &ConsumerFunc{ConsumerName: "slow", Fn: func(filtering.Delivery) { <-release }}
	fast := &recorder{name: "fast"}
	if _, err := d.Subscribe(slow, All()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe(fast, All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	for i := 0; i < 50; i++ {
		d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(i)))
	}
	// The fast consumer must see all 50 promptly despite the slow one.
	deadline := time.Now().Add(5 * time.Second)
	for fast.count() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fast.count() != 50 {
		t.Fatalf("fast consumer got %d/50 while slow consumer blocked", fast.count())
	}
	close(release)
	d.Stop()
}

func TestDispatchAfterStopDropped(t *testing.T) {
	d := New(Options{Mode: ModeAsync})
	c := &recorder{name: "c"}
	if _, err := d.Subscribe(c, All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Stop()
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	if st := d.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	if _, err := d.Subscribe(c, All()); !errors.Is(err, ErrStopped) {
		t.Fatalf("Subscribe after Stop err = %v", err)
	}
}

func TestStatsDeliveredCount(t *testing.T) {
	d := New(Options{})
	a, b := &recorder{name: "a"}, &recorder{name: "b"}
	if _, err := d.Subscribe(a, All()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe(b, All()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(i)))
	}
	st := d.Stats()
	if st.Dispatched != 3 || st.Delivered != 6 {
		t.Fatalf("Dispatched=%d Delivered=%d, want 3/6", st.Dispatched, st.Delivered)
	}
}

func TestSyncFanoutDeterministicOrder(t *testing.T) {
	d := New(Options{})
	var order []string
	mk := func(name string) Consumer {
		return &ConsumerFunc{ConsumerName: name, Fn: func(filtering.Delivery) { order = append(order, name) }}
	}
	for _, name := range []string{"first", "second", "third"} {
		if _, err := d.Subscribe(mk(name), All()); err != nil {
			t.Fatal(err)
		}
	}
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("fan-out order = %v, want subscription order", order)
	}
}

// TestSerialDispatchZeroAllocs pins that a warm serial Dispatch allocates
// nothing: the fan-out set is pooled scratch, merged from the
// subscription lists without a sort. The window includes the async
// drainers.
func TestSerialDispatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	stream := wire.MustStreamID(1, 0)
	sink := func(name string) Consumer {
		return &BatchConsumerFunc{ConsumerName: name, Fn: func([]filtering.Delivery) {}}
	}
	for _, tc := range []struct {
		name      string
		subscribe func(t *testing.T, d *Dispatcher)
	}{
		{"one All consumer", func(t *testing.T, d *Dispatcher) {
			if _, err := d.Subscribe(sink("all"), All()); err != nil {
				t.Fatal(err)
			}
		}},
		{"Exact+BySensor+Where mix", func(t *testing.T, d *Dispatcher) {
			both := sink("both") // matched twice: compacted to one delivery
			for c, p := range map[Consumer]Pattern{
				sink("exact"):  Exact(stream),
				sink("sensor"): BySensor(stream.Sensor()),
				sink("where"):  Where(func(m wire.Message) bool { return m.Stream == stream }),
				both:           Exact(stream),
			} {
				if _, err := d.Subscribe(c, p); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := d.Subscribe(both, BySensor(stream.Sensor())); err != nil {
				t.Fatal(err)
			}
		}},
		{"one consumer matched thrice, a Where ahead of it", func(t *testing.T, d *Dispatcher) {
			// The Where port is created first, so its match is inserted
			// ahead of the merged Exact+BySensor+All entry.
			if _, err := d.Subscribe(sink("where"), Where(func(m wire.Message) bool { return m.Stream == stream })); err != nil {
				t.Fatal(err)
			}
			thrice := sink("thrice")
			for _, p := range []Pattern{Exact(stream), BySensor(stream.Sensor()), All()} {
				if _, err := d.Subscribe(thrice, p); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(Options{Mode: ModeAsync, QueueCapacity: 1024})
			tc.subscribe(t, d)
			d.Start()
			defer d.Stop()
			msg := del(stream, 0)
			allocs := testing.AllocsPerRun(5000, func() { d.Dispatch(msg) })
			if allocs != 0 {
				t.Fatalf("serial Dispatch: %.2f allocs/op, want 0", allocs)
			}
			if st := d.Stats(); st.Delivered == 0 || st.Orphaned != 0 {
				t.Fatalf("nothing was delivered: %+v", st)
			}
		})
	}
}
