package dispatch

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestShardIndexInRange pins the multiply-shift hash to its contract:
// every sensor id maps into [0, n) for every shard count.
func TestShardIndexInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 17, 100} {
		for _, id := range []wire.SensorID{0, 1, 2, 255, 1 << 20, wire.MaxSensorID} {
			got := id.Shard(n)
			if got < 0 || got >= n {
				t.Fatalf("SensorID(%d).Shard(%d) = %d, out of range", id, n, got)
			}
		}
	}
}

// TestShardSpread guards against a degenerate hash: 1024 sequential
// sensor ids across 16 shards must not pile into a few shards.
func TestShardSpread(t *testing.T) {
	const n = 16
	var hist [n]int
	for id := wire.SensorID(0); id < 1024; id++ {
		hist[id.Shard(n)]++
	}
	for i, c := range hist {
		if c == 0 {
			t.Fatalf("shard %d got no sensors out of 1024", i)
		}
		if c > 1024/n*3 {
			t.Fatalf("shard %d got %d of 1024 sensors (degenerate spread: %v)", i, c, hist)
		}
	}
}

// TestSingleShardEquivalence runs the sync suite's core expectations at
// Shards: 1 (the historical single-table configuration).
func TestSingleShardEquivalence(t *testing.T) {
	d := New(Options{Shards: 1})
	a, b := &recorder{name: "a"}, &recorder{name: "b"}
	if _, err := d.Subscribe(a, Exact(wire.MustStreamID(1, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe(b, All()); err != nil {
		t.Fatal(err)
	}
	d.Dispatch(del(wire.MustStreamID(1, 0), 0))
	d.Dispatch(del(wire.MustStreamID(2, 0), 0))
	if a.count() != 1 || b.count() != 2 {
		t.Fatalf("a=%d b=%d, want 1 and 2", a.count(), b.count())
	}
	if st := d.Stats(); st.Shards != 1 {
		t.Fatalf("Shards = %d, want 1", st.Shards)
	}
}

// TestConcurrentSubscribeUnsubscribePublish is the -race stress test:
// publishers hammer streams across every shard while other goroutines
// churn subscriptions (exact, by-sensor and wildcard) on the same
// dispatcher. Invariants: no data race, and the counter identity
// dispatched == delivered-causing + orphaned holds for a quiesced
// synchronous dispatcher.
func TestConcurrentSubscribeUnsubscribePublish(t *testing.T) {
	const (
		sensors    = 64
		publishers = 8
		churners   = 4
		msgsPer    = 500
	)
	d := New(Options{Shards: 8})
	keep := &recorder{name: "keep"} // one stable wildcard consumer
	if _, err := d.Subscribe(keep, All()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < msgsPer; i++ {
				sensor := wire.SensorID(i%sensors + 1)
				d.Dispatch(del(wire.MustStreamID(sensor, wire.StreamIndex(g)), wire.Seq(i)))
			}
		}(g)
	}
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			c := &recorder{name: fmt.Sprintf("churn-%d", g)}
			for i := 0; i < msgsPer; i++ {
				var pat Pattern
				switch i % 3 {
				case 0:
					pat = Exact(wire.MustStreamID(wire.SensorID(rng.Intn(sensors)+1), 0))
				case 1:
					pat = BySensor(wire.SensorID(rng.Intn(sensors) + 1))
				default:
					pat = Where(func(m wire.Message) bool { return m.Stream.Sensor()%2 == 0 })
				}
				id, err := d.Subscribe(c, pat)
				if err != nil {
					t.Error(err)
					return
				}
				if !d.Unsubscribe(id) {
					t.Error("Unsubscribe returned false for live id")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(publishers * msgsPer)
	st := d.Stats()
	if st.Dispatched != total {
		t.Fatalf("Dispatched = %d, want %d", st.Dispatched, total)
	}
	// The stable wildcard consumer saw every message.
	if keep.count() != int(total) {
		t.Fatalf("stable consumer got %d of %d", keep.count(), total)
	}
	if st.Orphaned != 0 {
		t.Fatalf("Orphaned = %d with an All() subscriber live", st.Orphaned)
	}
	if st.Subscriptions != 1 || st.Consumers != 1 {
		t.Fatalf("after churn: %d subs, %d consumers, want 1/1", st.Subscriptions, st.Consumers)
	}
}

// batchRecorder records deliveries and the size of each batch it got.
type batchRecorder struct {
	name    string
	mu      sync.Mutex
	got     []filtering.Delivery
	batches []int
}

func (r *batchRecorder) Name() string { return r.name }
func (r *batchRecorder) Consume(d filtering.Delivery) {
	r.ConsumeBatch([]filtering.Delivery{d})
}
func (r *batchRecorder) ConsumeBatch(ds []filtering.Delivery) {
	r.mu.Lock()
	r.got = append(r.got, ds...) // copies: the slice is reused by the drainer
	r.batches = append(r.batches, len(ds))
	r.mu.Unlock()
}
func (r *batchRecorder) seqs() []wire.Seq {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]wire.Seq, len(r.got))
	for i, d := range r.got {
		out[i] = d.Msg.Seq
	}
	return out
}

// TestBatchedDrainCoalesces verifies the drainer hands a BatchConsumer
// multi-delivery batches (bounded by DefaultBatchSize) once a backlog exists,
// in FIFO order.
func TestBatchedDrainCoalesces(t *testing.T) {
	const n = 200
	d := New(Options{Mode: ModeAsync, QueueCapacity: n})
	release := make(chan struct{})
	r := &batchRecorder{name: "batcher"}
	gate := &gatedBatchConsumer{inner: r, release: release}
	if _, err := d.Subscribe(gate, All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	for i := 0; i < n; i++ {
		d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(i)))
	}
	close(release) // let the drainer rip through the backlog
	d.Stop()

	seqs := r.seqs()
	if len(seqs) != n {
		t.Fatalf("delivered %d of %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != wire.Seq(i) {
			t.Fatalf("order broken at %d: got seq %d", i, s)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	maxBatch, coalesced := 0, false
	for _, b := range r.batches {
		if b > maxBatch {
			maxBatch = b
		}
		if b > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Fatalf("no batch larger than 1 despite a %d-message backlog (batches: %v)", n, r.batches)
	}
	if maxBatch > DefaultBatchSize {
		t.Fatalf("batch of %d exceeds DefaultBatchSize %d", maxBatch, DefaultBatchSize)
	}
}

// gatedBatchConsumer blocks the first batch until release is closed, so a
// backlog builds behind it.
type gatedBatchConsumer struct {
	inner   *batchRecorder
	release chan struct{}
	once    sync.Once
}

func (g *gatedBatchConsumer) Name() string { return g.inner.Name() }
func (g *gatedBatchConsumer) Consume(d filtering.Delivery) {
	g.ConsumeBatch([]filtering.Delivery{d})
}
func (g *gatedBatchConsumer) ConsumeBatch(ds []filtering.Delivery) {
	g.once.Do(func() { <-g.release })
	g.inner.ConsumeBatch(ds)
}

// TestBatchFallbackAdapter: a plain Consumer on a batching dispatcher
// still receives every delivery one Consume call at a time, in order.
func TestBatchFallbackAdapter(t *testing.T) {
	const n = 100
	d := New(Options{Mode: ModeAsync, QueueCapacity: n})
	c := &recorder{name: "plain"}
	if _, err := d.Subscribe(c, All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	for i := 0; i < n; i++ {
		d.Dispatch(del(wire.MustStreamID(1, 0), wire.Seq(i)))
	}
	d.Stop()
	if c.count() != n {
		t.Fatalf("delivered %d of %d", c.count(), n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, dd := range c.got {
		if dd.Msg.Seq != wire.Seq(i) {
			t.Fatalf("order broken at %d: got seq %d", i, dd.Msg.Seq)
		}
	}
}

// TestShardedBatchedMatchesSingleTableSync is the equivalence property
// test: the same randomised subscription set and publish sequence run
// through (a) the synchronous single-shard (historical single-table) path
// and (b) the sharded asynchronous batched path must produce the
// identical per-consumer delivery sequence. Queues are sized so nothing
// overflows; async consumers are independent drainers, so equality is
// per consumer, not global.
func TestShardedBatchedMatchesSingleTableSync(t *testing.T) {
	const (
		consumers = 12
		sensors   = 10
		msgs      = 2000
	)
	rng := rand.New(rand.NewSource(7))

	type plan struct {
		patterns [][]Pattern // per consumer
		streams  []wire.StreamID
		seqs     []wire.Seq
	}
	p := plan{patterns: make([][]Pattern, consumers)}
	for c := 0; c < consumers; c++ {
		nsubs := rng.Intn(3) + 1
		for s := 0; s < nsubs; s++ {
			switch rng.Intn(4) {
			case 0:
				p.patterns[c] = append(p.patterns[c],
					Exact(wire.MustStreamID(wire.SensorID(rng.Intn(sensors)+1), wire.StreamIndex(rng.Intn(2)))))
			case 1:
				p.patterns[c] = append(p.patterns[c], BySensor(wire.SensorID(rng.Intn(sensors)+1)))
			case 2:
				p.patterns[c] = append(p.patterns[c], All())
			default:
				k := wire.SensorID(rng.Intn(3))
				p.patterns[c] = append(p.patterns[c], Where(func(m wire.Message) bool {
					return m.Stream.Sensor()%3 == k
				}))
			}
		}
	}
	for i := 0; i < msgs; i++ {
		p.streams = append(p.streams,
			wire.MustStreamID(wire.SensorID(rng.Intn(sensors)+1), wire.StreamIndex(rng.Intn(2))))
		p.seqs = append(p.seqs, wire.Seq(i))
	}

	run := func(opts Options) [][]wire.Seq {
		d := New(opts)
		recs := make([]*batchRecorder, consumers)
		for c := 0; c < consumers; c++ {
			recs[c] = &batchRecorder{name: fmt.Sprintf("c%d", c)}
			for _, pat := range p.patterns[c] {
				if _, err := d.Subscribe(recs[c], pat); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Start()
		for i := range p.streams {
			d.Dispatch(del(p.streams[i], p.seqs[i]))
		}
		d.Stop()
		out := make([][]wire.Seq, consumers)
		for c := range recs {
			out[c] = recs[c].seqs()
		}
		return out
	}

	ref := run(Options{Mode: ModeSync, Shards: 1})
	got := run(Options{Mode: ModeAsync, Shards: 8, QueueCapacity: msgs})
	for c := range ref {
		if !reflect.DeepEqual(ref[c], got[c]) {
			t.Fatalf("consumer %d: sharded+batched sequence (%d msgs) diverges from sync single-table (%d msgs)",
				c, len(got[c]), len(ref[c]))
		}
	}
}

// TestDroppedByConsumerAccounting: overflow drops are attributed to the
// consumer that shed them, under either policy. A blocked consumer with a
// tiny queue must shed most of a burst and keep what it admits in FIFO
// order; a neighbour on the same dispatcher that keeps up, and a roomy
// consumer, must shed nothing; the per-consumer breakdown must sum to the
// total and conserve deliveries per consumer.
func TestDroppedByConsumerAccounting(t *testing.T) {
	const n = 50
	for _, tc := range []struct {
		name     string
		overflow overflowPolicy
	}{{"DropOldest", dropOldest}, {"DropNewest", dropNewest}} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(Options{Mode: ModeAsync, QueueCapacity: 2, overflow: tc.overflow})
			block := make(chan struct{})
			slow := &recorder{name: "slow"}
			slowFn := &ConsumerFunc{ConsumerName: "slow", Fn: func(dd filtering.Delivery) {
				<-block
				slow.Consume(dd)
			}}
			fast := &recorder{name: "fast"}
			// The roomy consumer absorbs the whole burst in one ConsumeBatch-able
			// queue: gate the first delivery so the publisher finishes first, with
			// capacity for everything — it must record zero drops.
			roomyGate := make(chan struct{})
			var roomyGot atomic.Int64
			roomy := &ConsumerFunc{ConsumerName: "roomy", Fn: func(filtering.Delivery) {
				<-roomyGate
				roomyGot.Add(1)
			}}
			if _, err := d.Subscribe(slowFn, All()); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Subscribe(fast, All()); err != nil {
				t.Fatal(err)
			}
			rd := New(Options{Mode: ModeAsync, QueueCapacity: n + 1})
			if _, err := rd.Subscribe(roomy, All()); err != nil {
				t.Fatal(err)
			}
			d.Start()
			rd.Start()
			deadline := time.Now().Add(10 * time.Second)
			for i := 0; i < n; i++ {
				dd := del(wire.MustStreamID(1, 0), wire.Seq(i))
				d.Dispatch(dd)
				rd.Dispatch(dd)
				// Keep pace with the neighbour, so only the blocked queue sheds.
				for fast.count() <= i && time.Now().Before(deadline) {
					runtime.Gosched()
				}
			}
			close(block)
			close(roomyGate)
			d.Stop()
			rd.Stop()

			st, rst := d.Stats(), rd.Stats()
			if st.Dropped == 0 {
				t.Fatal("expected overflow drops from the slow consumer")
			}
			if got := st.DroppedByConsumer["slow"]; got != st.Dropped {
				t.Fatalf("DroppedByConsumer[slow] = %d, want all %d drops", got, st.Dropped)
			}
			if rst.Dropped != 0 || rst.DroppedByConsumer["roomy"] != 0 {
				t.Fatalf("roomy consumer dropped: %d (by-consumer %v)", rst.Dropped, rst.DroppedByConsumer)
			}
			// Conservation per consumer: admitted + dropped == dispatched.
			if admitted := int64(slow.count()); admitted+st.Dropped != n {
				t.Fatalf("slow consumer: admitted %d + dropped %d != %d dispatched", admitted, st.Dropped, n)
			}
			if fast.count() != n || roomyGot.Load() != n {
				t.Fatalf("neighbour got %d and roomy consumer %d of %d", fast.count(), roomyGot.Load(), n)
			}
			for _, r := range []*recorder{slow, fast} {
				for i := 1; i < len(r.got); i++ {
					if r.got[i].Msg.Seq <= r.got[i-1].Msg.Seq {
						t.Fatalf("%s received seq %d after %d", r.name, r.got[i].Msg.Seq, r.got[i-1].Msg.Seq)
					}
				}
			}
		})
	}
}
