package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// The storms below drive whole deployments through hostile regimes —
// replay racing live publishing, async fan-out, cohort churn, a radio
// partition — and then demand exact identities: every counter reconciles,
// every plane drains to empty, and each consumer sees its stream in order.
// The three replay storms publish and consume on real goroutines, so CI
// repeats every storm under -race at several GOMAXPROCS values.

// orderChecker is the consumer of the concurrent storms. Each instance
// watches exactly one stream, so the StoreSeq it sees must strictly ascend
// however replay, the catch-up gate and the delivery ring interleave: a
// duplicate or an inversion is an ordering violation.
type orderChecker struct {
	name string

	mu         sync.Mutex
	got        int
	last       uint64
	violations int
}

func (c *orderChecker) Name() string { return c.name }
func (c *orderChecker) Consume(d filtering.Delivery) {
	c.mu.Lock()
	if d.StoreSeq <= c.last {
		c.violations++
	}
	c.last = d.StoreSeq
	c.got++
	c.mu.Unlock()
}

// awaitPast returns once a delivery past store sequence seq has arrived: a
// joiner that waits past the stream's head at join time plus a live tail
// has crossed from replayed history into live data. It fails t if none
// arrives within a minute.
func (c *orderChecker) awaitPast(t *testing.T, seq uint64) {
	deadline := time.Now().Add(time.Minute)
	for {
		c.mu.Lock()
		last := c.last
		c.mu.Unlock()
		if last > seq {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: nothing past store seq %d (last %d)", c.name, seq, last)
			return
		}
		runtime.Gosched()
	}
}

// checkOrder fails t for every consumer that saw a duplicate or an
// inversion and returns what they received in all. Call it after
// Deployment.Stop, when every port has drained.
func checkOrder(t *testing.T, consumers []*orderChecker) (got int) {
	t.Helper()
	for _, c := range consumers {
		c.mu.Lock()
		got += c.got
		if c.violations > 0 {
			t.Errorf("%s: %d duplicates or inversions", c.name, c.violations)
		}
		c.mu.Unlock()
	}
	return got
}

// stormPublish hands d one message the way a receiver does, through the
// full receive pipeline: encode → borrowed decode → filter → store tee →
// async dispatch.
func stormPublish(d *Deployment, stream wire.StreamID, seq int) {
	var msg wire.Message
	out := wire.Message{Stream: stream, Seq: wire.Seq(seq), Payload: []byte("reading")}
	frame, err := out.Encode()
	if err != nil {
		panic(err)
	}
	if _, err := wire.DecodeMessageBorrowed(frame, &msg); err != nil {
		panic(err)
	}
	d.InjectReception(receiver.Reception{
		Msg: msg, Receiver: "rx-storm", RSSI: 1, At: epoch, Borrowed: true,
	})
}

func stormStreams(n int) []wire.StreamID {
	streams := make([]wire.StreamID, n)
	for i := range streams {
		streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
	}
	return streams
}

// publishers runs one publisher per stream, writing sequences from `from`
// on for as long as more allows, and returns a func that waits them out.
func publishers(d *Deployment, streams []wire.StreamID, from int, more func(seq int) bool) (wait func()) {
	var wg sync.WaitGroup
	for _, stream := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := from; more(seq); seq++ {
				stormPublish(d, stream, seq)
			}
		}()
	}
	return wg.Wait
}

// joinStorm builds a backlog of n messages per stream, keeps publishers
// writing, and joins one consumer per stream round-robin with
// SubscribeWithReplay from the start of history. join runs on each
// joiner's goroutine with its replay count and the stream's head at join
// time, and returns once the joiner may leave; the publishers stop when
// every joiner has.
func joinStorm(t *testing.T, d *Deployment, streams []wire.StreamID, n, joiners int, join func(c *orderChecker, replayed int, head uint64)) []*orderChecker {
	for _, stream := range streams {
		for seq := 0; seq < n; seq++ {
			stormPublish(d, stream, seq)
		}
	}
	var stop atomic.Bool
	wait := publishers(d, streams, n, func(int) bool { return !stop.Load() })
	consumers := make([]*orderChecker, joiners)
	var wg sync.WaitGroup
	for j := range consumers {
		c := &orderChecker{name: fmt.Sprintf("late-%d", j)}
		consumers[j] = c
		wg.Add(1)
		go func(stream wire.StreamID) {
			defer wg.Done()
			head, _ := d.Store().LastSeq(stream)
			_, replayed, err := d.SubscribeWithReplay(c, stream, 0)
			if err != nil {
				t.Error(err)
				return
			}
			join(c, replayed, head)
		}(streams[j%len(streams)])
	}
	wg.Wait()
	stop.Store(true)
	wait()
	return consumers
}

// TestLateJoinerStorm: consumers join mid-run with SubscribeWithReplay
// while publishers keep writing. Each must replay at least the warm-up
// backlog, cross into live data, and see its stream duplicate-free and in
// store order however the replay races live publishing.
func TestLateJoinerStorm(t *testing.T) {
	const backlog, retention = 200, 512
	d := New(Config{
		Secret:   []byte("late-joiners"),
		Dispatch: dispatch.Options{Mode: dispatch.ModeAsync, QueueCapacity: retention + backlog},
		Store:    store.Options{MaxMessages: retention},
	})
	d.Start()
	consumers := joinStorm(t, d, stormStreams(4), backlog, 4, func(c *orderChecker, replayed int, head uint64) {
		if replayed < backlog {
			t.Errorf("%s replayed %d, want at least the %d-message backlog", c.name, replayed, backlog)
		}
		c.awaitPast(t, head+backlog)
	})
	d.Stop()
	checkOrder(t, consumers)
}

// TestFanOutStorm: publishers push through the full receive pipeline into
// standing async consumers while late joiners replay mid-storm. Queues and
// retention both hold a whole stream, so nothing may be shed: every
// consumer, standing or late, ends with its stream's whole history,
// exactly once and in order.
func TestFanOutStorm(t *testing.T) {
	const standing, joiners, perStream, capacity = 4, 2, 500, 1024
	d := New(Config{
		Secret:   []byte("fan-out"),
		Dispatch: dispatch.Options{Mode: dispatch.ModeAsync, QueueCapacity: capacity},
		Store:    store.Options{MaxMessages: capacity},
	})
	streams := stormStreams(4)
	consumers := make([]*orderChecker, standing+joiners)
	for n := range standing {
		consumers[n] = &orderChecker{name: fmt.Sprintf("fan-%d", n)}
		if _, err := d.Dispatcher().Subscribe(consumers[n], dispatch.Exact(streams[n%len(streams)])); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()

	var published atomic.Int64
	wait := publishers(d, streams, 0, func(seq int) bool {
		published.Add(1)
		return seq < perStream
	})
	var wg sync.WaitGroup
	for j := range joiners {
		c := &orderChecker{name: fmt.Sprintf("late-%d", j)}
		consumers[standing+j] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for published.Load() < int64(len(streams)*perStream/4) {
				runtime.Gosched()
			}
			if _, _, err := d.SubscribeWithReplay(c, streams[j%len(streams)], 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wait()
	wg.Wait()
	d.Stop()
	if got, want := checkOrder(t, consumers), len(consumers)*perStream; got != want {
		t.Errorf("consumers received %d deliveries, want %d", got, want)
	}
}

// TestArchivedLateJoinerStorm pushes the late-joiner storm through the
// durable archive tier: every sealed block spills, so what the publishers
// write far past the in-memory window — nearly all the joiners replay —
// exists only in the archive. Their views must stay in order across the
// archive → sealed → hot → live hand-off, and a second deployment over the
// same backend must replay the same archived ranges after a restart.
func TestArchivedLateJoinerStorm(t *testing.T) {
	const backlog, window = 600, 32
	backend := archive.NewMem()
	cfg := Config{
		Secret:    []byte("archived-joiners"),
		Dispatch:  dispatch.Options{Mode: dispatch.ModeAsync, QueueCapacity: 2 * backlog},
		Orphanage: orphanage.Options{PerStreamCapacity: window},
		Store: store.Options{
			MaxMessages: window, Codec: "auto", BlockSize: 8, ColdBudget: 1, Archive: backend,
		},
	}
	d := New(cfg)
	d.Start()
	streams := stormStreams(4)
	var replayed atomic.Int64
	consumers := joinStorm(t, d, streams, backlog, 4, func(c *orderChecker, n int, head uint64) {
		replayed.Add(int64(n))
		c.awaitPast(t, head+window)
	})
	// Stop closes the store, so every pending spill is durable before the
	// archived ranges are read back.
	d.Stop()
	checkOrder(t, consumers)
	st := d.Store().Stats()
	if share := float64(st.ArchivedMessages) / float64(st.RetainedMessages+st.ArchivedMessages); share < 0.9 {
		t.Errorf("%.1f%% of history is archive-only, want ≥90%%", 100*share)
	}
	inMemory := st.RetainedMessages / int64(len(streams))
	if perJoiner := replayed.Load() / int64(len(consumers)); perJoiner < 10*inMemory {
		t.Errorf("joiners replayed %d each against an in-memory window of %d, want ≥10×", perJoiner, inMemory)
	}

	// Restart: a fresh deployment over the same backend recovers the
	// archive index and serves the same ranges to consumers that were
	// never alive when the data was.
	cfg.Secret = []byte("archived-joiners-restart")
	d2 := New(cfg)
	d2.Start()
	restarted := make([]*orderChecker, len(streams))
	want := 0
	for i, id := range streams {
		ss, ok := d.Store().StreamStats(id)
		if !ok || ss.ArchivedMessages == 0 {
			t.Fatalf("stream %v has no archived history", id)
		}
		if first, ok := d2.Store().FirstSeq(id); !ok || first != ss.FirstSeq {
			t.Errorf("restart serves stream %v from %d (ok=%v), want %d", id, first, ok, ss.FirstSeq)
		}
		restarted[i] = &orderChecker{name: fmt.Sprintf("restart-%v", id)}
		_, n, err := d2.SubscribeWithReplay(restarted[i], id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n != int(ss.ArchivedMessages) {
			t.Errorf("restart replayed %d for stream %v, want the %d archived", n, id, ss.ArchivedMessages)
		}
		want += int(ss.ArchivedMessages)
	}
	d2.Stop()
	if got := checkOrder(t, restarted); got != want {
		t.Errorf("restarted consumers received %d of the %d archived messages", got, want)
	}
}

// TestChurnStorm: rounds of fresh sensor cohorts emit in-order runs, held
// reorder gaps (some filled late, some left to the timer) and duplicates,
// are briefly subscribed, and are then forgotten by every plane. Churn
// must leave no residue: no armed timers, no retained history in the
// store, no held orphans, no live subscriptions. The store runs its whole
// tier stack — compression, sealing and a durable archive —
// so Forget must reclaim archived blocks too, and both the screen's and
// the store's conservation identities hold exactly. Forget keeps each
// stream's duplicate window, as it keeps the unwrap state: what is left
// per stream is the record, and every forgotten stream is still one.
func TestChurnStorm(t *testing.T) {
	const cohort, rounds = 300, 4
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{
		Clock:     clock,
		Secret:    []byte("churn"),
		Filter:    filtering.Options{ReorderWindow: 50 * time.Millisecond},
		Orphanage: orphanage.Options{PerStreamCapacity: 4},
		Store: store.Options{
			MaxMessages: 4, Codec: "auto", BlockSize: 2, ColdBudget: 1,
			Archive: archive.NewMem(),
		},
	})
	d.Start()

	var ids []wire.StreamID
	for round := range rounds {
		// A quarter of the cohort is subscribed for the round; the rest
		// orphan.
		sink := &dispatch.ConsumerFunc{ConsumerName: fmt.Sprintf("churn-%d", round), Fn: func(filtering.Delivery) {}}
		var subs []dispatch.SubscriptionID
		for i := 0; i < cohort; i += 4 {
			sub, err := d.Dispatcher().Subscribe(sink, dispatch.BySensor(wire.SensorID(round*cohort+i+1)))
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		for i := range cohort {
			id := wire.MustStreamID(wire.SensorID(round*cohort+i+1), 0)
			ids = append(ids, id)
			inject := func(seq wire.Seq) {
				d.InjectReception(receiver.Reception{
					Msg:      wire.Message{Stream: id, Seq: seq, Payload: []byte{byte(seq)}},
					Receiver: "rx-churn", RSSI: 0.5, At: clock.Now(),
				})
			}
			// An in-order run, a gap that holds 4..5 in the reorder
			// backlog, a late fill on two streams of three (the third
			// leaves its gap to the timer), a duplicate, then a second
			// burst that seals and spills a block mid-churn.
			for _, seq := range []wire.Seq{1, 2, 4, 5} {
				inject(seq)
			}
			if i%3 != 0 {
				inject(3)
			}
			for _, seq := range []wire.Seq{6, 2, 7, 8, 9, 10} {
				inject(seq)
			}
		}
		// Let the reorder timers of the unfilled gaps fire.
		clock.Advance(100 * time.Millisecond)
		for _, sub := range subs {
			d.Dispatcher().Unsubscribe(sub)
		}
	}

	// Churn must have reached the archive for the reclamation to mean
	// anything; the archivers are asynchronous, so let them commit first.
	for d.Store().Stats().ArchivePendingBlocks > 0 {
		runtime.Gosched()
	}
	if st := d.Store().Stats(); st.ArchivedMessages == 0 {
		t.Fatalf("churn never reached the archive tier: %+v", st)
	}

	// Tear down: drain the reorder backlogs, sweep the orphanage (which
	// forgets its streams in the store), then forget every stream in the
	// store — hot window, sealed blocks and archive alike.
	d.Store().Flush()
	d.Orphanage().EvictBefore(clock.Now().Add(time.Hour))
	for _, id := range ids {
		d.Store().Forget(id)
	}
	d.Stop()

	fs := d.Stats().Filter
	// Ten messages a stream, less the unfilled gap on every third.
	if want := int64(rounds * (10*cohort - (cohort+2)/3)); fs.Delivered != want {
		t.Errorf("filter delivered %d, want %d", fs.Delivered, want)
	}
	if e := fs.Received - fs.Delivered - fs.Duplicates - fs.Stale; e != 0 {
		t.Errorf("filter identity off by %d: %+v", e, fs)
	}
	ss := d.Store().Stats()
	if e := (ss.RetainedMessages + ss.ArchivedMessages - ss.ArchiveRecovered) -
		(ss.Appended - ss.Duplicates - ss.DroppedBehind -
			ss.EvictedCount - ss.EvictedBytes - ss.EvictedAge - ss.EvictedCold -
			ss.EvictedArchive - ss.ArchiveFailed - ss.Forgotten); e != 0 {
		t.Errorf("store identity off by %d: %+v", e, ss)
	}
	if ss.RetainedMessages != 0 || ss.ArchivedMessages != 0 {
		t.Errorf("Forget left %d retained and %d archived messages", ss.RetainedMessages, ss.ArchivedMessages)
	}
	if n := clock.Pending(); n != 0 {
		t.Errorf("%d timers still armed", n)
	}
	if fs.ActiveStreams != len(ids) || ss.Streams != 0 {
		t.Errorf("streams left: screened %d (want the %d windows Forget keeps), store %d", fs.ActiveStreams, len(ids), ss.Streams)
	}
	if n := d.Orphanage().Stats().StreamsHeld; n != 0 {
		t.Errorf("orphanage still holds %d streams", n)
	}
	if n := d.Dispatcher().Stats().Subscriptions; n != 0 {
		t.Errorf("%d subscriptions left", n)
	}
}

// TestRadioPartitionStorm: the only receiver goes deaf twice while sensors
// keep transmitting, then a late joiner replays one stream. Every message
// lost to the partitions must surface as a sequence gap (sent == delivered
// + unrecovered gaps), no consumer may see a duplicate or an inversion,
// and the replay must come back in store order.
func TestRadioPartitionStorm(t *testing.T) {
	const sensors, partition = 12, 500 * time.Millisecond
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{Clock: clock, Secret: []byte("partition")})
	rx := d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 150})
	var nodes []*sensor.Node
	for i := range sensors {
		n, err := d.AddSensor(sensor.Config{
			ID:       wire.SensorID(i + 1),
			Mobility: field.Static{P: geo.Pt(10+float64(i)*10, 0)},
			TxRange:  200,
			Streams: []sensor.StreamConfig{{
				Index: 0, Sampler: sensor.SizedSampler(8), Period: 100 * time.Millisecond, Enabled: true,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}

	lastSeq := map[wire.StreamID]wire.Seq{}
	sink := &dispatch.ConsumerFunc{ConsumerName: "partition-sink", Fn: func(del filtering.Delivery) {
		if prev, ok := lastSeq[del.Msg.Stream]; ok && prev.Distance(del.Msg.Seq) <= 0 {
			t.Errorf("stream %v: seq %d after %d", del.Msg.Stream, del.Msg.Seq, prev)
		}
		lastSeq[del.Msg.Stream] = del.Msg.Seq
	}}
	if _, err := d.Dispatcher().Subscribe(sink, dispatch.All()); err != nil {
		t.Fatal(err)
	}
	// Partitions start off the sampling grid, so a stop never ties with a
	// transmission, and the run ends with the receiver up: every loss sits
	// between heard messages and must appear in the gap accounting.
	for _, at := range []time.Duration{3*time.Second + 33*time.Millisecond, 7*time.Second + 33*time.Millisecond} {
		clock.ScheduleFunc(at, rx.Stop)
		clock.ScheduleFunc(at+partition, rx.Start)
	}
	d.Start()
	clock.RunUntil(epoch.Add(12 * time.Second))

	var mu sync.Mutex
	var replay []uint64
	joiner := &dispatch.ConsumerFunc{ConsumerName: "late-joiner", Fn: func(del filtering.Delivery) {
		mu.Lock()
		replay = append(replay, del.StoreSeq)
		mu.Unlock()
	}}
	if _, n, err := d.SubscribeWithReplay(joiner, wire.MustStreamID(1, 0), 0); err != nil {
		t.Fatal(err)
	} else if n == 0 {
		t.Fatal("late joiner replayed nothing")
	}
	d.Stop()

	var sent int64
	for _, n := range nodes {
		sent += n.Stats().MessagesSent
	}
	fs := d.Stats().Filter
	if fs.Gaps == 0 {
		t.Error("the partitions lost nothing")
	}
	if e := sent - fs.Delivered - (fs.Gaps - fs.GapsRecovered); e != 0 {
		t.Errorf("sent %d − delivered %d − unrecovered gaps %d = %d, want 0", sent, fs.Delivered, fs.Gaps-fs.GapsRecovered, e)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(replay); i++ {
		if replay[i] <= replay[i-1] {
			t.Errorf("replay out of store order at %d: %d after %d", i, replay[i], replay[i-1])
		}
	}
}
