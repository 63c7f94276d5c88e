package dispatch

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// closeOnConsume records deliveries and closes its own port from inside
// the first Consume call, then diverts one more delivery into the gate —
// the shape of an Unsubscribe racing a sync held-batch flush.
type closeOnConsume struct {
	p      *port
	stream wire.StreamID
	rec    seqRecorder
	once   sync.Once
}

func (c *closeOnConsume) Name() string { return "close-on-consume" }
func (c *closeOnConsume) Consume(d filtering.Delivery) {
	c.rec.Consume(d)
	c.once.Do(func() {
		c.p.close()
		c.p.tryHold(filtering.Delivery{Msg: wire.Message{Stream: c.stream}, StoreSeq: 51})
	})
}

// seqRecorder records the StoreSeq of every delivery it consumes.
type seqRecorder struct {
	mu   sync.Mutex
	seqs []uint64
}

func (r *seqRecorder) Name() string { return "seq-recorder" }
func (r *seqRecorder) Consume(d filtering.Delivery) {
	r.mu.Lock()
	r.seqs = append(r.seqs, d.StoreSeq)
	r.mu.Unlock()
}
func (r *seqRecorder) snapshot() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.seqs...)
}

// TestSubscribeWithReplayOrderingUnderAsync is the regression test for
// the historical SubscribeWithBacklog race: in async mode the backlog was
// replayed via direct Consume while the port drainer concurrently
// delivered live messages, so replayed and live deliveries could
// interleave out of order. With the catch-up gate, every delivery the
// consumer sees must be in strictly ascending store-sequence order with
// no duplicates, no matter how the replay races live publishing. Run
// under -race in CI.
func TestSubscribeWithReplayOrderingUnderAsync(t *testing.T) {
	const backlog = 200
	const live = 2000

	st := store.New(store.Options{MaxMessages: backlog + live})
	d := New(Options{Mode: ModeAsync, QueueCapacity: backlog + live + 16})
	d.Start()
	stream := wire.MustStreamID(7, 0)

	publish := func(seq int) {
		del := filtering.Delivery{
			Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)},
			At:  time.Unix(int64(seq), 0),
		}
		del.StoreSeq = st.Append(del) // the core deployment's store tee
		d.Dispatch(del)
	}

	for seq := 0; seq < backlog; seq++ {
		publish(seq)
	}

	// Publisher keeps writing while the late joiner subscribes with
	// replay — the window where the old implementation interleaved.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := backlog; seq < backlog+live; seq++ {
			publish(seq)
		}
	}()

	rec := &seqRecorder{}
	from, _ := st.FirstSeq(stream)
	_, replayed, err := d.SubscribeWithReplay(rec, stream, func() []filtering.Delivery {
		return st.Range(stream, from, ^uint64(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed < backlog {
		t.Fatalf("replayed %d, want at least the %d-message backlog", replayed, backlog)
	}
	<-done
	d.Stop() // drains the port

	seqs := rec.snapshot()
	if len(seqs) == 0 {
		t.Fatal("consumer saw nothing")
	}
	seen := make(map[uint64]bool, len(seqs))
	for i, s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate delivery of store seq %d (position %d)", s, i)
		}
		seen[s] = true
		if i > 0 && s <= seqs[i-1] {
			t.Fatalf("ordering inverted at position %d: %d after %d", i, s, seqs[i-1])
		}
	}
	// Nothing was lost either: the queue was sized for the whole run, so
	// the consumer must have seen every message exactly once.
	if len(seqs) != backlog+live {
		t.Fatalf("consumer saw %d messages, want %d", len(seqs), backlog+live)
	}
}

// TestSubscribeWithReplaySyncMode pins the synchronous path: replay goes
// ahead of live, the held live deliveries flush behind it, and later
// dispatches reach the consumer directly.
func TestSubscribeWithReplaySyncMode(t *testing.T) {
	st := store.New(store.Options{})
	d := New(Options{})
	stream := wire.MustStreamID(3, 1)
	for seq := 0; seq < 5; seq++ {
		del := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)}}
		del.StoreSeq = st.Append(del)
	}
	rec := &seqRecorder{}
	_, replayed, err := d.SubscribeWithReplay(rec, stream, func() []filtering.Delivery {
		return st.Range(stream, 0, ^uint64(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 5 {
		t.Fatalf("replayed = %d, want 5", replayed)
	}
	del := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: 5}}
	del.StoreSeq = st.Append(del)
	d.Dispatch(del)
	seqs := rec.snapshot()
	if len(seqs) != 6 {
		t.Fatalf("saw %d deliveries, want 6", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("ordering broken: %v", seqs)
		}
	}
}

// TestSubscribeWithReplayDedupesClaimBoundary pins the seq dedupe: a live
// delivery that raced into the gate but was already part of the replay
// batch is dropped, not delivered twice.
func TestSubscribeWithReplayDedupesClaimBoundary(t *testing.T) {
	st := store.New(store.Options{})
	d := New(Options{Mode: ModeAsync, QueueCapacity: 64})
	d.Start()
	stream := wire.MustStreamID(9, 0)
	var inFlight filtering.Delivery
	for seq := 0; seq < 3; seq++ {
		del := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)}}
		del.StoreSeq = st.Append(del)
		inFlight = del
	}
	rec := &seqRecorder{}
	_, _, err := d.SubscribeWithReplay(rec, stream, func() []filtering.Delivery {
		// While the fetch is running the in-flight copy of the newest
		// stored message arrives at the gate — the exact claim-boundary
		// race the dedupe exists for.
		d.Dispatch(inFlight)
		return st.Range(stream, 0, ^uint64(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Stop()
	seqs := rec.snapshot()
	if len(seqs) != 3 {
		t.Fatalf("saw %v, want exactly the 3 stored messages once each", seqs)
	}
}

// TestReplayFloorScreensPostGateDuplicates pins the tail of the
// claim-boundary race: a delivery teed into the store before the replay
// fetch but dispatched only after the catch-up gate closed (publisher
// preempted between store append and Dispatch) must be screened out by
// the port's replay floor, in both delivery modes — it was already part
// of the replay batch.
func TestReplayFloorScreensPostGateDuplicates(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		st := store.New(store.Options{})
		d := New(Options{Mode: mode, QueueCapacity: 64})
		d.Start()
		stream := wire.MustStreamID(4, 0)
		var inFlight filtering.Delivery
		for seq := 0; seq < 3; seq++ {
			del := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)}}
			del.StoreSeq = st.Append(del)
			inFlight = del // appended, not yet dispatched
		}
		rec := &seqRecorder{}
		if _, _, err := d.SubscribeWithReplay(rec, stream, func() []filtering.Delivery {
			return st.Range(stream, 0, ^uint64(0))
		}); err != nil {
			t.Fatal(err)
		}
		// The gate is closed now; the stale in-flight copy arrives late.
		d.Dispatch(inFlight)
		// Fresh data still flows.
		fresh := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: 3}}
		fresh.StoreSeq = st.Append(fresh)
		d.Dispatch(fresh)
		d.Stop()
		seqs := rec.snapshot()
		if len(seqs) != 4 {
			t.Fatalf("mode %v: saw %v, want the 3 replayed + 1 fresh exactly once", mode, seqs)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("mode %v: ordering broken: %v", mode, seqs)
			}
		}
	}
}

// TestReplayLargerThanQueueCapacity pins the catch-up burst behaviour: a
// replay batch bigger than the consumer's queue capacity must not evict
// itself while being placed — the ring grows for the burst and drains
// back under the bound.
func TestReplayLargerThanQueueCapacity(t *testing.T) {
	const retained = 100
	st := store.New(store.Options{MaxMessages: retained})
	d := New(Options{Mode: ModeAsync, QueueCapacity: 8})
	d.Start()
	stream := wire.MustStreamID(5, 0)
	for seq := 0; seq < retained; seq++ {
		del := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)}}
		del.StoreSeq = st.Append(del)
	}
	rec := &seqRecorder{}
	_, replayed, err := d.SubscribeWithReplay(rec, stream, func() []filtering.Delivery {
		return st.Range(stream, 0, ^uint64(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed != retained {
		t.Fatalf("replayed = %d, want %d", replayed, retained)
	}
	d.Stop()
	if seqs := rec.snapshot(); len(seqs) != retained {
		t.Fatalf("consumer saw %d of %d replayed messages (batch evicted itself)", len(seqs), retained)
	}
	if dropped := d.Stats().Dropped; dropped != 0 {
		t.Fatalf("catch-up burst recorded %d drops", dropped)
	}
}

// TestNestedCatchUpGatesDoNotFlushEarly reproduces the overlapping
// catch-up bug: with two SubscribeWithReplay calls on the same consumer
// in flight (gateCount 2), the first endGate must NOT flush the held
// backlog — a live delivery for the second stream would otherwise go out
// before that stream's replay batch, then be re-delivered by it.
func TestNestedCatchUpGatesDoNotFlushEarly(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		st := store.New(store.Options{})
		d := New(Options{Mode: mode, QueueCapacity: 64})
		d.Start()
		a, b := wire.MustStreamID(1, 0), wire.MustStreamID(2, 0)
		app := func(stream wire.StreamID, seq int) filtering.Delivery {
			del := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)}}
			del.StoreSeq = st.Append(del)
			return del
		}
		for seq := 0; seq < 3; seq++ {
			app(a, seq)
		}
		// B starts at a different wire seq so its extended sequences are
		// disjoint from A's and the recorder can attribute them.
		var bLive filtering.Delivery
		for seq := 100; seq < 103; seq++ {
			bLive = app(b, seq)
		}
		rec := &seqRecorder{}
		// B's fetch races: a live copy of B's newest message arrives at
		// the gate, and a whole nested catch-up for A runs start to
		// finish, before B's replay batch is returned.
		if _, _, err := d.SubscribeWithReplay(rec, b, func() []filtering.Delivery {
			d.Dispatch(bLive)
			if _, _, err := d.SubscribeWithReplay(rec, a, func() []filtering.Delivery {
				return st.Range(a, 0, ^uint64(0))
			}); err != nil {
				t.Fatal(err)
			}
			return st.Range(b, 0, ^uint64(0))
		}); err != nil {
			t.Fatal(err)
		}
		d.Stop()
		seqs := rec.snapshot()
		if len(seqs) != 6 {
			t.Fatalf("mode %v: saw %v, want each of the 6 stored messages exactly once", mode, seqs)
		}
		perStream := map[uint64]bool{}
		var lastA, lastB uint64
		for _, s := range seqs {
			if perStream[s] {
				t.Fatalf("mode %v: duplicate %d in %v", mode, s, seqs)
			}
			perStream[s] = true
		}
		// Per-stream order must be ascending (streams may interleave).
		stA, _ := st.FirstSeq(a)
		for _, s := range seqs {
			if s >= stA && s < stA+3 {
				if s <= lastA && lastA != 0 {
					t.Fatalf("mode %v: stream A inverted in %v", mode, seqs)
				}
				lastA = s
			} else {
				if s <= lastB && lastB != 0 {
					t.Fatalf("mode %v: stream B inverted in %v", mode, seqs)
				}
				lastB = s
			}
		}
	}
}

// TestReplayFloorPassesGapFills pins the hole-aware floor: a sequence
// missing from the replay batch (lost on the radio at fetch time) that
// is later gap-recovered must reach the replay subscriber — it is new
// data, not a duplicate — while true duplicates of replayed history stay
// suppressed.
func TestReplayFloorPassesGapFills(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		st := store.New(store.Options{})
		d := New(Options{Mode: mode, QueueCapacity: 64})
		d.Start()
		stream := wire.MustStreamID(6, 0)
		var stale filtering.Delivery
		for _, seq := range []int{0, 1, 3, 4} { // 2 is lost for now
			del := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)}}
			del.StoreSeq = st.Append(del)
			stale = del
		}
		rec := &seqRecorder{}
		if _, replayed, err := d.SubscribeWithReplay(rec, stream, func() []filtering.Delivery {
			return st.Range(stream, 0, ^uint64(0))
		}); err != nil || replayed != 4 {
			t.Fatalf("mode %v: replayed %d err %v", mode, replayed, err)
		}
		// The lost copy of seq 2 finally arrives (filter gap recovery):
		// the store assigns it its original address inside the floor.
		fill := filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: 2}}
		fill.StoreSeq = st.Append(fill)
		d.Dispatch(fill)
		// A stale duplicate of replayed history stays suppressed.
		d.Dispatch(stale)
		d.Stop()
		seqs := rec.snapshot()
		if len(seqs) != 5 {
			t.Fatalf("mode %v: saw %v, want 4 replayed + the gap fill", mode, seqs)
		}
		if got := seqs[4]; got != fill.StoreSeq {
			t.Fatalf("mode %v: last delivery %d, want the gap fill %d", mode, got, fill.StoreSeq)
		}
	}
}

// TestEndGateOnClosedPortSync is the deterministic white-box regression
// for the sync-mode close race: endGate used to deliver the replay batch
// and flush the held backlog through Consume without checking closed, so
// a consumer whose last subscription was removed mid catch-up could keep
// receiving deliveries after Unsubscribe returned. A closed port's
// endGate must deliver nothing, account every suppressed delivery as a
// drop, and still release the gate.
func TestEndGateOnClosedPortSync(t *testing.T) {
	var dropped, selfDrop metrics.Counter
	rec := &seqRecorder{}
	p := newPort(rec, 8, dropOldest, true, &dropped, &selfDrop)
	stream := wire.MustStreamID(5, 0)

	p.beginGate()
	p.held = append(p.held, filtering.Delivery{StoreSeq: 100})
	p.close() // accounts the one held delivery as a drop
	if got := dropped.Value(); got != 1 {
		t.Fatalf("drops after close: %d, want 1", got)
	}
	// A live delivery diverted by tryHold between close and endGate
	// (the gate is still open, so Dispatch still holds).
	if !p.tryHold(filtering.Delivery{Msg: wire.Message{Stream: stream}, StoreSeq: 101}) {
		t.Fatal("tryHold should divert while the gate is open")
	}

	replay := []filtering.Delivery{{StoreSeq: 1}, {StoreSeq: 2}, {StoreSeq: 3}}
	p.endGate(replay, stream, true, &shard{})

	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("closed port consumed %v, want nothing", got)
	}
	// 1 held at close + 3 replay + 1 held after close.
	if got := dropped.Value(); got != 5 {
		t.Fatalf("drops: %d, want 5", got)
	}
	if got := selfDrop.Value(); got != 5 {
		t.Fatalf("self drops: %d, want 5", got)
	}
	p.mu.Lock()
	gateCount, gated, heldLen := p.gateCount, p.gated.Load(), len(p.held)
	p.mu.Unlock()
	if gateCount != 0 || gated || heldLen != 0 {
		t.Fatalf("gate not released: count=%d gated=%v held=%d", gateCount, gated, heldLen)
	}
}

// TestEndGateClosedMidFlushSync covers the second window: the port
// closes while a held batch is being consumed outside the lock, and new
// held deliveries accumulate; the next loop iteration must drop them
// instead of delivering.
func TestEndGateClosedMidFlushSync(t *testing.T) {
	var dropped, selfDrop metrics.Counter
	stream := wire.MustStreamID(5, 1)
	// The consumer closes its own port mid-flush, as if Unsubscribe ran
	// while the batch was being consumed, then one more live delivery
	// diverts into the still-open gate.
	closer := &closeOnConsume{stream: stream}
	p := newPort(closer, 8, dropOldest, true, &dropped, &selfDrop)
	closer.p = p
	p.beginGate()
	p.held = append(p.held, filtering.Delivery{Msg: wire.Message{Stream: stream}, StoreSeq: 50})
	p.endGate(nil, stream, true, &shard{})
	seqs := closer.rec.snapshot()
	if len(seqs) != 1 || seqs[0] != 50 {
		t.Fatalf("flushed %v, want just the pre-close 50", seqs)
	}
	if got := dropped.Value(); got != 1 {
		t.Fatalf("drops: %d, want 1 (the post-close hold)", got)
	}
}

// TestSubscribeWithReplayRacesUnsubscribe drives the close race through
// the public API in both modes: Unsubscribe removes the catch-up
// subscription while fetch is still materialising the backlog, so the
// port is closed by the time endGate places the replay. The consumer
// must see nothing and the batch must be accounted as drops. Runs under
// -race in CI.
func TestSubscribeWithReplayRacesUnsubscribe(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		d := New(Options{Mode: mode, QueueCapacity: 64})
		d.Start()
		stream := wire.MustStreamID(9, 0)
		rec := &seqRecorder{}

		fetchStarted := make(chan struct{})
		unsubDone := make(chan struct{})
		go func() {
			<-fetchStarted
			// The catch-up subscription is registered before fetch runs
			// and is this dispatcher's first id.
			for !d.Unsubscribe(1) {
				runtime.Gosched()
			}
			close(unsubDone)
		}()
		backlog := []filtering.Delivery{
			{Msg: wire.Message{Stream: stream, Seq: 1}, StoreSeq: 65537},
			{Msg: wire.Message{Stream: stream, Seq: 2}, StoreSeq: 65538},
		}
		_, n, err := d.SubscribeWithReplay(rec, stream, func() []filtering.Delivery {
			close(fetchStarted)
			<-unsubDone
			return backlog
		})
		if err != nil || n != len(backlog) {
			t.Fatalf("mode %v: n=%d err=%v", mode, n, err)
		}
		d.Stop()
		if got := rec.snapshot(); len(got) != 0 {
			t.Fatalf("mode %v: closed consumer saw %v", mode, got)
		}
		if got := d.Stats().Dropped; got != int64(len(backlog)) {
			t.Fatalf("mode %v: dropped %d, want %d", mode, got, len(backlog))
		}
	}
}
