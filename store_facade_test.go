package garnet_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	garnet "github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestReplayClaimedStream pins the motivating scenario of the Stream
// Store: a late subscriber to an already-claimed stream recovers history.
// Before the store, only *unclaimed* (orphaned) streams had any backlog.
func TestReplayClaimedStream(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 1)
	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	// The stream is claimed from the start: an early subscriber exists.
	early := garnet.NewRecorder("early", 64)
	if _, err := g.Subscribe(tok, garnet.Exact(garnet.MustStreamID(1, 0)), early); err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(8 * time.Second)

	// The old world: the orphanage holds nothing (the stream is claimed),
	// so a late joiner would get zero history.
	if orphans, _ := g.Orphans(tok); len(orphans) != 0 {
		t.Fatalf("claimed stream ended up orphaned: %v", orphans)
	}

	backlog, err := g.Replay(tok, garnet.MustStreamID(1, 0), 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 8 {
		t.Fatalf("replayed %d, want 8", len(backlog))
	}
	for i, d := range backlog {
		if d.Msg.Seq != garnet.Seq(i) || d.StoreSeq == 0 {
			t.Fatalf("entry %d: seq %d storeSeq %d", i, d.Msg.Seq, d.StoreSeq)
		}
	}

	// SubscribeWithReplay: the late joiner catches up and then rides live.
	late := garnet.NewRecorder("late", 64)
	_, replayed, err := g.SubscribeWithReplay(tok, garnet.MustStreamID(1, 0), 0, late)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 8 {
		t.Fatalf("replayed = %d, want 8", replayed)
	}
	clock.Advance(3 * time.Second)
	ds := late.Deliveries()
	if len(ds) != 11 {
		t.Fatalf("late consumer saw %d, want 11", len(ds))
	}
	for i, d := range ds {
		if d.Msg.Seq != garnet.Seq(i) {
			t.Fatalf("delivery %d has seq %d (catch-up order broken)", i, d.Msg.Seq)
		}
	}
}

func TestLatestValueAndStoreStats(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 2)
	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()

	if _, ok, err := g.LatestValue(tok, garnet.MustStreamID(2, 0)); err != nil || ok {
		t.Fatalf("pre-traffic LatestValue = ok %v err %v", ok, err)
	}
	clock.Advance(5 * time.Second)
	d, ok, err := g.LatestValue(tok, garnet.MustStreamID(2, 0))
	if err != nil || !ok {
		t.Fatalf("LatestValue = ok %v err %v", ok, err)
	}
	if d.Msg.Seq != 4 {
		t.Fatalf("latest seq = %d, want 4", d.Msg.Seq)
	}
	st := g.Stats().Store
	if st.Appended != 5 || st.RetainedMessages != 5 || st.Streams != 1 {
		t.Fatalf("store stats = %+v", st)
	}

	// Permissions: replay APIs refuse tokens without PermSubscribe, and
	// the location stream needs PermLocation.
	if _, _, err := g.LatestValue(garnet.Token("bogus"), garnet.MustStreamID(2, 0)); err == nil {
		t.Fatal("bogus token accepted")
	}
	if _, err := g.Replay(tok, garnet.MustStreamID(2, garnet.LocationStreamIndex), 0, ^uint64(0)); !errors.Is(err, garnet.ErrPermission) {
		t.Fatalf("location replay without permission: %v", err)
	}
	if _, _, err := g.SubscribeWithReplay(tok, garnet.MustStreamID(2, garnet.LocationStreamIndex), 0, garnet.NewRecorder("x", 1)); !errors.Is(err, garnet.ErrPermission) {
		t.Fatalf("location subscribe-with-replay without permission: %v", err)
	}
}

// TestStoreRetentionOption pins WithStoreRetention: the count bound is
// floored to the Orphanage capacity (so claims always find their window)
// while the byte and age bounds cap what Replay can recover.
func TestStoreRetentionOption(t *testing.T) {
	g, clock := newTestDeployment(t,
		garnet.WithStoreRetention(4, 0, 0), garnet.WithShards(4))
	addThermometer(t, g, 3)
	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(10 * time.Second)
	backlog, err := g.Replay(tok, garnet.MustStreamID(3, 0), 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	// MaxMessages is floored to the orphanage capacity (128) per the
	// option contract, so all 10 remain despite the nominal bound of 4.
	if len(backlog) != 10 {
		t.Fatalf("default-floored retention kept %d, want 10", len(backlog))
	}

	// An age bound genuinely limits the window: only deliveries younger
	// than 3 s (relative to the newest append) survive.
	g2, clock2 := newTestDeployment(t, garnet.WithStoreRetention(0, 0, 3*time.Second))
	addThermometer(t, g2, 3)
	tok2, err := g2.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	g2.Start()
	clock2.Advance(10 * time.Second)
	backlog2, err := g2.Replay(tok2, garnet.MustStreamID(3, 0), 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog2) != 4 { // ages 0..3 s inclusive survive the cutoff
		t.Fatalf("age-bounded retention kept %d, want 4", len(backlog2))
	}
	if st := g2.Stats().Store; st.EvictedAge != 6 {
		t.Fatalf("store stats = %+v, want 6 age evictions", st)
	}
}

// TestSubscribeWithBacklogAsyncOrdering is the facade-level regression
// for the historical replay/live interleaving race: under an async
// dispatcher, receptions keep flowing while a late joiner claims the
// orphan backlog through SubscribeWithBacklog. Every delivery the
// consumer sees must be unique and in ascending store-sequence order.
// Run under -race in CI.
func TestSubscribeWithBacklogAsyncOrdering(t *testing.T) {
	const backlog = 100
	const live = 1500
	// The queue is sized so overflow can never fire no matter how the
	// scheduler interleaves the drainer with the publisher: nothing the
	// port admits may be lost.
	g := garnet.New(
		garnet.WithSecret([]byte("test-secret")),
		garnet.WithAsyncDispatch(2*(backlog+live)),
	)
	t.Cleanup(g.Stop)
	g.Start()
	tok, err := g.Register("late", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	stream := garnet.MustStreamID(11, 0)
	inject := func(seq int) {
		g.Core().InjectReception(receiver.Reception{
			Msg:      wire.Message{Stream: stream, Seq: wire.Seq(seq)},
			Receiver: "rx", RSSI: 1, At: epoch.Add(time.Duration(seq) * time.Millisecond),
		})
	}
	for seq := 0; seq < backlog; seq++ {
		inject(seq)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := backlog; seq < backlog+live; seq++ {
			inject(seq)
		}
	}()

	var mu sync.Mutex
	var seqs []uint64
	rec := &garnet.ConsumerFunc{ConsumerName: "late", Fn: func(d garnet.Delivery) {
		mu.Lock()
		seqs = append(seqs, d.StoreSeq)
		mu.Unlock()
	}}
	_, replayed, err := g.SubscribeWithBacklog(tok, stream, rec)
	if err != nil {
		t.Fatal(err)
	}
	if replayed < backlog {
		t.Fatalf("replayed %d, want at least %d", replayed, backlog)
	}
	<-done
	g.Stop() // drain the async port

	mu.Lock()
	defer mu.Unlock()
	seen := make(map[uint64]bool, len(seqs))
	for i, s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate delivery of store seq %d", s)
		}
		seen[s] = true
		if i > 0 && s <= seqs[i-1] {
			t.Fatalf("replay/live inversion at %d: %d after %d", i, s, seqs[i-1])
		}
	}
	// Losses: messages published before the claim may legitimately fall
	// out of the bounded orphan window when the publisher outruns the
	// subscribe — that is retention policy, not delivery. What the
	// dispatcher guarantees, and what must hold on every schedule: the
	// full replay batch arrives, then every live message from the claimed
	// window onward, gap-free through the end of the stream.
	if len(seqs) == 0 {
		t.Fatal("consumer saw nothing")
	}
	if len(seqs) < replayed {
		t.Fatalf("consumer saw %d < %d replayed messages", len(seqs), replayed)
	}
	first, last := seqs[0], seqs[len(seqs)-1]
	if got := uint64(len(seqs)); got != last-first+1 {
		t.Fatalf("gap after the claimed window: %d deliveries spanning [%d, %d]", got, first, last)
	}
	end, ok := g.Core().Store().LastSeq(stream)
	if !ok || last != end {
		t.Fatalf("consumer stopped at store seq %d, stream ends at %d (ok=%v)", last, end, ok)
	}
}

// TestSubscribeWithBacklogFailurePreservesBacklog pins the claim
// ordering: a failed subscription (nil consumer) must not destroy the
// orphan backlog — a retry still recovers it.
func TestSubscribeWithBacklogFailurePreservesBacklog(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 9)
	g.Start()
	clock.Advance(5 * time.Second) // unclaimed: orphanage buffers 5
	tok, err := g.Register("late", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.SubscribeWithBacklog(tok, garnet.MustStreamID(9, 0), nil); err == nil {
		t.Fatal("nil consumer accepted")
	}
	if orphans, _ := g.Orphans(tok); len(orphans) != 1 || orphans[0].Buffered != 5 {
		t.Fatalf("backlog lost after failed subscribe: %+v", orphans)
	}
	rec := garnet.NewRecorder("late", 64)
	if _, replayed, err := g.SubscribeWithBacklog(tok, garnet.MustStreamID(9, 0), rec); err != nil || replayed != 5 {
		t.Fatalf("retry replayed %d err %v, want 5", replayed, err)
	}
}

// TestStoreCompressionOption pins WithStoreCompression end to end: with
// the cold tier on, deliveries the age bound would have dropped are
// sealed into compressed blocks instead, and Replay and
// SubscribeWithReplay recover the full history transparently — the
// retention bounds become a working-set knob, not a history limit.
func TestStoreCompressionOption(t *testing.T) {
	g, clock := newTestDeployment(t,
		garnet.WithStoreRetention(0, 0, 3*time.Second),
		garnet.WithStoreCompression("auto", 1<<20))
	addThermometer(t, g, 4)
	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(200 * time.Second)

	backlog, err := g.Replay(tok, garnet.MustStreamID(4, 0), 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	// Without compression the 3 s age bound keeps 4 (see
	// TestStoreRetentionOption); with it, everything is still there.
	if len(backlog) != 200 {
		t.Fatalf("compressed store replayed %d, want all 200", len(backlog))
	}
	for i, d := range backlog {
		if d.Msg.Seq != garnet.Seq(i) {
			t.Fatalf("entry %d has seq %d (cold → hot stitching broke order)", i, d.Msg.Seq)
		}
	}

	st := g.Stats().Store
	if st.Codec != "auto" || st.SealedBlocks == 0 || st.ColdBytes == 0 {
		t.Fatalf("cold tier never engaged: %+v", st)
	}
	if st.EvictedAge != 0 || st.RetainedMessages != 200 {
		t.Fatalf("sealing lost history: %+v", st)
	}
	if st.ColdRawBytes <= st.ColdBytes {
		t.Fatalf("constant series did not compress: %d raw vs %d cold B", st.ColdRawBytes, st.ColdBytes)
	}

	// A late joiner catches up through the cold tier and rides live.
	late := garnet.NewRecorder("late", 256)
	_, replayed, err := g.SubscribeWithReplay(tok, garnet.MustStreamID(4, 0), 0, late)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 200 {
		t.Fatalf("SubscribeWithReplay caught up %d, want 200", replayed)
	}
}

// TestArchiveRetentionOption drives WithArchiveRetention's age bound end
// to end: history older than the bound leaves the archive oldest-first, is
// counted, and what remains replays as one unbroken suffix up to now.
func TestArchiveRetentionOption(t *testing.T) {
	g, clock := newTestDeployment(t,
		garnet.WithStoreRetention(0, 0, 3*time.Second),
		garnet.WithStoreCompression("auto", 1), // every sealed block spills
		garnet.WithArchive(garnet.NewMemArchive()),
		garnet.WithArchiveRetention(time.Minute, 0))
	addThermometer(t, g, 4)
	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(400 * time.Second)
	g.Stop() // drains the archiver: every spill committed, every bound applied

	st := g.Stats().Store
	if st.ArchivedMessages == 0 || st.EvictedArchive == 0 {
		t.Fatalf("archive retention never engaged: %+v", st)
	}
	backlog, err := g.Replay(tok, garnet.MustStreamID(4, 0), 0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if want := 400 - int(st.EvictedArchive); len(backlog) != want {
		t.Fatalf("replayed %d, want %d (400 sampled − %d evicted from the archive)", len(backlog), want, st.EvictedArchive)
	}
	for i, d := range backlog {
		if want := garnet.Seq(int(st.EvictedArchive) + i); d.Msg.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d: the survivors are not the newest suffix", i, d.Msg.Seq, want)
		}
	}
	// A minute of one-a-second samples, plus at most the 64-sample block
	// that straddles the cut and the block not yet sealed.
	if len(backlog) < 60 || len(backlog) > 60+2*64 {
		t.Fatalf("age bound of 60 s kept %d one-a-second samples", len(backlog))
	}
}

// TestStoreCompressionBadCodecPanics pins the option contract: a typo in
// the codec name must fail loudly at construction, not silently disable
// retention history.
func TestStoreCompressionBadCodecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown codec name did not panic")
		}
	}()
	garnet.New(garnet.WithSecret([]byte("x")), garnet.WithStoreCompression("zstd", 0))
}
