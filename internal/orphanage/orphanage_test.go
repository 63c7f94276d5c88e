package orphanage

import (
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func del(stream wire.StreamID, seq wire.Seq, at time.Time, payload []byte) filtering.Delivery {
	return filtering.Delivery{
		Msg: wire.Message{Stream: stream, Seq: seq, Payload: payload},
		At:  at,
	}
}

func TestConsumeAndClaim(t *testing.T) {
	o := newOrphanage(Options{})
	id := wire.MustStreamID(7, 1)
	for i := 0; i < 5; i++ {
		o.Consume(del(id, wire.Seq(i), epoch.Add(time.Duration(i)*time.Second), []byte{byte(i)}))
	}
	backlog, ok := o.Claim(id)
	if !ok {
		t.Fatal("Claim reported !ok")
	}
	if len(backlog) != 5 {
		t.Fatalf("backlog = %d, want 5", len(backlog))
	}
	for i, d := range backlog {
		if d.Msg.Seq != wire.Seq(i) {
			t.Fatalf("backlog order wrong at %d: %d", i, d.Msg.Seq)
		}
	}
	// Claim removes the stream.
	if _, ok := o.Claim(id); ok {
		t.Fatal("second Claim should report !ok")
	}
	if st := o.Stats(); st.Claims != 1 || st.StreamsHeld != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPerStreamCapacityDropsOldest(t *testing.T) {
	o := newOrphanage(Options{PerStreamCapacity: 3})
	id := wire.MustStreamID(1, 0)
	for i := 0; i < 10; i++ {
		o.Consume(del(id, wire.Seq(i), epoch, nil))
	}
	backlog, _ := o.Claim(id)
	if len(backlog) != 3 {
		t.Fatalf("backlog = %d, want 3", len(backlog))
	}
	if backlog[0].Msg.Seq != 7 || backlog[2].Msg.Seq != 9 {
		t.Fatalf("kept %v..%v, want 7..9 (newest)", backlog[0].Msg.Seq, backlog[2].Msg.Seq)
	}
	if st := o.Stats(); st.MessagesDropped != 7 {
		t.Fatalf("dropped = %d, want 7", st.MessagesDropped)
	}
}

func TestMaxStreamsEvictsStalest(t *testing.T) {
	o := newOrphanage(Options{maxStreams: 2})
	a := wire.MustStreamID(1, 0)
	b := wire.MustStreamID(2, 0)
	c := wire.MustStreamID(3, 0)
	o.Consume(del(a, 0, epoch, nil))                    // a last seen t0
	o.Consume(del(b, 0, epoch.Add(time.Second), nil))   // b last seen t1
	o.Consume(del(c, 0, epoch.Add(2*time.Second), nil)) // forces eviction of a
	if _, ok := o.StreamInfo(a); ok {
		t.Fatal("stalest stream not evicted")
	}
	if _, ok := o.StreamInfo(b); !ok {
		t.Fatal("wrong stream evicted")
	}
	if st := o.Stats(); st.StreamsEvicted != 1 || st.StreamsHeld != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAnalysisInfo(t *testing.T) {
	o := newOrphanage(Options{})
	id := wire.MustStreamID(4, 2)
	// 11 messages, one per second: rate = 1 msg/s.
	for i := 0; i <= 10; i++ {
		o.Consume(del(id, wire.Seq(i), epoch.Add(time.Duration(i)*time.Second), []byte("abcd")))
	}
	info, ok := o.StreamInfo(id)
	if !ok {
		t.Fatal("StreamInfo !ok")
	}
	if info.Seen != 11 || info.Buffered != 11 || info.Bytes != 44 {
		t.Fatalf("info = %+v", info)
	}
	if info.Rate < 0.99 || info.Rate > 1.01 {
		t.Fatalf("rate = %v, want ≈1", info.Rate)
	}
	if !info.FirstSeen.Equal(epoch) || !info.LastSeen.Equal(epoch.Add(10*time.Second)) {
		t.Fatalf("first/last = %v/%v", info.FirstSeen, info.LastSeen)
	}
}

func TestRateUndefinedForSingleMessage(t *testing.T) {
	o := newOrphanage(Options{})
	id := wire.MustStreamID(4, 2)
	o.Consume(del(id, 0, epoch, nil))
	info, _ := o.StreamInfo(id)
	if info.Rate != 0 {
		t.Fatalf("rate = %v, want 0", info.Rate)
	}
}

func TestStreamsSorted(t *testing.T) {
	o := newOrphanage(Options{})
	o.Consume(del(wire.MustStreamID(5, 0), 0, epoch, nil))
	o.Consume(del(wire.MustStreamID(1, 0), 0, epoch, nil))
	o.Consume(del(wire.MustStreamID(3, 0), 0, epoch, nil))
	infos := o.Streams()
	if len(infos) != 3 {
		t.Fatalf("streams = %d", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i].Stream < infos[i-1].Stream {
			t.Fatal("Streams not sorted")
		}
	}
}

func TestEvictBefore(t *testing.T) {
	o := newOrphanage(Options{})
	old := wire.MustStreamID(1, 0)
	fresh := wire.MustStreamID(2, 0)
	o.Consume(del(old, 0, epoch, nil))
	o.Consume(del(fresh, 0, epoch.Add(time.Hour), nil))
	if n := o.EvictBefore(epoch.Add(30 * time.Minute)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, ok := o.StreamInfo(old); ok {
		t.Fatal("old stream survived eviction")
	}
	if _, ok := o.StreamInfo(fresh); !ok {
		t.Fatal("fresh stream evicted")
	}
}

func TestNameForDispatcherIntegration(t *testing.T) {
	o := newOrphanage(Options{})
	if o.Name() != "orphanage" {
		t.Fatalf("Name = %q", o.Name())
	}
}

func TestStatsAggregate(t *testing.T) {
	o := newOrphanage(Options{})
	o.Consume(del(wire.MustStreamID(1, 0), 0, epoch, []byte("xy")))
	o.Consume(del(wire.MustStreamID(1, 0), 1, epoch, []byte("zw")))
	o.Consume(del(wire.MustStreamID(2, 0), 0, epoch, nil))
	st := o.Stats()
	if st.StreamsHeld != 2 || st.MessagesHeld != 3 || st.TotalSeen != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// newOrphanage builds an Orphanage over a store of its own that retains
// twice its per-stream window.
func newOrphanage(opts Options) *Orphanage {
	window := opts.PerStreamCapacity
	if window <= 0 {
		window = DefaultPerStreamCapacity
	}
	return NewWithStore(opts, store.New(store.Options{MaxMessages: 2 * window}))
}
