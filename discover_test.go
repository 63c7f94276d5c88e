package garnet_test

import (
	"testing"
	"time"

	garnet "github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestDiscoverListing pins what Discover reports for every kind of stream
// a deployment publishes: a radio stream heard by four receivers (so every
// sample arrives in duplicate), the location stream, a derived stream
// matched only by a Where predicate, and an injected unclaimed stream with
// a duplicate copy, a sequence gap, a late fill that arrives below the
// Stream Store's retained window, and a Forget. Count is the number of
// unique deliveries published on the stream — the late fill included,
// duplicate copies not, Forget changing nothing — and FirstSeen/LastSeen
// are the reception times of the first and latest of them.
func TestDiscoverListing(t *testing.T) {
	// Two payload bytes' worth of window: the injected stream keeps only
	// its two newest 4-byte deliveries.
	g, clock := newTestDeployment(t,
		garnet.WithStoreRetention(0, 8, 0),
		garnet.WithLocationPublishing(2*time.Second))
	addThermometer(t, g, 1)
	tok, err := g.Register("watcher", garnet.PermSubscribe|garnet.PermLocation)
	if err != nil {
		t.Fatal(err)
	}
	radio := garnet.MustStreamID(1, 0)
	if _, err := g.Subscribe(tok, garnet.Exact(radio), garnet.NewRecorder("radio", 64)); err != nil {
		t.Fatal(err)
	}
	derived, err := g.NewDerivedStream(tok, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Subscribe(tok, garnet.Where(func(m garnet.Message) bool { return m.Stream == derived.Stream() }),
		garnet.NewRecorder("derived", 64)); err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(5 * time.Second)

	at := func(ms int) time.Time { return epoch.Add(5*time.Second + time.Duration(ms)*time.Millisecond) }
	injected := garnet.MustStreamID(7, 0)
	inject := func(seq wire.Seq, ms int) {
		g.Core().InjectReception(receiver.Reception{
			Msg: wire.Message{Stream: injected, Seq: seq, Payload: []byte{1, 2, 3, 4}},
			At:  at(ms), Receiver: "rx", RSSI: 1,
		})
	}
	inject(1, 100)
	inject(1, 110) // a second receiver's copy
	inject(2, 200)
	inject(5, 500) // 3 and 4 missing
	inject(6, 600)
	inject(7, 700)
	inject(3, 800) // the late fill, below the store's two-entry window
	derived.Emit([]byte{9}, at(850))
	derived.Emit([]byte{9}, at(870))
	g.Core().Store().Forget(injected)
	inject(8, 900)

	if st := g.Stats().Store; st.DroppedBehind != 1 || st.Forgotten == 0 {
		t.Fatalf("the late fill must land behind the window and Forget must drop history: %+v", st)
	}

	infos, err := g.Discover(tok)
	if err != nil {
		t.Fatal(err)
	}
	s := time.Second
	want := []struct {
		stream      garnet.StreamID
		count       int64
		subscribed  bool
		first, last time.Duration // since epoch
	}{
		{radio, 5, true, 1 * s, 5 * s},
		{garnet.MustStreamID(1, garnet.LocationStreamIndex), 2, false, 2 * s, 4 * s},
		{injected, 7, false, 5100 * time.Millisecond, 5900 * time.Millisecond},
		{derived.Stream(), 2, true, 5850 * time.Millisecond, 5870 * time.Millisecond},
	}
	if len(infos) != len(want) {
		t.Fatalf("Discover listed %d streams, want %d: %+v", len(infos), len(want), infos)
	}
	for i, w := range want {
		got := infos[i]
		if got.Stream != w.stream || got.Count != w.count || got.Subscribed != w.subscribed ||
			!got.FirstSeen.Equal(epoch.Add(w.first)) || !got.LastSeen.Equal(epoch.Add(w.last)) {
			t.Errorf("Discover[%d] = %v count=%d subscribed=%v first=%v last=%v; want %v %d %v %v %v",
				i, got.Stream, got.Count, got.Subscribed, got.FirstSeen.Sub(epoch), got.LastSeen.Sub(epoch),
				w.stream, w.count, w.subscribed, w.first, w.last)
		}
	}
}

// TestDiscoverWithReentrantWherePredicate: a Where predicate may call back
// into the deployment. Discover runs predicates to fill in Subscribed, so
// it must not hold a dispatcher lock while one runs — a predicate reading
// Stats would otherwise wait on a lock its own caller holds.
func TestDiscoverWithReentrantWherePredicate(t *testing.T) {
	clock := garnet.NewVirtualClock(epoch)
	g := garnet.New(garnet.WithClock(clock), garnet.WithSecret([]byte("test-secret")))
	tok, err := g.Register("curious", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	curious := garnet.Where(func(m garnet.Message) bool {
		return g.Stats().Dispatch.Subscriptions > 0 && m.Stream.Sensor() == 3
	})
	if _, err := g.Subscribe(tok, curious, garnet.NewRecorder("curious", 8)); err != nil {
		t.Fatal(err)
	}
	g.Start()
	for sensor := garnet.SensorID(2); sensor <= 4; sensor++ {
		g.Core().InjectReception(receiver.Reception{
			Msg: wire.Message{Stream: garnet.MustStreamID(sensor, 0), Seq: 1},
			At:  epoch, Receiver: "rx", RSSI: 1,
		})
	}

	done := make(chan []garnet.StreamInfo, 1)
	go func() {
		infos, _ := g.Discover(tok)
		done <- infos
	}()
	select {
	case infos := <-done:
		defer g.Stop()
		if len(infos) != 3 {
			t.Fatalf("Discover listed %d streams, want 3: %+v", len(infos), infos)
		}
		for _, i := range infos {
			if i.Subscribed != (i.Stream.Sensor() == 3) {
				t.Errorf("%v: Subscribed = %v", i.Stream, i.Subscribed)
			}
		}
	case <-time.After(2 * time.Second):
		// The deployment is wedged; stopping it would hang too.
		t.Fatal("Discover did not return within 2 s: it holds a lock the Where predicate needs")
	}
}
