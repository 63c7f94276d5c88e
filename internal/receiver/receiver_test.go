package receiver

import (
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func broadcastMsg(t *testing.T, m *radio.Medium, from geo.Point, msg wire.Message) {
	t.Helper()
	frame, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m.Broadcast(radio.BandUplink, from, 1e9, frame)
}

func TestReceiverDecodesAndStamps(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{DelayMin: 3 * time.Millisecond, DelayMax: 3 * time.Millisecond})
	var got []Reception
	r := New(medium, Config{Name: "rx-1", Position: geo.Pt(0, 0), Radius: 100}, func(rc Reception) {
		got = append(got, rc)
	})
	r.Start()
	defer r.Stop()

	broadcastMsg(t, medium, geo.Pt(30, 40), wire.Message{Stream: wire.MustStreamID(5, 2), Seq: 9, Payload: []byte("p")})
	clock.RunAll()

	if len(got) != 1 {
		t.Fatalf("receptions = %d, want 1", len(got))
	}
	rc := got[0]
	if rc.Receiver != "rx-1" {
		t.Errorf("Receiver = %q", rc.Receiver)
	}
	if rc.Msg.Stream != wire.MustStreamID(5, 2) || rc.Msg.Seq != 9 {
		t.Errorf("message fields wrong: %+v", rc.Msg)
	}
	if want := epoch.Add(3 * time.Millisecond); !rc.At.Equal(want) {
		t.Errorf("At = %v, want %v", rc.At, want)
	}
	// Distance 50 of radius 100 → RSSI 0.5.
	if rc.RSSI < 0.49 || rc.RSSI > 0.51 {
		t.Errorf("RSSI = %v, want ≈0.5", rc.RSSI)
	}
}

func TestReceiverScreensCorruptFrames(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{CorruptProb: 1, Seed: 5})
	var got []Reception
	r := New(medium, Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 100}, func(rc Reception) {
		got = append(got, rc)
	})
	r.Start()
	defer r.Stop()

	for i := 0; i < 20; i++ {
		broadcastMsg(t, medium, geo.Pt(1, 0), wire.Message{Stream: wire.MustStreamID(1, 0), Seq: wire.Seq(i)})
	}
	clock.RunAll()

	st := r.Stats()
	if st.FramesHeard != 20 {
		t.Fatalf("FramesHeard = %d, want 20", st.FramesHeard)
	}
	// Every frame had one flipped bit; Fletcher-16 catches bit flips except
	// (rarely) flips inside the checksum trailer that keep it consistent —
	// in practice all 20 here must be screened.
	if st.Corrupt != 20 || len(got) != 0 {
		t.Fatalf("Corrupt = %d, sunk = %d; want 20 screened", st.Corrupt, len(got))
	}
}

func TestReceiverRSSIMonotonicInDistance(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	var got []Reception
	r := New(medium, Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 100}, func(rc Reception) {
		got = append(got, rc)
	})
	r.Start()
	defer r.Stop()

	for _, x := range []float64{10, 40, 70, 99} {
		broadcastMsg(t, medium, geo.Pt(x, 0), wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 0})
		clock.RunAll()
	}
	if len(got) != 4 {
		t.Fatalf("receptions = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].RSSI >= got[i-1].RSSI {
			t.Fatalf("RSSI not monotonic: %v then %v", got[i-1].RSSI, got[i].RSSI)
		}
	}
	for _, rc := range got {
		if rc.RSSI <= 0 || rc.RSSI > 1 {
			t.Fatalf("RSSI out of range: %v", rc.RSSI)
		}
	}
}

// TestReceiverRSSITracksPosition: the RSSI proxy is derived from the
// squared distance the medium precomputes per delivery (Frame.DistSq).
// Repeated frames from one spot must agree exactly, and a moved
// transmitter must be reflected immediately (a stale distance would
// corrupt location inference).
func TestReceiverRSSITracksPosition(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	var got []Reception
	r := New(medium, Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 100}, func(rc Reception) {
		got = append(got, rc)
	})
	r.Start()
	defer r.Stop()

	for seq := 0; seq < 3; seq++ { // static: repeated frames, one position
		broadcastMsg(t, medium, geo.Pt(30, 40), wire.Message{Stream: wire.MustStreamID(1, 0), Seq: wire.Seq(seq)})
		clock.RunAll()
	}
	broadcastMsg(t, medium, geo.Pt(60, 80), wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 3}) // moved
	clock.RunAll()

	if len(got) != 4 {
		t.Fatalf("receptions = %d, want 4", len(got))
	}
	for i := 0; i < 3; i++ { // distance 50 of radius 100 → 0.5
		if rssi := got[i].RSSI; rssi < 0.49 || rssi > 0.51 {
			t.Fatalf("frame %d RSSI = %v, want ≈0.5", i, rssi)
		}
	}
	if rssi := got[3].RSSI; rssi > 0.01 { // distance 100 = zone edge → floor
		t.Fatalf("moved-transmitter RSSI = %v, want the 0.01 floor (cache must not serve the old position)", rssi)
	}
}

// TestReceiverBorrowedReception: receptions are flagged Borrowed and the
// payload is intact for the duration of the sink call — the medium reuses
// the frame buffer only after onFrame, and so the sink, has returned.
func TestReceiverBorrowedReception(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	var payloads []string
	var borrowed []bool
	r := New(medium, Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 100}, func(rc Reception) {
		payloads = append(payloads, string(rc.Msg.Payload)) // copy while valid
		borrowed = append(borrowed, rc.Borrowed)
	})
	r.Start()
	defer r.Stop()

	for seq := 0; seq < 8; seq++ {
		broadcastMsg(t, medium, geo.Pt(1, 0), wire.Message{
			Stream: wire.MustStreamID(1, 0), Seq: wire.Seq(seq),
			Payload: []byte{byte('a' + seq)},
		})
		clock.RunAll() // delivery recycles pooled buffers between frames
	}
	if len(payloads) != 8 {
		t.Fatalf("receptions = %d, want 8", len(payloads))
	}
	for i, p := range payloads {
		if want := string(byte('a' + i)); p != want {
			t.Fatalf("frame %d payload = %q, want %q (pooled buffer corrupted)", i, p, want)
		}
		if !borrowed[i] {
			t.Fatalf("frame %d not marked Borrowed", i)
		}
	}
}

func TestReceiverOutOfZoneHearsNothing(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	var got []Reception
	r := New(medium, Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 50}, func(rc Reception) {
		got = append(got, rc)
	})
	r.Start()
	defer r.Stop()
	broadcastMsg(t, medium, geo.Pt(60, 0), wire.Message{Stream: wire.MustStreamID(1, 0)})
	clock.RunAll()
	if len(got) != 0 {
		t.Fatal("receiver heard a transmission outside its zone")
	}
}

func TestReceiverStartStopIdempotent(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	r := New(medium, Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 50}, func(Reception) {})
	r.Start()
	r.Start()
	if medium.Listeners(radio.BandUplink) != 1 {
		t.Fatal("double Start attached twice")
	}
	r.Stop()
	r.Stop()
	if medium.Listeners(radio.BandUplink) != 0 {
		t.Fatal("Stop did not detach")
	}
}

func TestReceiverDefaultName(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	r := New(medium, Config{Position: geo.Pt(1, 2), Radius: 10}, func(Reception) {})
	if r.Name() == "" {
		t.Fatal("empty default name")
	}
}

func TestReceiverValidation(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	t.Run("nil sink", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		New(medium, Config{Radius: 1}, nil)
	})
	t.Run("bad radius", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		New(medium, Config{Radius: 0}, func(Reception) {})
	})
}

func TestReceiverAccessors(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	r := New(medium, Config{Name: "n", Position: geo.Pt(1, 2), Radius: 10}, func(Reception) {})
	if r.Name() != "n" || r.Position() != geo.Pt(1, 2) || r.Radius() != 10 {
		t.Fatal("accessors wrong")
	}
}
