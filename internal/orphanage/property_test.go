package orphanage

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Property: Claim returns the most recent messages in arrival order, with
// length min(seen, capacity), for any burst size and capacity.
func TestClaimOrderProperty(t *testing.T) {
	f := func(burstRaw, capRaw uint8) bool {
		burst := int(burstRaw)%200 + 1
		capacity := int(capRaw)%50 + 1
		o := newOrphanage(Options{PerStreamCapacity: capacity})
		id := wire.MustStreamID(1, 0)
		for i := 0; i < burst; i++ {
			o.Consume(filtering.Delivery{
				Msg: wire.Message{Stream: id, Seq: wire.Seq(i)},
				At:  epoch.Add(time.Duration(i) * time.Second),
			})
		}
		backlog, ok := o.Claim(id)
		if !ok {
			return false
		}
		wantLen := burst
		if wantLen > capacity {
			wantLen = capacity
		}
		if len(backlog) != wantLen {
			return false
		}
		// Newest messages retained, ascending sequence order.
		first := burst - wantLen
		for i, d := range backlog {
			if d.Msg.Seq != wire.Seq(first+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the orphanage never holds more than maxStreams streams and
// never more than maxStreams × PerStreamCapacity messages, for any
// interleaving of streams.
func TestBoundsProperty(t *testing.T) {
	f := func(sensorIDs []uint8) bool {
		const maxStreams, perStream = 5, 7
		o := newOrphanage(Options{maxStreams: maxStreams, PerStreamCapacity: perStream})
		for i, raw := range sensorIDs {
			id := wire.MustStreamID(wire.SensorID(raw), 0)
			o.Consume(filtering.Delivery{
				Msg: wire.Message{Stream: id, Seq: wire.Seq(i)},
				At:  epoch.Add(time.Duration(i) * time.Millisecond),
			})
			st := o.Stats()
			if st.StreamsHeld > maxStreams || st.MessagesHeld > maxStreams*perStream {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
