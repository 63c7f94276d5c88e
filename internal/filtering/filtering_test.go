package filtering

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func rcpt(stream wire.StreamID, seq wire.Seq) receiver.Reception {
	return receiver.Reception{
		Msg:      wire.Message{Stream: stream, Seq: seq},
		Receiver: "rx",
		RSSI:     0.5,
		At:       epoch,
	}
}

func collectFilter(opts Options) (*Filter, *[]Delivery) {
	var out []Delivery
	f := New(func(d Delivery) { out = append(out, d) }, opts)
	return f, &out
}

func TestFilterPassesUniqueMessages(t *testing.T) {
	f, out := collectFilter(Options{})
	id := wire.MustStreamID(1, 0)
	for seq := 0; seq < 10; seq++ {
		f.Ingest(rcpt(id, wire.Seq(seq)))
	}
	if len(*out) != 10 {
		t.Fatalf("delivered %d, want 10", len(*out))
	}
	for i, d := range *out {
		if d.Msg.Seq != wire.Seq(i) {
			t.Fatalf("out of order at %d: %d", i, d.Msg.Seq)
		}
	}
}

func TestFilterDropsExactDuplicates(t *testing.T) {
	f, out := collectFilter(Options{})
	id := wire.MustStreamID(1, 0)
	// Three receivers hear every message: classic overlap duplication.
	for seq := 0; seq < 5; seq++ {
		for copyN := 0; copyN < 3; copyN++ {
			f.Ingest(rcpt(id, wire.Seq(seq)))
		}
	}
	if len(*out) != 5 {
		t.Fatalf("delivered %d, want 5", len(*out))
	}
	st := f.Stats()
	if st.Received != 15 || st.Delivered != 5 || st.Duplicates != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFilterAcceptsLateArrivalWithinWindow(t *testing.T) {
	f, out := collectFilter(Options{})
	id := wire.MustStreamID(1, 0)
	f.Ingest(rcpt(id, 0))
	f.Ingest(rcpt(id, 5)) // gap: 1-4 missing
	f.Ingest(rcpt(id, 3)) // late arrival fills part of the gap
	if len(*out) != 3 {
		t.Fatalf("delivered %d, want 3", len(*out))
	}
	st := f.Stats()
	if st.Gaps != 4 {
		t.Fatalf("gaps = %d, want 4", st.Gaps)
	}
	if st.GapsRecovered != 1 {
		t.Fatalf("recovered = %d, want 1", st.GapsRecovered)
	}
	// And the late copy must now be a duplicate if re-heard.
	f.Ingest(rcpt(id, 3))
	if len(*out) != 3 {
		t.Fatal("duplicate of late arrival delivered")
	}
}

func TestFilterDropsStaleBeyondWindow(t *testing.T) {
	f, out := collectFilter(Options{windowSize: 64})
	id := wire.MustStreamID(1, 0)
	f.Ingest(rcpt(id, 0))
	f.Ingest(rcpt(id, 200)) // window slides far past 0
	f.Ingest(rcpt(id, 100)) // 100 is 100 behind base, outside 64-window
	if len(*out) != 2 {
		t.Fatalf("delivered %d, want 2", len(*out))
	}
	if st := f.Stats(); st.Stale != 1 {
		t.Fatalf("stale = %d, want 1", st.Stale)
	}
}

func TestFilterSurvivesSequenceWraparound(t *testing.T) {
	f, out := collectFilter(Options{})
	id := wire.MustStreamID(1, 0)
	// Walk a window across the 16-bit wrap boundary.
	start := wire.Seq(65530)
	for i := 0; i < 12; i++ {
		f.Ingest(rcpt(id, start+wire.Seq(i))) // 65530..65535,0..5
	}
	if len(*out) != 12 {
		t.Fatalf("delivered %d, want 12", len(*out))
	}
	// Replays from before the wrap are duplicates, not fresh messages.
	f.Ingest(rcpt(id, 65531))
	f.Ingest(rcpt(id, 2))
	if len(*out) != 12 {
		t.Fatalf("wraparound replay accepted: %d", len(*out))
	}
	if st := f.Stats(); st.Duplicates != 2 {
		t.Fatalf("duplicates = %d, want 2", st.Duplicates)
	}
}

func TestFilterStreamsAreIndependent(t *testing.T) {
	f, out := collectFilter(Options{})
	a, b := wire.MustStreamID(1, 0), wire.MustStreamID(1, 1)
	f.Ingest(rcpt(a, 0))
	f.Ingest(rcpt(b, 0)) // same seq on a different stream is not a duplicate
	f.Ingest(rcpt(a, 0))
	if len(*out) != 2 {
		t.Fatalf("delivered %d, want 2", len(*out))
	}
	if st := f.Stats(); st.ActiveStreams != 2 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFilterLargeJumpClearsWindow(t *testing.T) {
	f, out := collectFilter(Options{windowSize: 64})
	id := wire.MustStreamID(1, 0)
	f.Ingest(rcpt(id, 0))
	f.Ingest(rcpt(id, 10_000))
	// 10_000 - 63 is inside the new window and unseen → accept.
	f.Ingest(rcpt(id, 10_000-63))
	if len(*out) != 3 {
		t.Fatalf("delivered %d, want 3", len(*out))
	}
	// Re-ingesting an accepted one must be a duplicate (bitmap intact).
	f.Ingest(rcpt(id, 10_000-63))
	if len(*out) != 3 {
		t.Fatal("bitmap lost after large jump")
	}
}

// Property: against a brute-force set-based reference, the filter delivers
// exactly the first copy of each sequence, for any interleaving drawn from
// a window-sized range.
func TestFilterMatchesReferenceProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		filter, out := collectFilter(Options{windowSize: 4096})
		id := wire.MustStreamID(9, 9)
		seen := map[wire.Seq]bool{}
		wantDelivered := 0
		for _, r := range raw {
			// Constrain to a window-sized range so the reference semantics
			// (set membership) and the windowed filter agree.
			seq := wire.Seq(r % 4096)
			if !seen[seq] {
				seen[seq] = true
				wantDelivered++
			}
			filter.Ingest(rcpt(id, seq))
		}
		return len(*out) == wantDelivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: delivered messages for a stream are always unique.
//
// Sequences are constrained to half the sequence space: RFC 1982 serial
// arithmetic cannot distinguish a replay whose interleaved forward jumps
// sum to a full 2^16 wrap from a genuinely new message (no windowed
// serial filter can), and unconstrained 16-bit random draws produce such
// full wraps routinely. Within a half-space the serial order is total,
// so uniqueness must hold exactly. Bounded wrap-around behaviour is
// pinned separately by TestFilterSurvivesSequenceWraparound.
func TestFilterNeverDeliversDuplicateProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		filter, out := collectFilter(Options{windowSize: 128})
		id := wire.MustStreamID(3, 3)
		for _, r := range raw {
			filter.Ingest(rcpt(id, wire.Seq(r%32768)))
		}
		counts := map[wire.Seq]int{}
		for _, d := range *out {
			counts[d.Msg.Seq]++
			if counts[d.Msg.Seq] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFilterAccountingInvariant(t *testing.T) {
	// received == delivered + duplicates + stale, under any input.
	f := func(raw []uint16) bool {
		filter, _ := collectFilter(Options{windowSize: 64})
		id := wire.MustStreamID(2, 1)
		for _, r := range raw {
			filter.Ingest(rcpt(id, wire.Seq(r)))
		}
		st := filter.Stats()
		return st.Received == st.Delivered+st.Duplicates+st.Stale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReorderReleasesInSequenceOrder(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var out []Delivery
	f := New(func(d Delivery) { out = append(out, d) },
		Options{ReorderWindow: 100 * time.Millisecond, Clock: clock})
	id := wire.MustStreamID(1, 0)

	at := func(seq wire.Seq, d time.Duration) receiver.Reception {
		rc := rcpt(id, seq)
		rc.At = clock.Now().Add(d)
		return rc
	}
	// Arrive out of order: 2, 0, 1.
	f.Ingest(at(2, 0))
	f.Ingest(at(0, 0))
	f.Ingest(at(1, 0))
	if len(out) != 0 {
		t.Fatalf("released before hold expired: %d", len(out))
	}
	clock.Advance(150 * time.Millisecond)
	if len(out) != 3 {
		t.Fatalf("released %d, want 3", len(out))
	}
	for i, d := range out {
		if d.Msg.Seq != wire.Seq(i) {
			t.Fatalf("release order %v at %d, want ascending", d.Msg.Seq, i)
		}
	}
}

func TestReorderBoundsHoldTime(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var out []Delivery
	f := New(func(d Delivery) { out = append(out, d) },
		Options{ReorderWindow: 100 * time.Millisecond, Clock: clock})
	id := wire.MustStreamID(1, 0)
	// A gap that never fills must not block later messages forever.
	f.Ingest(receiver.Reception{Msg: wire.Message{Stream: id, Seq: 0}, At: clock.Now()})
	f.Ingest(receiver.Reception{Msg: wire.Message{Stream: id, Seq: 5}, At: clock.Now()})
	clock.Advance(200 * time.Millisecond)
	if len(out) != 2 {
		t.Fatalf("released %d, want 2 (gap must not block)", len(out))
	}
}

func TestReorderStaggeredArrivals(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var out []Delivery
	f := New(func(d Delivery) { out = append(out, d) },
		Options{ReorderWindow: 50 * time.Millisecond, Clock: clock})
	id := wire.MustStreamID(1, 0)

	f.Ingest(receiver.Reception{Msg: wire.Message{Stream: id, Seq: 1}, At: clock.Now()})
	clock.Advance(20 * time.Millisecond)
	// Seq 0 arrives later but must still release first.
	f.Ingest(receiver.Reception{Msg: wire.Message{Stream: id, Seq: 0}, At: clock.Now()})
	clock.Advance(100 * time.Millisecond)

	if len(out) != 2 || out[0].Msg.Seq != 0 || out[1].Msg.Seq != 1 {
		var seqs []wire.Seq
		for _, d := range out {
			seqs = append(seqs, d.Msg.Seq)
		}
		t.Fatalf("release order %v, want [0 1]", seqs)
	}
}

func TestFlushReleasesPending(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var out []Delivery
	f := New(func(d Delivery) { out = append(out, d) },
		Options{ReorderWindow: time.Hour, Clock: clock})
	id := wire.MustStreamID(1, 0)
	f.Ingest(rcpt(id, 1))
	f.Ingest(rcpt(id, 0))
	f.Flush()
	if len(out) != 2 || out[0].Msg.Seq != 0 {
		t.Fatalf("Flush released %d in wrong order", len(out))
	}
	if f.Stats().Delivered != 2 {
		t.Fatal("Flush not counted as delivered")
	}
}

// A stream pays for reorder state only while it holds something: none
// before its first hold, none after Flush drains it — and an in-order
// stream then no rest at all.
func TestReorderStateLivesOnlyWhileHolding(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	f, _ := collectFilter(Options{ReorderWindow: time.Hour, Clock: clock})
	id := wire.MustStreamID(1, 0)
	reorderState := func() *Rest {
		sh := f.shardFor(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.tab.Get(id).rest
	}
	f.Ingest(rcpt(id, 0))
	if rs := reorderState(); rs == nil || rs.ro == nil {
		t.Fatal("a held message has no reorder state")
	}
	f.Flush()
	if ro := reorderState(); ro != nil {
		t.Fatalf("Flush left reorder state behind: %+v", ro)
	}
	f.Ingest(rcpt(id, 0)) // a duplicate: nothing to hold
	if ro := reorderState(); ro != nil {
		t.Fatalf("a rejected copy allocated reorder state: %+v", ro)
	}
}

func TestStatsCountStreams(t *testing.T) {
	f, _ := collectFilter(Options{})
	id := wire.MustStreamID(4, 4)
	if st := f.Stats(); st.ActiveStreams != 0 {
		t.Fatalf("fresh filter: %+v", st)
	}
	f.Ingest(rcpt(id, 0))
	f.Ingest(rcpt(id, 0))
	f.Ingest(rcpt(id, 1))
	if st := f.Stats(); st.ActiveStreams != 1 || st.Delivered != 2 || st.Duplicates != 1 {
		t.Fatalf("one stream, two unique, one duplicate: %+v", st)
	}
}

func TestFilterValidation(t *testing.T) {
	t.Run("nil sink", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		New(nil, Options{})
	})
	t.Run("reorder without clock", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		New(func(Delivery) {}, Options{ReorderWindow: time.Second})
	})
}

// TestBorrowedPayloadDetachedOnAccept: a Borrowed reception's payload
// aliases a frame buffer the receiver recycles after Ingest returns. The
// filter must copy the payload of accepted messages before handing them
// on — immediately or into the reorder buffer — so later reuse of the
// frame buffer cannot corrupt delivered data.
func TestBorrowedPayloadDetachedOnAccept(t *testing.T) {
	frame := []byte("payload-one")
	mk := func(seq wire.Seq) receiver.Reception {
		rc := rcpt(wire.MustStreamID(1, 0), seq)
		rc.Msg.Payload = frame
		rc.Borrowed = true
		return rc
	}

	t.Run("immediate", func(t *testing.T) {
		f, out := collectFilter(Options{})
		f.Ingest(mk(0))
		copy(frame, "SCRIBBLED!!") // receiver reuses the buffer
		if got := string((*out)[0].Msg.Payload); got != "payload-one" {
			t.Fatalf("delivered payload = %q, want the detached copy", got)
		}
		copy(frame, "payload-one")
	})

	t.Run("reorder-pending", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		var out []Delivery
		f := New(func(d Delivery) { out = append(out, d) },
			Options{ReorderWindow: time.Hour, Clock: clock})
		f.Ingest(mk(0))
		copy(frame, "SCRIBBLED!!") // buffer reused while the message is held
		f.Flush()
		if len(out) != 1 || string(out[0].Msg.Payload) != "payload-one" {
			t.Fatalf("flushed payload = %q, want the detached copy", out[0].Msg.Payload)
		}
		copy(frame, "payload-one")
	})

	t.Run("duplicate-not-copied", func(t *testing.T) {
		f, out := collectFilter(Options{})
		f.Ingest(mk(0))
		f.Ingest(mk(0)) // duplicate: dropped, payload never touched
		if len(*out) != 1 {
			t.Fatalf("delivered %d, want 1", len(*out))
		}
		if st := f.Stats(); st.Duplicates != 1 {
			t.Fatalf("duplicates = %d, want 1", st.Duplicates)
		}
	})
}

func TestWindowSizeRounding(t *testing.T) {
	f, out := collectFilter(Options{windowSize: 65}) // rounds to 128
	id := wire.MustStreamID(1, 0)
	f.Ingest(rcpt(id, 0))
	f.Ingest(rcpt(id, 127))
	f.Ingest(rcpt(id, 1)) // 126 back: inside a 128 window
	if len(*out) != 3 {
		t.Fatalf("delivered %d, want 3 (window should round up to 128)", len(*out))
	}
}
