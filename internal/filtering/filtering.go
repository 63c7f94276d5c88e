// Package filtering implements the Filtering Service of §4.2: “The
// Filtering Service reconstructs the data streams by eliminating duplicate
// data messages. Filtered data is then forwarded to the Dispatching
// Service for delivery to subscribed consumer processes.”
//
// Duplicates arise by construction from overlapping receiver zones; the
// filter removes them with per-stream sequence windows using RFC 1982
// serial arithmetic, so streams survive 16-bit sequence wrap-around.
//
// # Ordering
//
// The screen removes copies; it never holds a message back. Live delivery
// follows the arrival order of each message's first accepted copy, so a
// late fill of a gap is delivered after the sequences that overtook it.
// A consumer that needs the message “sequence or timing information … to
// allow messages to be correctly ordered” (§4.3) reads history instead:
// Replay and Range, and the catch-up of SubscribeWithReplay, return a
// stream in StoreSeq order, which is sequence order.
//
// # Where the screen lives
//
// The screen is written once and kept by whichever layer owns a stream's
// record. Each stream has a Window (the in-order regime, four bytes) and a
// *Rest (the bitmap, nil until the stream first leaves the in-order
// regime); each shard of streams has a Screen (window size and counters).
// The record's owner keeps the first two in its record and the third in
// its shard, and calls the Screen's methods under its own shard lock.
//
// In a deployment that owner is the Stream Store: its per-stream record
// holds the window beside the retention ring, so a reception is screened
// and appended — its StoreSeq assigned — in one critical section with one
// table lookup (store.Store.Ingest). Filter, below, is the same screen in
// a table of its own: a standalone entry point for code that wires the
// layers by hand and for this package's tests. It is not on any
// deployment's path.
//
// # Sharding
//
// Every reception is screened before it can reach the Dispatching
// Service, so the per-stream duplicate state is partitioned into shards
// keyed by the sensor component of the StreamID — the key the Stream
// Store and the dispatcher shard on — with shard-local locks and
// counters, so receptions on streams of different sensors never contend.
// In a deployment a stream takes one lock to be screened and retained and
// one to be dispatched. The hot path is allocation-free at steady state:
// the window sits in place in its owner's record and counters are plain
// ints under the shard lock.
//
// Receivers may hand the screen receptions whose payload aliases a leased
// frame buffer (Reception.Borrowed); the screen detaches (copies) the
// payload only for the receptions it accepts, so duplicate and stale
// copies — the common case under overlapping receiver zones — are screened
// out without the payload ever being copied.
package filtering

import (
	"fmt"
	"math"
	"time"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Delivery is one reconstructed (unique) stream message on its way to the
// Dispatching Service.
type Delivery struct {
	Msg wire.Message
	// At is the reception time of the accepted copy. Live deliveries
	// carry the receiver's clock reading as taken; history replayed from
	// the Stream Store carries the same instant (Equal, not ==) without
	// its location or monotonic reading.
	At       time.Time
	Receiver string // receiver that heard the accepted copy
	RSSI     float64
	// StoreSeq is the Stream Store's 64-bit extended sequence assigned
	// when the delivery was retained (the 16-bit wire Seq wraps; the
	// store unwraps it monotonically). 0 means the delivery bypassed the
	// store. The screen never sets it; the store stamps it when it
	// appends, so consumers, the Orphanage and the replay machinery all
	// address retained history with the same monotone key.
	StoreSeq uint64
}

// DefaultWindowSize is the default per-stream duplicate-detection window,
// in sequence numbers.
const DefaultWindowSize = 1024

// Options configures a Filter or a Screen. The zero value uses
// DefaultWindowSize and wire.Shards.
type Options struct {
	// windowSize is the per-stream duplicate window in sequence numbers;
	// it is rounded up to a power of two (minimum 64, maximum 65536, the
	// sequence space) so the circular bitmap indexes with a mask. 0 means
	// DefaultWindowSize. Only tests set it, to reach the window's edges
	// with short sequences.
	windowSize int
	// shards overrides wire.Shards, the number of partitions of the
	// standalone Filter's per-stream state. Only in-package tests set it,
	// to hold one table against many. A Screen ignores it: it serves its
	// owner's shards.
	shards int
}

// Stats is an aggregate snapshot of filter activity.
type Stats struct {
	Received      int64 // receptions ingested
	Delivered     int64 // unique messages forwarded
	Duplicates    int64 // copies suppressed
	Stale         int64 // older than the window; dropped
	Gaps          int64 // sequence numbers skipped (provisionally lost)
	GapsRecovered int64 // skipped numbers later filled by a late copy
	ActiveStreams int   // streams with filter state
	Shards        int   // state partitions
}

// Check verifies the screen's conservation identity
//
//	Received == Delivered + Duplicates + Stale
//
// every reception is forwarded once or dropped for exactly one reason.
func (s Stats) Check() error {
	if s.Received != s.Delivered+s.Duplicates+s.Stale {
		return fmt.Errorf("received %d != delivered %d + duplicates %d + stale %d",
			s.Received, s.Delivered, s.Duplicates, s.Stale)
	}
	return nil
}

// ceilPow2 rounds n up to a power of two in [64, 65536]. The upper bound
// is the 16-bit sequence space: a window that large can never declare a
// message stale, only duplicate.
func ceilPow2(n int) int {
	p := 64
	for p < n && p < wire.SeqCount {
		p <<= 1
	}
	return p
}

// Window is one stream's duplicate screen in the in-order regime: while
// every sequence has arrived in order the seen set is the contiguous range
// [base-span+1, base], and that is all an idle stream keeps. Its owner
// keeps it in place in the stream's record, beside the stream's *Rest.
type Window struct {
	base wire.Seq // highest sequence seen, in serial order
	// span is the length of the contiguous seen range ending at base,
	// clamped to the window size and to 65535; meaningful only while the
	// stream has no bitmap. 0 means no sequence has been seen yet: every
	// path that starts a window sets it to at least 1, and nothing sets it
	// back to 0.
	span uint16
}

// Rest is the part of a stream's screen an in-order stream never
// allocates.
type Rest struct {
	// window is a circular seen-bitmap over the last len(window)*64
	// sequence numbers: the bit for sequence s lives at position
	// s mod size (size is a power of two dividing the 16-bit sequence
	// space, so the position is stable across wrap-around). Advancing
	// the window by one — the in-order hot path — sets a single bit
	// instead of shifting the whole bitmap.
	//
	// Allocation is lazy: the first gap or out-of-order arrival
	// materialises the bitmap the eager code would have had (exactly the
	// span range set) and the stream runs the bitmap path from then on.
	window []uint64
}

// Screen is one shard's share of the screen: the window size every stream
// in the shard is screened with, and the counters. Its owner keeps it
// beside its stream records and calls every method ending in Locked under
// its shard lock.
type Screen struct {
	size    int // window size in sequence numbers, a power of two
	maxSpan int // Window.span's clamp: min(size, 65535)

	// Counters are plain ints mutated only under the owner's lock —
	// cheaper than atomics on every ingest.
	received   int64
	delivered  int64
	duplicates int64
	stale      int64
	gaps       int64
	recovered  int64
	streams    int // windows started
}

// Init readies sc with opts' window size (shards is not read).
func (sc *Screen) Init(opts Options) {
	if opts.windowSize <= 0 {
		opts.windowSize = DefaultWindowSize
	}
	size := ceilPow2(opts.windowSize)
	*sc = Screen{size: size, maxSpan: min(size, math.MaxUint16)}
}

// AddStatsLocked adds the shard's counters and screened streams to st.
func (sc *Screen) AddStatsLocked(st *Stats) {
	st.Received += sc.received
	st.Delivered += sc.delivered
	st.Duplicates += sc.duplicates
	st.Stale += sc.stale
	st.Gaps += sc.gaps
	st.GapsRecovered += sc.recovered
	st.ActiveStreams += sc.streams
}

// IngestLocked runs the per-message screen — dup window, payload detach —
// for one reception on the stream whose window and rest are w and *rest.
// It returns the accepted Delivery and true when the message is new;
// duplicate and stale copies return false.
func (sc *Screen) IngestLocked(w *Window, rest **Rest, rc *receiver.Reception) (Delivery, bool) {
	sc.received++
	if !sc.accept(w, rest, rc.Msg.Seq) {
		return Delivery{}, false
	}
	msg := rc.Msg
	if rc.Borrowed && len(msg.Payload) > 0 {
		owned := make([]byte, len(msg.Payload))
		copy(owned, msg.Payload)
		msg.Payload = owned
	}
	sc.delivered++
	return Delivery{Msg: msg, At: rc.At, Receiver: rc.Receiver, RSSI: rc.RSSI}, true
}

// bitPos locates seq's bit in the circular bitmap.
func (rs *Rest) bitPos(seq wire.Seq) (word int, mask uint64) {
	i := uint32(seq) & uint32(len(rs.window)*64-1)
	return int(i >> 6), 1 << (i & 63)
}

// clearRange marks count consecutive sequence positions starting at from
// as unseen, clearing whole 64-bit words where the circular range spans
// them (count must be < the window size).
func (rs *Rest) clearRange(from wire.Seq, count int) {
	size := len(rs.window) * 64
	i := int(uint32(from) & uint32(size-1))
	for count > 0 {
		off := i & 63
		n := 64 - off
		if n > count {
			n = count
		}
		// n bits starting at off; off+n <= 64, and n == 64 yields a
		// full-word mask.
		mask := (^uint64(0) >> (64 - n)) << off
		rs.window[i>>6] &^= mask
		count -= n
		if i += n; i == size {
			i = 0
		}
	}
}

// setRange marks count consecutive sequence positions starting at from as
// seen — clearRange's dual, used when materialising a lazy window.
func (rs *Rest) setRange(from wire.Seq, count int) {
	size := len(rs.window) * 64
	i := int(uint32(from) & uint32(size-1))
	for count > 0 {
		off := i & 63
		n := 64 - off
		if n > count {
			n = count
		}
		mask := (^uint64(0) >> (64 - n)) << off
		rs.window[i>>6] |= mask
		count -= n
		if i += n; i == size {
			i = 0
		}
	}
}

// materialize allocates the bitmap for a stream leaving the contiguous
// regime, reproducing exactly the bits the eager code would have set: the
// last span in-order sequences ending at base. A span clamped at 65535 in
// a 65536 window leaves unset only the position of base+1, which the next
// advance sets or clears before any backward probe can reach it.
func (sc *Screen) materialize(w *Window, rest **Rest) *Rest {
	rs := &Rest{window: make([]uint64, sc.size/64)}
	*rest = rs
	rs.setRange(w.base-wire.Seq(w.span)+1, int(w.span))
	return rs
}

// start begins a window at seq, the stream's first sequence.
func (sc *Screen) start(w *Window, seq wire.Seq) {
	w.base, w.span = seq, 1
	sc.streams++
}

// acceptLazy runs the duplicate screen while the stream has no bitmap —
// its seen set is the contiguous range [base-span+1, base]. It returns
// handled=false for the two decisions that need per-sequence bits (an
// in-window gap, a late recovery outside the contiguous range); the
// caller materialises the bitmap and reruns the eager path, which then
// makes the identical decision the eager code always made.
func (sc *Screen) acceptLazy(w *Window, seq wire.Seq) (handled, ok bool) {
	if w.span == 0 {
		sc.start(w, seq)
		return true, true
	}
	d := w.base.Distance(seq)
	switch {
	case d == 1: // in order: the contiguous range extends
		if int(w.span) < sc.maxSpan {
			w.span++
		}
		w.base = seq
		return true, true
	case d >= sc.size:
		// The jump flushes the whole window: nothing previously seen is
		// still inside, so the seen set stays contiguous ({seq} alone)
		// and the stream stays lazy. The skipped numbers are gaps.
		sc.gaps += int64(d - 1)
		w.base, w.span = seq, 1
		return true, true
	case d > 1:
		return false, false // first in-window gap: needs the bitmap
	case d == 0:
		sc.duplicates++
		return true, false
	default: // d < 0: an older sequence
		if -d >= sc.size {
			sc.stale++
			return true, false
		}
		if -d < int(w.span) {
			// Inside the contiguous seen range: a duplicate.
			sc.duplicates++
			return true, false
		}
		return false, false // late recovery of a pre-span hole: needs the bitmap
	}
}

// accept runs the duplicate window; it reports whether seq is new.
func (sc *Screen) accept(w *Window, rest **Rest, seq wire.Seq) bool {
	rs := *rest
	if rs == nil {
		handled, ok := sc.acceptLazy(w, seq)
		if handled {
			return ok
		}
		// The stream just left the in-order regime: build the bitmap it
		// would have had and fall through to the eager decision.
		rs = sc.materialize(w, rest)
	}
	size := len(rs.window) * 64
	if w.span == 0 {
		// Reachable only from an eagerly seeded filter (the lazy-vs-eager
		// test): normally a window starts on the lazy path, before any
		// bitmap exists.
		sc.start(w, seq)
		wd, m := rs.bitPos(seq)
		rs.window[wd] = m
		return true
	}
	d := w.base.Distance(seq)
	switch {
	case d > 0:
		// New highest sequence: advance the window to seq. Positions for
		// the skipped numbers (base+1 .. seq-1) re-enter the window as
		// gaps and must be marked unseen; the in-order case (d == 1)
		// skips nothing and sets a single bit.
		if d >= size {
			clear(rs.window)
		} else if d > 1 {
			rs.clearRange(w.base+1, d-1)
		}
		if d > 1 {
			sc.gaps += int64(d - 1)
		}
		w.base = seq
		wd, m := rs.bitPos(seq)
		rs.window[wd] |= m
		return true
	case d == 0:
		sc.duplicates++
		return false
	default: // d < 0: an older sequence
		if -d >= size {
			sc.stale++
			return false
		}
		wd, m := rs.bitPos(seq)
		if rs.window[wd]&m != 0 {
			sc.duplicates++
			return false
		}
		rs.window[wd] |= m
		sc.recovered++
		return true
	}
}
