// Package filtering implements the Filtering Service of §4.2: “The
// Filtering Service reconstructs the data streams by eliminating duplicate
// data messages. Filtered data is then forwarded to the Dispatching
// Service for delivery to subscribed consumer processes.”
//
// Duplicates arise by construction from overlapping receiver zones; the
// filter removes them with per-stream sequence windows using RFC 1982
// serial arithmetic, so streams survive 16-bit sequence wrap-around. An
// optional reorder stage releases messages in sequence order after a
// bounded hold, using the message “sequence or timing information … to
// allow messages to be correctly ordered” (§4.3).
//
// # Sharding
//
// Every reception funnels through the filter before it can reach the
// Dispatching Service, so the per-stream duplicate/reorder state is the
// ingest-side scalability choke point. It is partitioned into N shards
// (Options.Shards) keyed by the sensor component of the StreamID — the
// same key the dispatcher shards on — with shard-local mutexes, counters
// and reorder timers, so receptions on streams of different sensors never
// contend. The hot path is allocation-free at steady state: stream state
// sits in place in the shard's streamtab.Table, found through its
// single-entry last-hit cache before its index, counters are plain ints
// under the shard mutex, and reorder scratch storage is pooled.
//
// Receivers may hand the filter receptions whose payload aliases a leased
// frame buffer (Reception.Borrowed); the filter detaches (copies) the
// payload only for the receptions it accepts, so duplicate and stale
// copies — the common case under overlapping receiver zones — are screened
// out without the payload ever being copied.
package filtering

import (
	"time"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sim"
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
	// store. The filter never sets it; the core deployment tees accepted
	// deliveries into the store before dispatch and stamps it there, so
	// consumers, the Orphanage and the replay machinery all address
	// retained history with the same monotone key.
	StoreSeq uint64
}

// DefaultWindowSize is the default per-stream duplicate-detection window,
// in sequence numbers.
const DefaultWindowSize = 1024

// DefaultShards partitions the filter state unless Options.Shards says
// otherwise. Matches the dispatcher's default so a stream contends on at
// most one ingest lock and one dispatch lock end to end.
const DefaultShards = 16

// Options configures a Filter. The zero value uses DefaultWindowSize,
// DefaultShards and no reordering.
type Options struct {
	// windowSize is the per-stream duplicate window in sequence numbers;
	// it is rounded up to a power of two (minimum 64, maximum 65536, the
	// sequence space) so the circular bitmap indexes with a mask. 0 means
	// DefaultWindowSize. Only tests set it, to reach the window's edges
	// with short sequences.
	windowSize int
	// Shards partitions the per-stream filter state; <= 0 selects
	// DefaultShards. Every shard has its own lock, table and counters.
	Shards int
	// ReorderWindow, when positive, holds each message for at most this
	// long and releases messages in sequence order. Clock must be set.
	ReorderWindow time.Duration
	// Clock drives reorder timers; required iff ReorderWindow > 0.
	Clock sim.Clock
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

// Filter is the Filtering Service.
type Filter struct {
	opts   Options
	sink   func(Delivery)
	shards []*shard
}

// New creates a Filter forwarding unique messages to sink. New panics on a
// nil sink, or when ReorderWindow is set without a Clock (programming
// errors).
func New(sink func(Delivery), opts Options) *Filter {
	if sink == nil {
		panic("filtering: nil sink")
	}
	if opts.windowSize <= 0 {
		opts.windowSize = DefaultWindowSize
	}
	opts.windowSize = ceilPow2(opts.windowSize)
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.ReorderWindow > 0 && opts.Clock == nil {
		panic("filtering: ReorderWindow requires a Clock")
	}
	f := &Filter{opts: opts, sink: sink}
	f.shards = newShards(f, opts.Shards)
	return f
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

type pendingEntry struct {
	d       Delivery
	release time.Time
}

// streamFilter is one stream's duplicate/reorder state. The filter holds
// one for every stream ever heard, in place in its shard's table, so it
// keeps only what the screen of an in-order stream needs and packs into
// 16 bytes (a footprint test pins them): the contiguous seen range and one
// pointer to the rest, which only a stream that leaves the in-order
// regime or holds a message for reordering allocates. It holds no shard
// pointer — every caller reaches it through its shard and passes that in
// — and no per-stream counts or times: which streams exist, how many
// messages each published and when is the Stream Store's record.
type streamFilter struct {
	// rest is nil until the stream first needs a bitmap or a hold.
	rest *filterRest

	// span is the length of the contiguous seen range ending at base,
	// clamped to the window size; meaningful only while rest.window is
	// nil.
	span      int32
	base      wire.Seq // highest sequence seen, in serial order
	initiated bool
}

// filterRest is the part of a stream's filter state an in-order stream
// without reordering never allocates.
type filterRest struct {
	// window is a circular seen-bitmap over the last len(window)*64
	// sequence numbers: the bit for sequence s lives at position
	// s mod size (size is a power of two dividing the 16-bit sequence
	// space, so the position is stable across wrap-around). Advancing
	// the window by one — the in-order hot path — sets a single bit
	// instead of shifting the whole bitmap.
	//
	// Allocation is lazy: while every sequence has arrived in order the
	// seen set is the contiguous range [base-span+1, base] and window
	// stays nil — an idle in-order stream costs no bitmap at all. The
	// first gap or out-of-order arrival materialises the bitmap the
	// eager code would have had (exactly the span range set) and the
	// stream runs the bitmap path from then on.
	window []uint64

	// ro is the reorder stage's state, allocated on the stream's first
	// hold: nil without ReorderWindow, and nil again once Flush drains it.
	ro *reorder
}

// ownRest gives the stream its rest, allocating it on first use.
func (sf *streamFilter) ownRest() *filterRest {
	if sf.rest == nil {
		sf.rest = new(filterRest)
	}
	return sf.rest
}

// reorder is one stream's reorder-stage state (ReorderWindow > 0):
// pending entries sorted ascending by sequence, released front-first once
// held long enough. The backing array is retained across pops, so a
// warmed-up stream reorders without allocating (Flush releases it).
// releasing serialises timer fires per stream: a second fire while one is
// mid-sink would otherwise deliver later sequences before earlier ones on
// a real clock (AfterFunc callbacks run on independent goroutines).
//
// The release timer reaches the state through this object and its own
// shard, never through the stream's table record: Forget frees the record
// for the next new stream in the shard, so a fire already under way when
// Forget ran would otherwise act on another stream's state. Detached by
// Forget, the object has nothing pending, and such a fire does nothing.
type reorder struct {
	sh        *shard
	pending   []pendingEntry
	timer     sim.Timer
	releasing bool
}

// Ingest screens one reception. Unique messages reach the sink — either
// immediately (no reordering) or in sequence order after a bounded hold.
// Receptions marked Borrowed have their payload detached (copied) iff
// accepted; rejected copies never touch the payload.
func (f *Filter) Ingest(rc receiver.Reception) {
	sh := f.shardFor(rc.Msg.Stream)
	sh.mu.Lock()
	d, forward := sh.ingestLocked(&rc)
	sh.mu.Unlock()
	if forward {
		f.sink(d)
	}
}

// ingestLocked runs the per-message screen — dup window, payload
// detach, reorder hold — for one reception. It returns the accepted
// Delivery and forward=true when the message must reach the sink now;
// rejected and reorder-held messages return forward=false. Caller holds
// sh.mu.
func (sh *shard) ingestLocked(rc *receiver.Reception) (d Delivery, forward bool) {
	f := sh.f
	sh.received++
	sf := sh.tab.Get(rc.Msg.Stream)
	if sf == nil {
		sf = sh.tab.Add(rc.Msg.Stream)
	}
	if !sf.accept(sh, rc.Msg.Seq) {
		return Delivery{}, false
	}
	msg := rc.Msg
	if rc.Borrowed && len(msg.Payload) > 0 {
		owned := make([]byte, len(msg.Payload))
		copy(owned, msg.Payload)
		msg.Payload = owned
	}
	d = Delivery{Msg: msg, At: rc.At, Receiver: rc.Receiver, RSSI: rc.RSSI}

	if f.opts.ReorderWindow > 0 {
		sf.holdLocked(sh, d, rc.At.Add(f.opts.ReorderWindow))
		return Delivery{}, false
	}
	sh.delivered++
	return d, true
}

// bitPos locates seq's bit in the circular bitmap. Called with sh.mu held.
func (rs *filterRest) bitPos(seq wire.Seq) (word int, mask uint64) {
	i := uint32(seq) & uint32(len(rs.window)*64-1)
	return int(i >> 6), 1 << (i & 63)
}

// clearRange marks count consecutive sequence positions starting at from
// as unseen, clearing whole 64-bit words where the circular range spans
// them (count must be < the window size). Called with sh.mu held.
func (rs *filterRest) clearRange(from wire.Seq, count int) {
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
// Called with sh.mu held.
func (rs *filterRest) setRange(from wire.Seq, count int) {
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
// last span in-order sequences ending at base. Called with sh.mu held.
func (sf *streamFilter) materialize(sh *shard) {
	rs := sf.ownRest()
	rs.window = make([]uint64, sh.f.opts.windowSize/64)
	rs.setRange(sf.base-wire.Seq(sf.span)+1, int(sf.span))
}

// acceptLazy runs the duplicate screen while the stream has no bitmap —
// its seen set is the contiguous range [base-span+1, base]. It returns
// handled=false for the two decisions that need per-sequence bits (an
// in-window gap, a late recovery outside the contiguous range); the
// caller materialises the bitmap and reruns the eager path, which then
// makes the identical decision the eager code always made. Called with
// sh.mu held.
func (sf *streamFilter) acceptLazy(sh *shard, seq wire.Seq) (handled, ok bool) {
	size := sh.f.opts.windowSize
	if !sf.initiated {
		sf.initiated = true
		sf.base = seq
		sf.span = 1
		return true, true
	}
	d := sf.base.Distance(seq)
	switch {
	case d == 1: // in order: the contiguous range extends
		if int(sf.span) < size {
			sf.span++
		}
		sf.base = seq
		return true, true
	case d >= size:
		// The jump flushes the whole window: nothing previously seen is
		// still inside, so the seen set stays contiguous ({seq} alone)
		// and the stream stays lazy. The skipped numbers are gaps.
		sh.gaps += int64(d - 1)
		sf.base = seq
		sf.span = 1
		return true, true
	case d > 1:
		return false, false // first in-window gap: needs the bitmap
	case d == 0:
		sh.duplicates++
		return true, false
	default: // d < 0: an older sequence
		if -d >= size {
			sh.stale++
			return true, false
		}
		if int32(-d) < sf.span {
			// Inside the contiguous seen range: a duplicate.
			sh.duplicates++
			return true, false
		}
		return false, false // late recovery of a pre-span hole: needs the bitmap
	}
}

// accept runs the duplicate window; it reports whether seq is new. Called
// with sh.mu held.
func (sf *streamFilter) accept(sh *shard, seq wire.Seq) bool {
	if sf.rest == nil || sf.rest.window == nil {
		handled, ok := sf.acceptLazy(sh, seq)
		if handled {
			return ok
		}
		// The stream just left the in-order regime: build the bitmap it
		// would have had and fall through to the eager decision.
		sf.materialize(sh)
	}
	rs := sf.rest
	size := len(rs.window) * 64
	if !sf.initiated {
		// Reachable only from an eagerly seeded filter (the lazy-vs-eager
		// test): normally initiation runs on the lazy path, before any
		// bitmap exists.
		sf.initiated = true
		sf.base = seq
		w, m := rs.bitPos(seq)
		rs.window[w] = m
		return true
	}
	d := sf.base.Distance(seq)
	switch {
	case d > 0:
		// New highest sequence: advance the window to seq. Positions for
		// the skipped numbers (base+1 .. seq-1) re-enter the window as
		// gaps and must be marked unseen; the in-order case (d == 1)
		// skips nothing and sets a single bit.
		if d >= size {
			clear(rs.window)
		} else if d > 1 {
			rs.clearRange(sf.base+1, d-1)
		}
		if d > 1 {
			sh.gaps += int64(d - 1)
		}
		sf.base = seq
		w, m := rs.bitPos(seq)
		rs.window[w] |= m
		return true
	case d == 0:
		sh.duplicates++
		return false
	default: // d < 0: an older sequence
		if -d >= size {
			sh.stale++
			return false
		}
		w, m := rs.bitPos(seq)
		if rs.window[w]&m != 0 {
			sh.duplicates++
			return false
		}
		rs.window[w] |= m
		sh.recovered++
		return true
	}
}

// holdLocked inserts d into the stream's pending list sorted by
// sequence and (re)arms the release timer, allocating the stream's
// reorder state on its first hold. Caller holds sh.mu.
func (sf *streamFilter) holdLocked(sh *shard, d Delivery, release time.Time) {
	rs := sf.ownRest()
	if rs.ro == nil {
		rs.ro = &reorder{sh: sh}
	}
	ro := rs.ro
	// Insert sorted by serial sequence order.
	at := len(ro.pending)
	for i, p := range ro.pending {
		if d.Msg.Seq.Less(p.d.Msg.Seq) {
			at = i
			break
		}
	}
	ro.pending = append(ro.pending, pendingEntry{})
	copy(ro.pending[at+1:], ro.pending[at:])
	ro.pending[at] = pendingEntry{d: d, release: release}
	ro.armTimerLocked()
}

// armTimerLocked arms the release timer for the front entry, if any.
// Caller holds ro.sh.mu.
func (ro *reorder) armTimerLocked() {
	if len(ro.pending) == 0 {
		return
	}
	if ro.timer != nil {
		ro.timer.Stop()
	}
	clock := ro.sh.f.opts.Clock
	delay := ro.pending[0].release.Sub(clock.Now())
	ro.timer = clock.AfterFunc(delay, ro.release)
}

// popExpiredLocked moves every front entry whose hold has expired into
// *out, keeping the pending backing array for reuse. Caller holds sh.mu.
func (ro *reorder) popExpiredLocked(now time.Time, out *[]Delivery) {
	n := 0
	for n < len(ro.pending) && !ro.pending[n].release.After(now) {
		*out = append(*out, ro.pending[n].d)
		n++
	}
	if n == 0 {
		return
	}
	kept := copy(ro.pending, ro.pending[n:])
	clear(ro.pending[kept:]) // do not pin payloads in the spare capacity
	ro.pending = ro.pending[:kept]
}

// release forwards every front entry whose hold has expired, preserving
// sequence order (a not-yet-expired front entry blocks later ones; its
// expiry bounds the extra wait). It runs on the clock's timer goroutine
// and takes only its own shard's mutex. The timer is re-armed only after
// the sink calls finish, and overlapping fires bail out, so two timer
// goroutines can never sink one stream's messages out of order. A fire on
// state Flush or Forget took the entries from finds nothing expired and
// arms nothing.
func (ro *reorder) release() {
	sh := ro.sh
	f := sh.f
	out := getDeliverySlice()
	sh.mu.Lock()
	if ro.releasing {
		// Another fire is mid-sink; it re-checks and re-arms on exit.
		sh.mu.Unlock()
		putDeliverySlice(out)
		return
	}
	ro.releasing = true
	ro.popExpiredLocked(f.opts.Clock.Now(), out)
	sh.delivered += int64(len(*out))
	ro.timer = nil
	sh.mu.Unlock()
	for _, d := range *out {
		f.sink(d)
	}
	sh.mu.Lock()
	ro.releasing = false
	ro.armTimerLocked()
	sh.mu.Unlock()
	putDeliverySlice(out)
}

// takeHeldLocked stops the stream's release timer and hands back its held
// entries. The reorder state goes with them unless a fire is mid-sink:
// that one keeps it, finds pending empty on exit and re-arms nothing. A
// rest left with neither a bitmap nor reorder state goes too. Caller holds
// sh.mu.
func (sf *streamFilter) takeHeldLocked() []pendingEntry {
	rs := sf.rest
	if rs == nil || rs.ro == nil {
		return nil
	}
	ro := rs.ro
	if ro.timer != nil {
		ro.timer.Stop()
	}
	held := ro.pending
	ro.pending, ro.timer = nil, nil
	if !ro.releasing {
		rs.ro = nil
		if rs.window == nil {
			sf.rest = nil
		}
	}
	return held
}

// Flush immediately releases all held messages (in per-stream sequence
// order) and frees the per-stream reorder state — a drained stream keeps
// only its duplicate-window state, so mass-idle fields do not pin reorder
// memory. Call when shutting down a deployment with reordering enabled.
func (f *Filter) Flush() {
	out := getDeliverySlice()
	for _, sh := range f.shards {
		sh.mu.Lock()
		for _, sf := range sh.tab.All() {
			held := sf.takeHeldLocked()
			for _, p := range held {
				*out = append(*out, p.d)
			}
			sh.delivered += int64(len(held))
		}
		sh.mu.Unlock()
	}
	for _, d := range *out {
		f.sink(d)
	}
	putDeliverySlice(out)
}

// Forget drops the per-stream filter state for id — duplicate window,
// reorder backlog and timer — so a mass-detached sensor does not pin
// ingest-side memory forever. Held reorder entries are discarded, not
// delivered (the caller is detaching the stream; Flush first to drain).
// If the stream resumes, it re-initiates like a brand-new stream. It
// reports whether state existed.
func (f *Filter) Forget(id wire.StreamID) bool {
	sh := f.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sf := sh.tab.Get(id)
	if sf == nil {
		return false
	}
	sf.takeHeldLocked()
	return sh.tab.Delete(id)
}

// Stats returns an aggregate snapshot summed across shards.
func (f *Filter) Stats() Stats {
	st := Stats{Shards: len(f.shards)}
	for _, sh := range f.shards {
		sh.mu.Lock()
		st.Received += sh.received
		st.Delivered += sh.delivered
		st.Duplicates += sh.duplicates
		st.Stale += sh.stale
		st.Gaps += sh.gaps
		st.GapsRecovered += sh.recovered
		st.ActiveStreams += sh.tab.Len()
		sh.mu.Unlock()
	}
	return st
}
