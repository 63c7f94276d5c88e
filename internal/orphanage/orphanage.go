// Package orphanage implements the Orphanage of §4.2: “a default consumer
// process which receives un-configured data. There, data messages are
// analysed and potentially stored.”
//
// The Orphanage no longer buffers payloads itself: retained deliveries
// live in the Stream Store (internal/store), and the Orphanage is a thin
// policy view over it — per unclaimed stream it keeps arrival statistics
// (the analysis a policy layer can act on) and a backlog window expressed
// as a pair of store sequence cursors. Claiming a stream is a cursor
// hand-off: the window is read out of the store (or, via ClaimCursor,
// handed to the replay machinery without materialising anything) and the
// view is dropped; there is no second buffer to copy or invalidate. The
// silence min-heap drives stream-level eviction (maxStreams pressure and
// EvictBefore age sweeps), and an evicted stream's retained data is
// forgotten in the store — the Orphanage is the garbage collector for
// unclaimed-stream retention.
package orphanage

import (
	"container/heap"
	"sort"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Defaults for Options.
const (
	DefaultPerStreamCapacity = 128
	DefaultMaxStreams        = 1024
)

// Options configures an Orphanage. The zero value uses the defaults above
// with no age-based eviction.
type Options struct {
	// PerStreamCapacity bounds the backlog window per stream; the oldest
	// messages fall out of the window first. The backing store must
	// retain at least this many messages per stream for claims to return
	// the full window (the deployment floors the store's count bound to
	// guarantee it; a store-level byte or age bound can still shrink a
	// window, and Info/Stats report the shrunken truth).
	PerStreamCapacity int
	// maxStreams bounds the number of simultaneously held streams; the
	// stream silent the longest is evicted first. Tests set it; zero
	// selects DefaultMaxStreams.
	maxStreams int
}

// Info describes one orphaned stream (the Orphanage's analysis output).
type Info struct {
	Stream    wire.StreamID
	Seen      int64 // total messages observed
	Buffered  int   // messages currently in the backlog window
	Bytes     int64 // payload bytes currently in the window
	FirstSeen time.Time
	LastSeen  time.Time
	// Rate is the observed mean message rate in messages/second, or 0
	// when fewer than two messages have been seen.
	Rate float64
}

// Stats is an aggregate snapshot.
type Stats struct {
	StreamsHeld     int
	MessagesHeld    int
	TotalSeen       int64
	MessagesDropped int64 // fell out of a per-stream backlog window
	StreamsEvicted  int64 // discarded by maxStreams pressure or EvictBefore
	Claims          int64
}

// orphanStream is the per-stream view: one allocation per unclaimed
// stream held, so the narrow fields — the 32-bit id, the window count
// and the heap index, none of which can approach 2³¹ under the
// maxStreams/PerStreamCapacity bounds — pack together at the tail
// rather than each paying a word. The footprint test pins the ceiling.
type orphanStream struct {
	firstExt  uint64 // store seq of the oldest message in the window
	lastExt   uint64 // store seq of the newest message in the window
	seen      int64
	firstSeen time.Time
	lastSeen  time.Time
	id        wire.StreamID
	// buffered is the policy count driving window advancement; what the
	// window actually holds is read back from the store (Info, Stats),
	// so store-side byte/age eviction inside the window can never make
	// the view overstate a claim.
	buffered int32
	heapIdx  int32 // position in the silence heap
}

// silenceHeap orders held streams by lastSeen (oldest-silent first), so
// maxStreams eviction pops its victim in O(log n) instead of scanning
// every held stream.
type silenceHeap []*orphanStream

func (h silenceHeap) Len() int           { return len(h) }
func (h silenceHeap) Less(i, j int) bool { return h[i].lastSeen.Before(h[j].lastSeen) }
func (h silenceHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = int32(i)
	h[j].heapIdx = int32(j)
}
func (h *silenceHeap) Push(x any) {
	st := x.(*orphanStream)
	st.heapIdx = int32(len(*h))
	*h = append(*h, st)
}
func (h *silenceHeap) Pop() any {
	old := *h
	n := len(old)
	st := old[n-1]
	old[n-1] = nil
	st.heapIdx = -1
	*h = old[:n-1]
	return st
}

// Orphanage is the default consumer for unclaimed data.
type Orphanage struct {
	opts Options
	// st is the deployment's shared store: it keeps data beyond the
	// orphan window, so late subscribers can replay more than the
	// backlog.
	st *store.Store

	mu      sync.Mutex
	streams map[wire.StreamID]*orphanStream
	silence silenceHeap // same streams, keyed by lastSeen

	totalSeen metrics.Counter
	dropped   metrics.Counter
	evicted   metrics.Counter
	claims    metrics.Counter
}

// NewWithStore creates an Orphanage as a policy view over st. Deliveries
// from a deployment reach Consume carrying their store sequence
// (Delivery.StoreSeq), stamped by its store tee.
func NewWithStore(opts Options, st *store.Store) *Orphanage {
	return &Orphanage{
		opts:    withDefaults(opts),
		st:      st,
		streams: make(map[wire.StreamID]*orphanStream),
	}
}

func withDefaults(opts Options) Options {
	if opts.PerStreamCapacity <= 0 {
		opts.PerStreamCapacity = DefaultPerStreamCapacity
	}
	if opts.maxStreams <= 0 {
		opts.maxStreams = DefaultMaxStreams
	}
	return opts
}

// Name implements dispatch.Consumer.
func (o *Orphanage) Name() string { return "orphanage" }

// Consume notes one unclaimed delivery and advances the stream's backlog
// window. It is the Dispatcher's orphan sink and also satisfies
// dispatch.Consumer. Deliveries without a store sequence (fed straight
// in, outside a deployment's store tee) are appended to the store first.
func (o *Orphanage) Consume(d filtering.Delivery) {
	if d.StoreSeq == 0 {
		d.StoreSeq = o.st.Append(d)
	}
	o.totalSeen.Inc()
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.streams[d.Msg.Stream]
	if !ok {
		if len(o.streams) >= o.opts.maxStreams {
			o.evictStalestLocked()
		}
		st = &orphanStream{
			id:       d.Msg.Stream,
			firstExt: d.StoreSeq, lastExt: d.StoreSeq,
			firstSeen: d.At, lastSeen: d.At,
		}
		o.streams[d.Msg.Stream] = st
		heap.Push(&o.silence, st)
	}
	st.seen++
	st.lastSeen = d.At
	heap.Fix(&o.silence, int(st.heapIdx))
	if d.StoreSeq < st.firstExt {
		st.firstExt = d.StoreSeq // late out-of-order fill extends the window down
	}
	if d.StoreSeq > st.lastExt {
		st.lastExt = d.StoreSeq
	}
	st.buffered++
	if int(st.buffered) > o.opts.PerStreamCapacity {
		// Advance the window past the oldest retained message.
		o.dropped.Inc()
		if seq, _, ok := o.st.OldestSince(st.id, st.firstExt); ok {
			st.firstExt = seq + 1
		}
		st.buffered--
	}
}

// evictStalestLocked drops the stream silent the longest — the root of
// the silence heap, in O(log n) — and forgets its retained data.
func (o *Orphanage) evictStalestLocked() {
	if len(o.silence) == 0 {
		return
	}
	st := heap.Pop(&o.silence).(*orphanStream)
	delete(o.streams, st.id)
	o.evicted.Inc()
	o.st.Forget(st.id)
}

// Claim atomically removes the stream's view and returns the backlog
// window materialised from the store, oldest first. A late subscriber
// calls this (via the middleware facade) to recover data produced before
// it subscribed. ok is false when the stream is not held.
func (o *Orphanage) Claim(id wire.StreamID) (backlog []filtering.Delivery, ok bool) {
	from, to, _, ok := o.claimCursor(id)
	if !ok {
		return nil, false
	}
	return o.st.Range(id, from, to), true
}

// ClaimCursor removes the stream's view and hands back its backlog window
// as store-sequence cursors — the zero-copy claim the replay machinery
// uses: nothing is materialised, the caller replays [from, to] straight
// out of the store. n is the window's message count; ok is false when the
// stream is not held.
func (o *Orphanage) ClaimCursor(id wire.StreamID) (from, to uint64, n int, ok bool) {
	return o.claimCursor(id)
}

// PeekCursor is ClaimCursor without the hand-off: the view stays held.
// Callers that must not lose the backlog on a downstream failure peek
// first and claim only once the hand-off has succeeded.
func (o *Orphanage) PeekCursor(id wire.StreamID) (from, to uint64, n int, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.streams[id]
	if !ok {
		return 0, 0, 0, false
	}
	return st.firstExt, st.lastExt, int(st.buffered), true
}

func (o *Orphanage) claimCursor(id wire.StreamID) (from, to uint64, n int, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.streams[id]
	if !ok {
		return 0, 0, 0, false
	}
	delete(o.streams, id)
	heap.Remove(&o.silence, int(st.heapIdx))
	o.claims.Inc()
	return st.firstExt, st.lastExt, int(st.buffered), true
}

// Streams lists every held stream with its analysis, sorted by id. The
// store is queried for each stream's window after the view lock is
// released, so a big analysis dump never stalls the orphan data path.
func (o *Orphanage) Streams() []Info {
	o.mu.Lock()
	out := make([]Info, 0, len(o.streams))
	windows := make([]seqWindow, 0, len(o.streams))
	for id, st := range o.streams {
		out = append(out, o.infoLocked(id, st))
		windows = append(windows, seqWindow{st.firstExt, st.lastExt})
	}
	o.mu.Unlock()
	for i := range out {
		out[i].Buffered, out[i].Bytes = o.st.WindowStats(out[i].Stream, windows[i].from, windows[i].to)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

type seqWindow struct{ from, to uint64 }

// StreamInfo returns the analysis for one stream.
func (o *Orphanage) StreamInfo(id wire.StreamID) (Info, bool) {
	o.mu.Lock()
	st, ok := o.streams[id]
	if !ok {
		o.mu.Unlock()
		return Info{}, false
	}
	info := o.infoLocked(id, st)
	win := seqWindow{st.firstExt, st.lastExt}
	o.mu.Unlock()
	info.Buffered, info.Bytes = o.st.WindowStats(id, win.from, win.to)
	return info, true
}

// infoLocked fills everything except Buffered/Bytes, which the callers
// read back from the store outside the view lock — they are then exactly
// what a Claim would materialise, even when a store-level byte or age
// bound has evicted inside the window.
func (o *Orphanage) infoLocked(id wire.StreamID, st *orphanStream) Info {
	info := Info{
		Stream:    id,
		Seen:      st.seen,
		FirstSeen: st.firstSeen,
		LastSeen:  st.lastSeen,
	}
	if st.seen >= 2 {
		if span := st.lastSeen.Sub(st.firstSeen).Seconds(); span > 0 {
			info.Rate = float64(st.seen-1) / span
		}
	}
	return info
}

// EvictBefore discards every stream whose last message predates cutoff,
// returning the number evicted. A deployment policy typically calls this
// periodically: the silence heap yields victims oldest first, so the call
// costs O(evicted · log n) rather than a scan of every held stream, and
// each victim's retained data is forgotten in the store — the heap-driven
// sweep is what ages unclaimed data out of the retention layer.
func (o *Orphanage) EvictBefore(cutoff time.Time) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for len(o.silence) > 0 && o.silence[0].lastSeen.Before(cutoff) {
		o.evictStalestLocked()
		n++
	}
	return n
}

// Stats returns an aggregate snapshot. MessagesHeld sums the policy
// window counts in O(held streams) — under a store-level byte or age
// bound it can overstate what claims will materialise; the per-stream
// Info views report the store-read truth.
func (o *Orphanage) Stats() Stats {
	o.mu.Lock()
	held := 0
	for _, st := range o.streams {
		held += int(st.buffered)
	}
	streams := len(o.streams)
	o.mu.Unlock()
	return Stats{
		StreamsHeld:     streams,
		MessagesHeld:    held,
		TotalSeen:       o.totalSeen.Value(),
		MessagesDropped: o.dropped.Value(),
		StreamsEvicted:  o.evicted.Value(),
		Claims:          o.claims.Value(),
	}
}
