package filtering

import (
	"sync"

	"github.com/garnet-middleware/garnet/internal/wire"
)

// shard is one partition of the per-stream filter state. The partition
// key is the sensor component of the StreamID — the same key the
// Dispatching Service shards on — so every stream of a sensor lands in
// one shard and an Ingest call takes exactly one shard mutex. Reorder
// timers re-acquire only their own shard's mutex when they fire, so
// pending-release work on one shard never blocks ingest on another.
type shard struct {
	f  *Filter
	mu sync.Mutex

	filters map[wire.StreamID]*streamFilter

	// Single-entry lookup cache: sensors emit runs of messages on the
	// same stream, so the common case skips the map hash entirely.
	// Guarded by mu like everything else here.
	lastID wire.StreamID
	last   *streamFilter

	// Hot-path counters are plain ints mutated only under mu — cheaper
	// than atomics on every ingest. Stats sums them per shard.
	received   int64
	delivered  int64
	duplicates int64
	stale      int64
	gaps       int64
	recovered  int64
}

// newShards builds the shard table.
func newShards(f *Filter, n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{f: f, filters: make(map[wire.StreamID]*streamFilter)}
	}
	return shards
}

// shardFor picks the stream's home shard with wire.SensorID.Shard — the
// same partition function the dispatcher uses, so a stream's filter and
// dispatch state partition identically.
func (f *Filter) shardFor(id wire.StreamID) *shard {
	return f.shards[id.Sensor().Shard(len(f.shards))]
}

// lookupSlowLocked finds or creates the stream's filter state on a
// single-entry-cache miss and refreshes the cache. The dup-window bitmap
// is NOT allocated here: an in-order stream tracks its contiguous seen
// range with base/span alone, and the bitmap materialises on the first
// gap or out-of-order arrival (see streamFilter.accept). Caller holds
// sh.mu; the cache-hit path lives inline in ingestLocked.
func (sh *shard) lookupSlowLocked(id wire.StreamID) *streamFilter {
	sf, ok := sh.filters[id]
	if !ok {
		sf = &streamFilter{sh: sh}
		sh.filters[id] = sf
	}
	sh.lastID, sh.last = id, sf
	return sf
}

// deliverySlices pools the scratch slices release and Flush hand
// expired deliveries through, so steady-state reordering allocates
// nothing per timer fire.
var deliverySlices = sync.Pool{
	New: func() any { return new([]Delivery) },
}

func getDeliverySlice() *[]Delivery { return deliverySlices.Get().(*[]Delivery) }

func putDeliverySlice(p *[]Delivery) {
	// Zero the entries so pooled storage does not pin payloads or
	// receiver strings until the slice is next used.
	clear(*p)
	*p = (*p)[:0]
	deliverySlices.Put(p)
}
