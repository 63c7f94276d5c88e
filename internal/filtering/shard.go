package filtering

import (
	"sync"

	"github.com/garnet-middleware/garnet/internal/streamtab"
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

	// tab holds every stream's filter state in place, guarded by mu.
	tab streamtab.Table[streamFilter]

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
		shards[i] = &shard{f: f}
	}
	return shards
}

// shardFor picks the stream's home shard with wire.SensorID.Shard — the
// same partition function the dispatcher uses, so a stream's filter and
// dispatch state partition identically.
func (f *Filter) shardFor(id wire.StreamID) *shard {
	return f.shards[id.Sensor().Shard(len(f.shards))]
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
