package filtering

import (
	"cmp"
	"sync"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Filter is the screen in a table of its own: the standalone Filtering
// Service, for code that wires the layers by hand and for the screen's
// own tests. A deployment screens inside the Stream Store instead
// (store.Store.Ingest), where a stream's window shares its retention
// record; this type goes once nothing wires the layers by hand.
type Filter struct {
	sink   func(Delivery)
	shards []*shard
}

// shard is one partition of the standalone filter's state. The partition
// key is the sensor component of the StreamID — the same key the Stream
// Store and the Dispatching Service shard on — so every stream of a sensor
// lands in one shard and an Ingest call takes exactly one shard mutex.
type shard struct {
	mu sync.Mutex
	// tab holds every stream's screen state, guarded by mu.
	tab    map[wire.StreamID]*streamFilter
	screen Screen
}

// streamFilter is one stream's record in the standalone filter: the
// window and the pointer to the rest, 16 bytes (a footprint test pins
// them). Which streams exist, how many messages each published and when is
// the Stream Store's record, not this one.
type streamFilter struct {
	rest *Rest
	Window
}

// New creates a Filter forwarding unique messages to sink. New panics on a
// nil sink (a programming error).
func New(sink func(Delivery), opts Options) *Filter {
	if sink == nil {
		panic("filtering: nil sink")
	}
	f := &Filter{sink: sink, shards: make([]*shard, cmp.Or(opts.shards, wire.Shards))}
	for i := range f.shards {
		sh := &shard{tab: make(map[wire.StreamID]*streamFilter)}
		sh.screen.Init(opts)
		f.shards[i] = sh
	}
	return f
}

// shardFor picks the stream's home shard with wire.SensorID.Shard — the
// same partition function the store and the dispatcher use.
func (f *Filter) shardFor(id wire.StreamID) *shard {
	return f.shards[id.Sensor().Shard(len(f.shards))]
}

// Ingest screens one reception. Unique messages reach the sink at once,
// in arrival order. Receptions marked Borrowed have their payload
// detached (copied) iff accepted; rejected copies never touch the payload.
func (f *Filter) Ingest(rc receiver.Reception) {
	sh := f.shardFor(rc.Msg.Stream)
	sh.mu.Lock()
	sf := sh.tab[rc.Msg.Stream]
	if sf == nil {
		sf = new(streamFilter)
		sh.tab[rc.Msg.Stream] = sf
	}
	d, forward := sh.screen.IngestLocked(&sf.Window, &sf.rest, &rc)
	sh.mu.Unlock()
	if forward {
		f.sink(d)
	}
}

// Flush does nothing: the screen holds nothing back, so a stopping
// caller has nothing to release. It stays because bench/'s hand-wired
// chain calls it as it stops (ROADMAP item 2 deletes that chain).
func (f *Filter) Flush() {}

// Stats returns an aggregate snapshot summed across shards.
func (f *Filter) Stats() Stats {
	st := Stats{Shards: len(f.shards)}
	for _, sh := range f.shards {
		sh.mu.Lock()
		sh.screen.AddStatsLocked(&st)
		sh.mu.Unlock()
	}
	return st
}
