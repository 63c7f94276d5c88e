package filtering

import (
	"sync"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/streamtab"
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
// Reorder timers re-acquire only their own shard's mutex when they fire.
type shard struct {
	mu sync.Mutex
	// tab holds every stream's screen state in place, guarded by mu.
	tab    streamtab.Table[streamFilter]
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
// nil sink, or when ReorderWindow is set without a Clock (programming
// errors).
func New(sink func(Delivery), opts Options) *Filter {
	if sink == nil {
		panic("filtering: nil sink")
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	f := &Filter{sink: sink, shards: make([]*shard, opts.Shards)}
	for i := range f.shards {
		sh := new(shard)
		sh.screen.Init(opts, &sh.mu, nil, sink)
		f.shards[i] = sh
	}
	return f
}

// shardFor picks the stream's home shard with wire.SensorID.Shard — the
// same partition function the store and the dispatcher use.
func (f *Filter) shardFor(id wire.StreamID) *shard {
	return f.shards[id.Sensor().Shard(len(f.shards))]
}

// Ingest screens one reception. Unique messages reach the sink — either
// immediately (no reordering) or in sequence order after a bounded hold.
// Receptions marked Borrowed have their payload detached (copied) iff
// accepted; rejected copies never touch the payload.
func (f *Filter) Ingest(rc receiver.Reception) {
	sh := f.shardFor(rc.Msg.Stream)
	sh.mu.Lock()
	sf := sh.tab.Get(rc.Msg.Stream)
	if sf == nil {
		sf = sh.tab.Add(rc.Msg.Stream)
	}
	d, forward := sh.screen.IngestLocked(&sf.Window, &sf.rest, &rc)
	sh.mu.Unlock()
	if forward {
		f.sink(d)
	}
}

// Flush immediately releases all held messages (in per-stream sequence
// order) and frees the per-stream reorder state — a drained stream keeps
// only its duplicate-window state. Call when shutting down with
// reordering enabled.
func (f *Filter) Flush() {
	var out []Delivery
	for _, sh := range f.shards {
		sh.mu.Lock()
		for _, sf := range sh.tab.All() {
			sh.screen.FlushLocked(&sf.rest, &out)
		}
		sh.mu.Unlock()
	}
	for _, d := range out {
		f.sink(d)
	}
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
	sh.screen.forgetLocked(&sf.Window, &sf.rest)
	return sh.tab.Delete(id)
}

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
