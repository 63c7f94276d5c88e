package dispatch

import (
	"slices"
	"sync"

	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// shard is one partition of the subscription table. Exact and by-sensor
// subscriptions are shard-local: the partition key is the sensor component
// of the StreamID, so every stream of a sensor — and therefore every
// subscription that can match it by id — lands in the same shard, and a
// Dispatch call takes exactly one shard lock. Wildcard (All/Where)
// subscriptions live in the dispatcher's shared read-mostly index instead.
// A shard holds subscriptions only: which streams exist, and when they
// were last seen, is the Stream Store's record, not the dispatcher's.
//
// Each key maps to a port list ordered by port.seq, one entry per
// subscription (a consumer subscribed twice appears twice). The lists are
// copy-on-write: a subscription change builds a new slice under mu and
// never writes a published one, so Dispatch reads two slice headers under
// mu and merges them after releasing it.
type shard struct {
	mu     sync.Mutex
	exact  map[wire.StreamID][]*port
	sensor map[wire.SensorID][]*port

	// Hot-path counters are shard-local so concurrent publishes on
	// different shards never contend on one shared counter; Stats sums
	// them.
	dispatched metrics.Counter
	delivered  metrics.Counter
	orphaned   metrics.Counter
}

// newShards builds the shard table.
func newShards(n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{
			exact:  make(map[wire.StreamID][]*port),
			sensor: make(map[wire.SensorID][]*port),
		}
	}
	return shards
}

// The partition function lives on wire.SensorID (SensorID.Shard) so the
// Filtering Service shards on the identical key and a stream contends on
// at most one ingest lock and one dispatch lock end to end.

// updateLocked adds one entry of sub's port to the list its pattern
// selects, or removes one. Caller holds mu.
func (s *shard) updateLocked(sub *subscription, add bool) {
	if sub.pattern.Kind == KindExact {
		update(s.exact, sub.pattern.Stream, sub.port, add)
	} else {
		update(s.sensor, sub.pattern.Sensor, sub.port, add)
	}
}

// update replaces m[k] by a new list with one entry of p more or fewer,
// and deletes k when that list is empty.
func update[K comparable](m map[K][]*port, k K, p *port, add bool) {
	ps := m[k]
	if add {
		i := seqIndex(ps, p)
		m[k] = slices.Concat(ps[:i], []*port{p}, ps[i:])
	} else if i := slices.Index(ps, p); len(ps) > 1 {
		m[k] = slices.Concat(ps[:i], ps[i+1:])
	} else {
		delete(m, k)
	}
}

// seqIndex is where p goes in ps, a list ordered by port.seq: before the
// first entry created after it.
func seqIndex(ps []*port, p *port) int {
	i := 0
	for i < len(ps) && ps[i].seq <= p.seq {
		i++
	}
	return i
}

// mergePorts appends to dst, in port.seq order, every port of the lists,
// each ordered by port.seq, once: a port matched by several subscriptions
// is delivered to once.
func mergePorts(dst []*port, lists ...[]*port) []*port {
	for {
		var next *port
		for _, l := range lists {
			if len(l) > 0 && (next == nil || l[0].seq < next.seq) {
				next = l[0]
			}
		}
		if next == nil {
			return dst
		}
		for i, l := range lists {
			if len(l) > 0 && l[0] == next {
				lists[i] = l[1:]
			}
		}
		if len(dst) == 0 || dst[len(dst)-1] != next {
			dst = append(dst, next)
		}
	}
}

// insertPort puts p into dst, ordered by port.seq, unless it is there.
func insertPort(dst []*port, p *port) []*port {
	i := seqIndex(dst, p)
	if i > 0 && dst[i-1] == p {
		return dst
	}
	return slices.Insert(dst, i, p)
}
