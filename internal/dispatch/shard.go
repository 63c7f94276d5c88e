package dispatch

import (
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
type shard struct {
	mu     sync.Mutex
	exact  map[wire.StreamID]map[SubscriptionID]*subscription
	sensor map[wire.SensorID]map[SubscriptionID]*subscription

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
			exact:  make(map[wire.StreamID]map[SubscriptionID]*subscription),
			sensor: make(map[wire.SensorID]map[SubscriptionID]*subscription),
		}
	}
	return shards
}

// The partition function lives on wire.SensorID (SensorID.Shard) so the
// Filtering Service shards on the identical key and a stream contends on
// at most one ingest lock and one dispatch lock end to end.

// addExactLocked inserts sub into the shard's exact index.
func (s *shard) addExactLocked(sub *subscription) {
	m := s.exact[sub.pattern.Stream]
	if m == nil {
		m = make(map[SubscriptionID]*subscription)
		s.exact[sub.pattern.Stream] = m
	}
	m[sub.id] = sub
}

// addSensorLocked inserts sub into the shard's by-sensor index.
func (s *shard) addSensorLocked(sub *subscription) {
	m := s.sensor[sub.pattern.Sensor]
	if m == nil {
		m = make(map[SubscriptionID]*subscription)
		s.sensor[sub.pattern.Sensor] = m
	}
	m[sub.id] = sub
}

// removeLocked deletes sub from whichever shard index holds it.
func (s *shard) removeLocked(sub *subscription) {
	switch sub.pattern.Kind {
	case KindExact:
		delete(s.exact[sub.pattern.Stream], sub.id)
		if len(s.exact[sub.pattern.Stream]) == 0 {
			delete(s.exact, sub.pattern.Stream)
		}
	case KindSensor:
		delete(s.sensor[sub.pattern.Sensor], sub.id)
		if len(s.sensor[sub.pattern.Sensor]) == 0 {
			delete(s.sensor, sub.pattern.Sensor)
		}
	}
}
