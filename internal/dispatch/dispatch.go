// Package dispatch implements the Dispatching Service of §4.2: delivery of
// reconstructed data streams to subscribed consumer processes through a
// publish/subscribe mechanism that keeps consumers mutually unaware of one
// another, and detection of un-configured streams, which are routed to the
// Orphanage.
//
// The StreamID in a data message “implicitly identifies the source of the
// message, while the end destinations are inferred” (§5, delayed delivery
// decision-making): sensors never address consumers; the dispatcher's
// subscription table is the sole place delivery decisions are made. It is
// also all the dispatcher keeps: stream advertising reads which streams
// exist from the Stream Store, which every delivery passes through before
// it is dispatched, and asks the dispatcher only whether each is
// subscribed (Subscribed).
//
// # Sharding
//
// The subscription table is partitioned into N shards (Options.Shards) so
// concurrent publishes on different streams never contend on one lock. The
// partition key is the sensor component of the StreamID: every stream of a
// sensor, and therefore every Exact or BySensor subscription that can
// match it, lands in the same shard, so a Dispatch call takes exactly one
// shard mutex. Wildcard subscriptions (All/Where) cannot be assigned to a
// shard; they live in a small shared read-mostly index published as an
// atomic snapshot, which the hot path reads without locking. Control-plane
// operations (Subscribe, Unsubscribe, Start, Stop) serialise on one
// dispatcher mutex and rebuild the wildcard snapshot; the data plane never
// takes it.
//
// Two delivery modes exist. Synchronous mode invokes consumers inline and
// is used by the deterministic simulation and the benchmarks; asynchronous
// mode gives every consumer a bounded queue drained by a dedicated,
// lifecycle-managed goroutine, with an explicit overflow policy
// (drop-oldest by default) so one slow consumer can never stall the
// pipeline or another consumer. Each async queue is one lock-free ring
// (internal/ring): publishing shards enqueue with a CAS-claimed slot and
// wake a parked drainer through a two-state atomic, so concurrent
// publishers to one consumer never serialise on a queue mutex. Once a
// port has caught up (SubscribeWithReplay) or is closing, its producers
// decide gate, replay floor and shutdown under the port's mutex and then
// enqueue into the same ring, which adopts a replay batch as a segment
// instead of copying it (see port). An enqueue that finds the drainer
// awake pays one atomic load; one that finds it parked pays a channel
// send and a goroutine wake, so a drainer that finds its queue empty
// yields its turn once and looks again before it parks (port.run): the
// share of enqueues that wake a sleeping drainer — Wakeups() /
// Stats().Delivered — fell from 0.57 to 0.20 on the deployment
// benchmark's 16-consumer fan-out.
// The drainer coalesces up to DefaultBatchSize pending deliveries per
// take and hands them to the consumer in one ConsumeBatch call when the
// consumer implements BatchConsumer, or replays them through Consume one
// by one otherwise; either way per-stream FIFO order is preserved.
package dispatch

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Consumer is a destination for stream deliveries. Implementations must be
// comparable (use pointer receivers) because the dispatcher de-duplicates
// deliveries per consumer, and must not block in Consume when the
// dispatcher runs in synchronous mode.
type Consumer interface {
	// Name identifies the consumer in diagnostics and keys per-consumer
	// accounting (Stats.DroppedByConsumer): consumers sharing a name
	// share those counters.
	Name() string
	// Consume handles one delivery.
	Consume(d filtering.Delivery)
}

// BatchConsumer is a Consumer that can accept several queued deliveries in
// one call. In asynchronous mode the drainer coalesces up to
// DefaultBatchSize pending deliveries per take and hands them to
// ConsumeBatch in queue (per-stream FIFO) order. The slice is reused
// between calls: implementations must not retain it or its backing array
// past the call.
type BatchConsumer interface {
	Consumer
	// ConsumeBatch handles a batch of deliveries in order.
	ConsumeBatch(ds []filtering.Delivery)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc struct {
	ConsumerName string
	Fn           func(filtering.Delivery)
}

// Name implements Consumer.
func (c *ConsumerFunc) Name() string { return c.ConsumerName }

// Consume implements Consumer.
func (c *ConsumerFunc) Consume(d filtering.Delivery) { c.Fn(d) }

// BatchConsumerFunc adapts a batch function to the BatchConsumer
// interface. Consume wraps single deliveries into one-element batches, so
// the same implementation serves both delivery modes.
type BatchConsumerFunc struct {
	ConsumerName string
	Fn           func(ds []filtering.Delivery)
}

// Name implements Consumer.
func (c *BatchConsumerFunc) Name() string { return c.ConsumerName }

// Consume implements Consumer.
func (c *BatchConsumerFunc) Consume(d filtering.Delivery) {
	c.Fn([]filtering.Delivery{d})
}

// ConsumeBatch implements BatchConsumer.
func (c *BatchConsumerFunc) ConsumeBatch(ds []filtering.Delivery) { c.Fn(ds) }

// PatternKind selects the subscription matching rule.
type PatternKind int

const (
	// KindExact matches one StreamID.
	KindExact PatternKind = iota + 1
	// KindSensor matches every stream of one sensor.
	KindSensor
	// KindAll matches every stream.
	KindAll
	// KindWhere matches streams by predicate.
	KindWhere
)

// Pattern describes which streams a subscription selects.
type Pattern struct {
	Kind   PatternKind
	Stream wire.StreamID             // KindExact
	Sensor wire.SensorID             // KindSensor
	Where  func(m wire.Message) bool // KindWhere
}

// Exact subscribes to a single stream.
func Exact(id wire.StreamID) Pattern { return Pattern{Kind: KindExact, Stream: id} }

// BySensor subscribes to every stream of a sensor.
func BySensor(id wire.SensorID) Pattern { return Pattern{Kind: KindSensor, Sensor: id} }

// All subscribes to every stream.
func All() Pattern { return Pattern{Kind: KindAll} }

// Where subscribes by predicate over the message (stream id, flags, seq —
// the payload is opaque but its length is visible).
func Where(fn func(m wire.Message) bool) Pattern { return Pattern{Kind: KindWhere, Where: fn} }

// Mode selects the delivery mechanism.
type Mode int

const (
	// ModeSync delivers inline on the dispatching goroutine.
	ModeSync Mode = iota + 1
	// ModeAsync delivers through per-consumer bounded queues.
	ModeAsync
)

// overflowPolicy says what happens when an async consumer queue is full.
type overflowPolicy int

const (
	// dropOldest discards the queue head to admit the new delivery.
	dropOldest overflowPolicy = iota + 1
	// dropNewest discards the incoming delivery.
	dropNewest
)

// DefaultQueueCapacity bounds each async consumer queue. The buffer is a
// deliberate, documented decision: it absorbs fan-out bursts while the
// overflow policy guarantees a slow consumer only ever harms itself. The
// bound is not an allocation: a queue grows toward it only as far as its
// backlog does (see port).
const DefaultQueueCapacity = 256

// DefaultShards partitions the subscription table unless Options.Shards
// says otherwise. Sixteen shard headers cost nothing at rest and remove
// essentially all lock contention up to a few dozen concurrently
// publishing streams.
const DefaultShards = 16

// DefaultBatchSize bounds how many queued deliveries an async drainer
// hands to a consumer per take (fewer when the queue capacity is
// smaller).
const DefaultBatchSize = 32

// Options configures a Dispatcher. The zero value means synchronous mode
// with DefaultShards table shards.
type Options struct {
	Mode          Mode
	QueueCapacity int // per-consumer, ModeAsync only
	// Shards partitions the subscription table; <= 0 selects
	// DefaultShards. 1 restores the single-table behaviour.
	Shards int

	// overflow is the async queues' policy, dropOldest unless an
	// in-package test asks for dropNewest: a deployment always keeps the
	// newest reading of a stream.
	overflow overflowPolicy
}

// Stats is a snapshot of dispatcher counters.
type Stats struct {
	Dispatched    int64 // deliveries entering the dispatcher
	Delivered     int64 // per-consumer deliveries out
	Orphaned      int64 // deliveries with no matching subscription
	Dropped       int64 // async overflow discards
	Subscriptions int
	Consumers     int
	Shards        int
	// DroppedByConsumer breaks queue-level drops down per consumer
	// name, so a deployment can tell which slow consumer is shedding
	// load. Accounting keys on Consumer.Name(): give consumers unique
	// names or their drop counts merge. Deliveries discarded because
	// the whole dispatcher was stopped reach no consumer queue and are
	// counted only in Dropped, so the per-consumer values can sum to
	// less than Dropped.
	DroppedByConsumer map[string]int64
}

// SubscriptionID identifies a subscription for Unsubscribe.
type SubscriptionID uint64

type subscription struct {
	id      SubscriptionID
	pattern Pattern
	port    *port
}

// Dispatcher is the Dispatching Service.
type Dispatcher struct {
	opts Options

	// Data-plane state: per-shard tables, the wildcard snapshot, the
	// orphan sink and the stop flag are all reachable without the
	// control-plane mutex.
	shards  []*shard
	wild    atomic.Pointer[[]*subscription] // All/Where, read-mostly
	orphan  atomic.Pointer[func(filtering.Delivery)]
	stopped atomic.Bool

	// Control plane, serialised on mu.
	mu       sync.Mutex
	nextSub  SubscriptionID
	nextPort uint64 // port.seq of the last port created
	subs     map[SubscriptionID]*subscription
	wildSubs map[SubscriptionID]*subscription // source of truth behind wild
	ports    map[Consumer]*port
	started  bool
	wg       sync.WaitGroup

	// dispatched/delivered/orphaned live on the shards (summed by Stats);
	// drop and wakeup accounting is dispatcher-global because ports share
	// it.
	dropped   metrics.Counter
	droppedBy metrics.LabeledCounter
	wakeups   metrics.Counter
}

// Errors returned by Subscribe.
var (
	ErrStopped    = errors.New("dispatch: dispatcher stopped")
	ErrBadPattern = errors.New("dispatch: invalid pattern")
)

// New creates a Dispatcher. Synchronous dispatchers are ready immediately;
// asynchronous ones need Start.
func New(opts Options) *Dispatcher {
	if opts.Mode == 0 {
		opts.Mode = ModeSync
	}
	if opts.QueueCapacity <= 0 {
		opts.QueueCapacity = DefaultQueueCapacity
	}
	if opts.overflow == 0 {
		opts.overflow = dropOldest
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	d := &Dispatcher{
		opts:     opts,
		shards:   newShards(opts.Shards),
		subs:     make(map[SubscriptionID]*subscription),
		wildSubs: make(map[SubscriptionID]*subscription),
		ports:    make(map[Consumer]*port),
	}
	empty := make([]*subscription, 0)
	d.wild.Store(&empty)
	return d
}

// SetOrphanSink routes un-configured data (no matching subscription) to fn
// — in a full deployment, the Orphanage. A nil fn discards orphans.
func (d *Dispatcher) SetOrphanSink(fn func(filtering.Delivery)) {
	if fn == nil {
		d.orphan.Store(nil)
		return
	}
	d.orphan.Store(&fn)
}

// Start launches async consumer workers. It is a no-op in ModeSync and
// idempotent otherwise.
func (d *Dispatcher) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started || d.opts.Mode != ModeAsync {
		d.started = true
		return
	}
	d.started = true
	for _, p := range d.ports {
		d.startPortLocked(p)
	}
}

// portForLocked returns c's delivery port, creating it — and, in a
// started async dispatcher, launching its worker — on first use. Caller
// holds mu and manages the reference count.
func (d *Dispatcher) portForLocked(c Consumer) *port {
	p, ok := d.ports[c]
	if !ok {
		p = newPort(c, d.opts.QueueCapacity, d.opts.overflow,
			d.opts.Mode == ModeAsync,
			&d.dropped, d.droppedBy.With(c.Name()))
		p.wakeups = &d.wakeups
		d.nextPort++
		p.seq = d.nextPort
		d.ports[c] = p
		if d.opts.Mode == ModeAsync && d.started {
			d.startPortLocked(p)
		}
	}
	return p
}

func (d *Dispatcher) startPortLocked(p *port) {
	if p.running {
		return
	}
	p.running = true
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		p.run()
	}()
}

// Stop halts delivery. In async mode it closes all consumer queues and
// waits for the workers to drain. Deliveries arriving after Stop are
// counted as dropped.
func (d *Dispatcher) Stop() {
	d.mu.Lock()
	if d.stopped.Load() {
		d.mu.Unlock()
		return
	}
	d.stopped.Store(true)
	ports := make([]*port, 0, len(d.ports))
	for _, p := range d.ports {
		ports = append(ports, p)
	}
	d.mu.Unlock()
	for _, p := range ports {
		p.close()
	}
	d.wg.Wait()
}

// publishWildLocked rebuilds the read-mostly wildcard snapshot from
// wildSubs. Caller holds mu.
func (d *Dispatcher) publishWildLocked() {
	snap := make([]*subscription, 0, len(d.wildSubs))
	for _, sub := range d.wildSubs {
		snap = append(snap, sub)
	}
	// Stable iteration order keeps the snapshot deterministic for tests
	// that inspect fan-out order (ports are sorted again per dispatch).
	sort.Slice(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
	d.wild.Store(&snap)
}

// Subscribe registers consumer c for streams matching pattern. The same
// consumer may hold several subscriptions; a message matching more than
// one is still delivered to c once.
func (d *Dispatcher) Subscribe(c Consumer, pattern Pattern) (SubscriptionID, error) {
	if c == nil {
		return 0, fmt.Errorf("%w: nil consumer", ErrBadPattern)
	}
	switch pattern.Kind {
	case KindExact, KindSensor, KindAll:
	case KindWhere:
		if pattern.Where == nil {
			return 0, fmt.Errorf("%w: KindWhere needs a predicate", ErrBadPattern)
		}
	default:
		return 0, fmt.Errorf("%w: kind %d", ErrBadPattern, pattern.Kind)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped.Load() {
		return 0, ErrStopped
	}
	p := d.portForLocked(c)
	p.refs++

	d.nextSub++
	sub := &subscription{id: d.nextSub, pattern: pattern, port: p}
	d.subs[sub.id] = sub
	switch pattern.Kind {
	case KindExact:
		sh := d.shardFor(pattern.Stream.Sensor())
		sh.mu.Lock()
		sh.addExactLocked(sub)
		sh.mu.Unlock()
	case KindSensor:
		sh := d.shardFor(pattern.Sensor)
		sh.mu.Lock()
		sh.addSensorLocked(sub)
		sh.mu.Unlock()
	default:
		d.wildSubs[sub.id] = sub
		d.publishWildLocked()
	}
	return sub.id, nil
}

// Unsubscribe removes a subscription; it reports whether the id was live.
// When a consumer's last subscription goes away its queue is closed.
func (d *Dispatcher) Unsubscribe(id SubscriptionID) bool {
	d.mu.Lock()
	sub, ok := d.subs[id]
	if !ok {
		d.mu.Unlock()
		return false
	}
	delete(d.subs, id)
	switch sub.pattern.Kind {
	case KindExact:
		sh := d.shardFor(sub.pattern.Stream.Sensor())
		sh.mu.Lock()
		sh.removeLocked(sub)
		sh.mu.Unlock()
	case KindSensor:
		sh := d.shardFor(sub.pattern.Sensor)
		sh.mu.Lock()
		sh.removeLocked(sub)
		sh.mu.Unlock()
	default:
		delete(d.wildSubs, id)
		d.publishWildLocked()
	}
	sub.port.refs--
	var toClose *port
	if sub.port.refs == 0 {
		delete(d.ports, sub.port.consumer)
		toClose = sub.port
	}
	d.mu.Unlock()
	if toClose != nil {
		toClose.close()
	}
	return true
}

func (d *Dispatcher) shardFor(id wire.SensorID) *shard {
	return d.shards[id.Shard(len(d.shards))]
}

// Dispatch delivers one reconstructed message to every matching consumer,
// or to the orphan sink when nothing matches. Concurrent Dispatch calls on
// streams of different sensors proceed on disjoint shards without
// contending; calls on the same stream serialise briefly on its shard
// mutex, and per-stream delivery order follows Dispatch call order as
// before.
func (d *Dispatcher) Dispatch(del filtering.Delivery) {
	sh := d.shardFor(del.Msg.Stream.Sensor())
	sh.dispatched.Inc()
	if d.stopped.Load() {
		d.dropped.Inc()
		return
	}

	sh.mu.Lock()
	// Collect matching ports into pooled scratch; duplicates (one consumer
	// holding several matching subscriptions) are removed after the sort
	// below, so the hot path allocates nothing.
	tp := getPortSlice()
	targets := (*tp)[:0]
	for _, sub := range sh.exact[del.Msg.Stream] {
		targets = append(targets, sub.port)
	}
	for _, sub := range sh.sensor[del.Msg.Stream.Sensor()] {
		targets = append(targets, sub.port)
	}
	sh.mu.Unlock()

	// Wildcard subscriptions: lock-free read of the shared snapshot.
	for _, sub := range *d.wild.Load() {
		if sub.pattern.Kind == KindAll || sub.pattern.Where(del.Msg) {
			targets = append(targets, sub.port)
		}
	}
	// Deterministic fan-out order for the synchronous mode; equal seq
	// means same port, so after sorting duplicates are adjacent and one
	// Compact pass de-duplicates per consumer in O(n log n) total. A
	// single target is both already.
	*tp = targets // keep the grown backing (and everything to clear) with the pool
	if len(targets) > 1 {
		targets = sortPorts(targets)
	}
	d.deliverTargets(sh, del, targets)
	putPortSlice(tp)
}

// sortPorts orders a fan-out set deterministically by port creation
// order and removes duplicates (one consumer holding several matching
// subscriptions), in place.
func sortPorts(targets []*port) []*port {
	slices.SortFunc(targets, func(a, b *port) int { return cmp.Compare(a.seq, b.seq) })
	return slices.Compact(targets)
}

// deliverTargets fans one delivery out to a sorted, de-duplicated target
// set, or hands it to the orphan sink when the set is empty.
func (d *Dispatcher) deliverTargets(sh *shard, del filtering.Delivery, targets []*port) {
	if len(targets) == 0 {
		sh.orphaned.Inc()
		if orphan := d.orphan.Load(); orphan != nil {
			(*orphan)(del)
		}
		return
	}
	for _, p := range targets {
		if d.opts.Mode == ModeSync {
			// A port mid catch-up (SubscribeWithReplay) diverts live
			// deliveries behind its gate — they are delivered, and
			// counted, once the replay batch has gone ahead of them —
			// and a port with replay floors drops late copies of
			// history a replay batch already covered.
			if (p.gated.Load() || p.hasFloors.Load()) && p.tryHold(del) {
				continue
			}
			sh.delivered.Inc()
			p.consumer.Consume(del)
			continue
		}
		if p.enqueue(del) {
			sh.delivered.Inc()
		}
	}
}

// portSlices pools the fan-out scratch so Dispatch resolves targets
// without allocating at steady state.
var portSlices = sync.Pool{
	New: func() any { return new([]*port) },
}

func getPortSlice() *[]*port { return portSlices.Get().(*[]*port) }

func putPortSlice(p *[]*port) {
	clear(*p) // do not pin ports of unsubscribed consumers
	*p = (*p)[:0]
	portSlices.Put(p)
}

// SubscribeWithReplay subscribes c to a single stream and replays a
// backlog ahead of live delivery, through the same consumer port, so the
// two can never invert or interleave: the subscription is registered with
// the port's catch-up gate closed, fetch() is then called (typically a
// Stream Store range read) to materialise the backlog, the backlog is
// placed, and finally the live deliveries that arrived during catch-up
// are flushed behind it — minus any that carry a store sequence already
// covered by the replay batch, the seq-based dedupe at the claim
// boundary. fetch runs without dispatcher locks held and must return
// deliveries in ascending StoreSeq order. The slice fetch returns belongs
// to the port afterwards: an async port's ring adopts it as a segment
// instead of copying it and zeroes each element as it is delivered, so
// fetch must return memory nothing else reads or writes again (a fresh
// store.Range result is exactly that). It returns the subscription id and
// the number of backlog messages replayed.
func (d *Dispatcher) SubscribeWithReplay(c Consumer, stream wire.StreamID, fetch func() []filtering.Delivery) (SubscriptionID, int, error) {
	if c == nil {
		return 0, 0, fmt.Errorf("%w: nil consumer", ErrBadPattern)
	}
	d.mu.Lock()
	if d.stopped.Load() {
		d.mu.Unlock()
		return 0, 0, ErrStopped
	}
	p := d.portForLocked(c)
	p.refs++
	p.beginGate()
	d.nextSub++
	sub := &subscription{id: d.nextSub, pattern: Exact(stream), port: p}
	d.subs[sub.id] = sub
	sh := d.shardFor(stream.Sensor())
	sh.mu.Lock()
	sh.addExactLocked(sub)
	sh.mu.Unlock()
	d.mu.Unlock()

	replay := fetch()
	n := len(replay)
	p.endGate(replay, stream, d.opts.Mode == ModeSync, sh)
	return sub.id, n, nil
}

// Subscribed reports whether at least one live subscription matches
// stream id — the subscription side of stream discovery. Where predicates
// see a Message carrying only the id, and run with no dispatcher lock
// held, so a predicate may call back into the dispatcher.
func (d *Dispatcher) Subscribed(id wire.StreamID) bool {
	sh := d.shardFor(id.Sensor())
	sh.mu.Lock()
	byID := len(sh.exact[id]) > 0 || len(sh.sensor[id.Sensor()]) > 0
	sh.mu.Unlock()
	if byID {
		return true
	}
	for _, sub := range *d.wild.Load() {
		if sub.pattern.Kind == KindAll || sub.pattern.Where(wire.Message{Stream: id}) {
			return true
		}
	}
	return false
}

// Wakeups counts the enqueues that found a consumer's drainer parked and
// paid to wake it: a CAS, a channel send and a goroutine wake on the
// publishing thread. Over Stats().Delivered it is the hand-off's
// efficiency — near 0 when drainers stay busy or come back to batches,
// near 1 when every delivery wakes a sleeping consumer. It is always 0 in
// synchronous mode. Unlike the Stats counters it depends on how
// publishers and drainers happen to interleave, which is why it is not a
// Stats field: two runs of one script agree on Stats, not on this.
func (d *Dispatcher) Wakeups() int64 { return d.wakeups.Value() }

// Stats returns a snapshot of dispatcher counters.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	subs, consumers := len(d.subs), len(d.ports)
	d.mu.Unlock()
	st := Stats{
		Dropped:           d.dropped.Value(),
		Subscriptions:     subs,
		Consumers:         consumers,
		Shards:            len(d.shards),
		DroppedByConsumer: d.droppedBy.Snapshot(),
	}
	for _, sh := range d.shards {
		st.Dispatched += sh.dispatched.Value()
		st.Delivered += sh.delivered.Value()
		st.Orphaned += sh.orphaned.Value()
	}
	return st
}
