package dispatch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/ring"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// port is one consumer's delivery endpoint: in async mode a bounded FIFO
// drained by a dedicated worker goroutine; in sync mode just the consumer
// reference (the ring stays nil).
//
// # Async fast path
//
// The steady-state async queue is a lock-free MPSC ring: publishing
// shards CAS-claim a slot and publish it with a sequence stamp, and the
// single drainer batch-consumes without taking any lock. Waking a parked
// drainer is a two-state atomic plus a buffered-channel token
// (ring.Waiter): one atomic load per enqueue while the drainer is awake,
// a CAS, a channel send and a goroutine wake when it is parked. The
// drainer looks twice before it parks (see run), because a drainer that
// parks on its first empty look is parked for most enqueues: 57 % on
// bench's fixednet_fanout, 20 % with the second look. Dispatcher.Wakeups
// counts the enqueues that paid.
//
// # Async queue
//
// The ring is the port's only queue; steady fan-out needs it lock-free
// (with a mutex-guarded queue instead, bench's fixednet_fanout lost 28 %
// of its ops_per_s on 2 vCPUs; CHANGES.md, PR 23). The catch-up gate,
// the replay floors and shutdown need enqueue-time decisions that read
// mutable per-port state, so enterSlow first makes the port slow and
// waits out in-flight lock-free enqueues; from then on every producer
// decides under mu and enqueues into the same ring, so FIFO order holds
// across the switch. A port that has gated stays slow: catch-ups are
// rare, and the floors they leave live as long as the port. A replay
// batch is adopted as a ring segment, not copied, and the held backlog
// is pushed behind it, so the batch never evicts itself. The ring holds
// what its backlog needs, not its capacity: an idle async port of
// capacity 4096 holds about 10 KB (TestIdleAsyncPortFootprint).
//
// The drainer coalesces up to batchSize (DefaultBatchSize, clamped to the
// queue capacity) queued deliveries per take.
// Consumers implementing BatchConsumer receive the whole batch in one
// ConsumeBatch call; others get the batch replayed through Consume one
// delivery at a time, so batching is transparent to existing consumers.
type port struct {
	seq      uint64 // creation order within its dispatcher, for deterministic fan-out
	consumer Consumer
	batcher  BatchConsumer // non-nil when consumer supports batches
	refs     int           // live subscriptions; guarded by Dispatcher.mu

	// Delivery ring (async mode; nil in sync mode). slow routes producers
	// through mu; inflight counts producers inside a lock-free enqueue so
	// enterSlow can wait them out. waiter parks/wakes the drainer.
	ring     *ring.Ring[filtering.Delivery]
	slow     atomic.Bool
	inflight atomic.Int64
	waiter   *ring.Waiter

	mu        sync.Mutex
	batchSize int
	overflow  overflowPolicy
	closed    bool
	running   bool

	// Catch-up gate (SubscribeWithReplay): while gateCount > 0, incoming
	// deliveries divert to held instead of the queue (async) or the
	// consumer (sync), so a replay batch can be placed ahead of every
	// live delivery that raced the subscription. gated mirrors
	// gateCount != 0 so the sync hot path checks it without taking mu.
	gateCount int
	gated     atomic.Bool
	held      []filtering.Delivery

	// Replay floors, one per stream this port ever caught up on: a
	// delivery whose StoreSeq is at or below the floor was already
	// covered by a replay batch and is dropped — including deliveries
	// teed into the store before the replay fetch but dispatched only
	// after the gate closed, the tail of the claim-boundary race.
	// hasFloors mirrors len(floors) > 0 for the lock-free sync check.
	floors    []streamFloor
	hasFloors atomic.Bool

	dropped  *metrics.Counter // shared dispatcher total
	selfDrop *metrics.Counter // this consumer's overflow discards
	wakeups  *metrics.Counter // dispatcher total of token sends; nil on a bare port
}

func newPort(c Consumer, capacity int, overflow overflowPolicy, async bool, dropped, selfDrop *metrics.Counter) *port {
	p := &port{
		consumer:  c,
		batchSize: min(DefaultBatchSize, capacity),
		overflow:  overflow,
		waiter:    ring.NewWaiter(),
		dropped:   dropped,
		selfDrop:  selfDrop,
	}
	if async {
		p.ring = ring.New[filtering.Delivery](capacity)
	}
	p.batcher, _ = c.(BatchConsumer)
	return p
}

// seqRange is an inclusive store-sequence interval.
type seqRange struct{ lo, hi uint64 }

// streamFloor records what replay batches have covered on one stream:
// every sequence at or below upto EXCEPT the holes — sequence gaps the
// batches did not contain (radio losses at fetch time). A delivery below
// the floor and not in a hole is a duplicate of replayed history; a
// hole-filling delivery (late gap recovery) is new data and passes.
type streamFloor struct {
	stream wire.StreamID
	upto   uint64
	holes  []seqRange // ascending, non-overlapping
}

func holesContain(holes []seqRange, seq uint64) bool {
	for _, h := range holes {
		if seq < h.lo {
			return false
		}
		if seq <= h.hi {
			return true
		}
	}
	return false
}

// batchHoles returns the sequence gaps between consecutive entries of an
// ascending replay batch that lie strictly above the "above" mark.
func batchHoles(batch []filtering.Delivery, above uint64) []seqRange {
	var out []seqRange
	for i := 1; i < len(batch); i++ {
		lo, hi := batch[i-1].StoreSeq+1, batch[i].StoreSeq-1
		if lo <= above {
			lo = above + 1
		}
		if lo <= hi {
			out = append(out, seqRange{lo, hi})
		}
	}
	return out
}

// subtractSeq removes one sequence from a hole set (a replay batch
// re-delivered it, so it is covered now), splitting ranges as needed.
func subtractSeq(holes []seqRange, seq uint64) []seqRange {
	for i, h := range holes {
		if seq < h.lo || seq > h.hi {
			continue
		}
		out := append([]seqRange(nil), holes[:i]...)
		if h.lo < seq {
			out = append(out, seqRange{h.lo, seq - 1})
		}
		if seq < h.hi {
			out = append(out, seqRange{seq + 1, h.hi})
		}
		return append(out, holes[i+1:]...)
	}
	return holes
}

// belowFloorLocked reports whether d was already covered by a replay
// batch on its stream. Caller holds mu.
func (p *port) belowFloorLocked(d filtering.Delivery) bool {
	if d.StoreSeq == 0 {
		return false
	}
	for i := range p.floors {
		if p.floors[i].stream == d.Msg.Stream {
			return d.StoreSeq <= p.floors[i].upto &&
				!holesContain(p.floors[i].holes, d.StoreSeq)
		}
	}
	return false
}

// raiseFloorLocked folds an ascending non-empty replay batch into the
// stream's floor. A fresh floor covers everything up to the batch's last
// sequence except the gaps inside the batch (never-replayed hole fills
// must still be deliverable). Merging an existing floor removes old
// holes the new batch re-delivered and marks as holes both the new
// batch's gaps and any span between the old floor and the new batch that
// neither covered. Caller holds mu.
func (p *port) raiseFloorLocked(stream wire.StreamID, batch []filtering.Delivery) {
	lo, hi := batch[0].StoreSeq, batch[len(batch)-1].StoreSeq
	for i := range p.floors {
		f := &p.floors[i]
		if f.stream != stream {
			continue
		}
		for _, d := range batch {
			if d.StoreSeq <= f.upto {
				f.holes = subtractSeq(f.holes, d.StoreSeq)
			}
		}
		if hi <= f.upto {
			return
		}
		if lo > f.upto+1 {
			f.holes = append(f.holes, seqRange{f.upto + 1, lo - 1})
		}
		f.holes = append(f.holes, batchHoles(batch, f.upto)...)
		f.upto = hi
		return
	}
	p.floors = append(p.floors, streamFloor{
		stream: stream, upto: hi, holes: batchHoles(batch, 0),
	})
	p.hasFloors.Store(true)
}

// enterSlow routes all subsequent producers through mu and waits out
// producers already inside a lock-free enqueue. On return, every new
// enqueue observes the gate/floor/closed state under mu, and everything
// a lock-free producer put in the ring precedes what the caller enqueues
// under mu afterwards. The wait is bounded: a lock-free enqueue is a
// handful of atomic operations with no locks or callbacks inside.
func (p *port) enterSlow() {
	p.slow.Store(true)
	for p.inflight.Load() != 0 {
		runtime.Gosched()
	}
}

// enqueue adds a delivery, applying the overflow policy when full. It
// reports whether the new delivery was admitted; deliveries diverted to
// the catch-up gate report false and are accounted when the gate flushes,
// deliveries below a replay floor are silently suppressed as duplicates
// of already-replayed history, and deliveries to a closed port are
// dropped.
//
// Steady state is lock-free: one slow load, the ring's CAS-claimed slot,
// a publication store and a parked-check on the waiter. A slow port
// (gated, floored or closing; the inflight barrier makes the flip safe)
// makes those decisions under mu and then admits into the same ring.
func (p *port) enqueue(d filtering.Delivery) bool {
	if !p.slow.Load() {
		p.inflight.Add(1)
		if !p.slow.Load() {
			admitted := p.admit(d)
			p.inflight.Add(-1)
			return admitted
		}
		// enterSlow won the race: this producer is counted in inflight
		// but must not touch the ring without mu anymore.
		p.inflight.Add(-1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.gateCount > 0:
		p.held = append(p.held, d)
		return false
	case p.belowFloorLocked(d):
		return false
	case p.closed:
		p.drop(1)
		return false
	}
	return p.admit(d)
}

// admit puts d in the ring under the overflow policy. When the ring is at
// its capacity dropNewest discards d, and dropOldest discards the head and
// pushes d, one for one even while an adopted replay holds the ring above
// its capacity.
func (p *port) admit(d filtering.Delivery) bool {
	if !p.ring.TryEnqueue(d) {
		if p.overflow == dropNewest {
			p.drop(1)
			return false
		}
		// The producer performs the eviction itself (the ring supports
		// concurrent dequeuers), keeping the policy lock-free.
		if _, ok := p.ring.TryDequeue(); ok {
			p.drop(1)
		}
		p.ring.Push(d)
	}
	p.wake()
	return true
}

// tryHold diverts a sync-mode delivery into the catch-up gate, or drops
// it when a replay floor already covers it. It reports false when
// neither applies — the gate closed between the caller's lock-free check
// and the lock acquisition — in which case the caller delivers normally.
func (p *port) tryHold(d filtering.Delivery) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gateCount > 0 {
		p.held = append(p.held, d)
		return true
	}
	return p.belowFloorLocked(d)
}

// beginGate opens the catch-up gate. Called under Dispatcher.mu before
// the subscription becomes visible to Dispatch, so no live delivery for
// it can reach the consumer ahead of the replay batch. It first makes
// the port slow, so every delivery from here on makes its gate/floor
// decision under mu; deliveries already in the ring predate the gate and
// drain ahead of the replay batch.
func (p *port) beginGate() {
	p.enterSlow()
	p.mu.Lock()
	p.gateCount++
	p.gated.Store(true)
	p.mu.Unlock()
}

// endGate raises the stream's replay floor to the batch's high-water
// mark, places the replay batch, flushes the held live deliveries that
// are not duplicates of it, and closes the gate. The floor outlives the
// gate, so a delivery teed into the store before the replay fetch but
// dispatched only after the gate closed is still screened out — the
// seq-based dedupe at the claim boundary. Replayed deliveries are not
// counted as dispatcher deliveries (they never entered Dispatch);
// flushed held ones are, on sh. In async mode everything goes into the
// ring under one lock acquisition, past the capacity bound rather than
// letting the batch evict itself: the ring adopts replay as a segment
// and owns it from then on, and the held backlog is pushed behind it; a
// closed port drops both. In sync mode the replay and held batches are
// delivered inline on the calling goroutine, draining repeatedly until
// no new deliveries arrived while the previous batch was being consumed.
func (p *port) endGate(replay []filtering.Delivery, stream wire.StreamID, syncMode bool, sh *shard) {
	if !syncMode {
		p.mu.Lock()
		if len(replay) > 0 {
			p.raiseFloorLocked(stream, replay)
		}
		if p.closed {
			p.drop(len(replay))
		} else {
			p.ring.Adopt(replay) // every producer is slow, blocked on mu
			p.wake()
		}
		if p.gateCount > 1 {
			// Another catch-up on this port is still mid-replay: its
			// endGate flushes the held backlog once every floor is in
			// place. Flushing now would deliver its stream's held live
			// messages ahead of its replay batch.
			p.gateCount--
			p.mu.Unlock()
			return
		}
		for _, d := range p.held {
			switch {
			case p.belowFloorLocked(d):
			case p.closed:
				p.drop(1)
			default:
				p.ring.Push(d)
				sh.delivered.Inc()
			}
		}
		p.wake()
		p.held = nil
		p.gateCount = 0
		p.gated.Store(false)
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	if p.closed {
		// Unsubscribe raced the catch-up: the consumer must not see the
		// replay batch or the held backlog after close. Account both as
		// drops, the way close() drains held, and release the gate.
		p.dropClosedGateLocked(len(replay))
		p.mu.Unlock()
		return
	}
	if len(replay) > 0 {
		p.raiseFloorLocked(stream, replay)
	}
	p.mu.Unlock()
	for _, d := range replay {
		p.consumer.Consume(d)
	}
	for {
		p.mu.Lock()
		if p.closed {
			// Closed while the previous batch was being consumed; any
			// held deliveries that accumulated since close() reach no
			// consumer.
			p.dropClosedGateLocked(0)
			p.mu.Unlock()
			return
		}
		if p.gateCount > 1 {
			// See the async branch: the last gate standing drains held.
			p.gateCount--
			p.mu.Unlock()
			return
		}
		held := p.held
		p.held = nil
		if len(held) == 0 {
			p.gateCount = 0
			p.gated.Store(false)
			p.mu.Unlock()
			return
		}
		var keep []filtering.Delivery
		for _, d := range held {
			if !p.belowFloorLocked(d) {
				keep = append(keep, d)
			}
		}
		p.mu.Unlock()
		for _, d := range keep {
			sh.delivered.Inc()
			p.consumer.Consume(d)
		}
	}
}

// dropClosedGateLocked accounts a raced-out catch-up on a closed port:
// nReplay replay deliveries plus whatever held backlog accumulated after
// close() count as drops, and the gate this endGate owned is released.
// Caller holds mu; p.closed is true.
func (p *port) dropClosedGateLocked(nReplay int) {
	p.drop(nReplay + len(p.held))
	p.held = nil
	if p.gateCount > 1 {
		p.gateCount--
		return
	}
	p.gateCount = 0
	p.gated.Store(false)
}

// drop accounts n deliveries this port discarded, on the dispatcher's
// total and on the consumer's own counter.
func (p *port) drop(n int) {
	p.dropped.Add(int64(n))
	p.selfDrop.Add(int64(n))
}

// wake unparks the drainer after work (or closed) became visible. The
// counter is touched only when the token is actually sent, so an enqueue
// that finds the drainer awake stays one atomic load.
func (p *port) wake() {
	if p.waiter.Wake() && p.wakeups != nil {
		p.wakeups.Inc()
	}
}

// take is the drainer's one look at its port: up to len(batch) deliveries
// from the ring, plus whether the port is closed with the ring drained.
// closed is set after enterSlow's barrier and read under mu, so once it
// is observed no enqueue can follow and the emptiness check is final.
func (p *port) take(batch []filtering.Delivery) (n int, done bool) {
	if n = p.ring.DequeueBatch(batch); n > 0 {
		return n, false
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	return 0, closed && p.ring.Empty()
}

// run drains the port until it is closed and empty, taking up to
// batchSize deliveries at a time. The batch buffer is reused between
// takes; BatchConsumer implementations must not retain it.
//
// # Idle transition: look twice before sleeping
//
// A drainer that finds nothing to take does not park at once. It yields
// its turn exactly once (runtime.Gosched) and takes again; only a second
// consecutive empty take parks: Prepare, one last take (the re-check that
// makes a racing Wake impossible to lose — a real take, so work that
// arrived is consumed, not merely noticed), Wait. Any non-empty take
// re-arms the yield.
//
// The reason is measured, not assumed: consumers outrun the publisher, so
// a drainer that parks on the first empty take is parked for most
// enqueues (57 % on bench's fixednet_fanout) and each of those pays a CAS,
// a channel send and a goroutine wake on the publishing thread, plus a
// park and a reschedule here, to move fewer than two deliveries. A
// yielded drainer is still awake: enqueues that land while it waits its
// turn cost the one atomic load, and it comes back to a batch (20 % of
// enqueues pay a wake). One yield, because a port that is really idle
// must cost one extra scheduler pass and then nothing: no spinning, no
// timer. Polling instead of yielding buys the same throughput at +50 %
// window-1 latency with many drainers on few Ps; a yield per wake rather
// than per empty take buys half.
//
// The price is paid where one drainer has a P to itself: there a yield
// comes straight back, so a drainer whose publisher is quicker than a
// scheduler pass stays awake and takes a couple of deliveries at a time,
// where the parked one slept through a backlog and was woken to a full
// batch. Deliveries arrive sooner and the publisher shares the queue's
// cache lines with a busy consumer (BenchmarkDispatchDrainBatch at
// -cpu 2: ~140 → ~213 ns per publish; bench's one-consumer workloads
// give up 2–5 % ops_per_s). Numbers for every workload: CHANGES.md,
// PR 17.
//
// On the way to Wait the consumed prefix of the batch buffer is cleared,
// so a parked port does not pin the payloads of the last deliveries it
// handed over.
func (p *port) run() {
	batch := make([]filtering.Delivery, p.batchSize)
	yielded, used := false, 0
	for {
		n, done := p.take(batch)
		if n == 0 && !done {
			if !yielded {
				yielded = true
				runtime.Gosched()
				continue
			}
			p.waiter.Prepare()
			if n, done = p.take(batch); n == 0 && !done {
				clear(batch[:used])
				used = 0
				p.waiter.Wait()
				continue
			}
			p.waiter.Cancel()
		}
		if done {
			return
		}
		yielded, used = false, max(used, n)
		if p.batcher != nil {
			p.batcher.ConsumeBatch(batch[:n])
			continue
		}
		for _, d := range batch[:n] {
			p.consumer.Consume(d)
		}
	}
}

// close marks the port finished; the worker exits after draining. Held
// catch-up deliveries reach no consumer and count as drops. The port is
// made slow first, so an enqueue racing close is either fully in the
// ring (delivered: it happened-before the close) or observes closed
// under mu and is dropped — never stranded.
func (p *port) close() {
	p.enterSlow()
	p.mu.Lock()
	p.closed = true
	p.drop(len(p.held))
	p.held = nil
	p.mu.Unlock()
	p.wake()
}
