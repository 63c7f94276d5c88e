package dispatch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/ring"
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
// of its ops_per_s on 2 vCPUs; CHANGES.md has the pairs). Two states
// need an enqueue-time decision under mu: an open catch-up gate, which
// holds deliveries back until the replay batch is placed, and close.
// Each holds one count of slow, a gate until it ends and close for good;
// enterSlow takes one and waits out in-flight lock-free enqueues, so
// from then on producers decide under mu and enqueue into the same ring,
// and FIFO order holds across the switch. When the last gate ends the
// port is back on the lock-free ring, unless it is closing: a count
// close took is never given back. A replay batch is adopted as a ring segment, not
// copied, and the held backlog is pushed behind it, so the batch never
// evicts itself. The ring holds what its backlog needs, not its capacity:
// an idle async port of capacity 4096 holds about 10 KB
// (TestIdleAsyncPortFootprint).
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

	// Delivery ring (async mode; nil in sync mode). slow counts the open
	// gates plus one once closing, and routes producers through mu while
	// it is non-zero; enqueuing counts producers inside a lock-free
	// enqueue so enterSlow can wait them out. waiter parks/wakes the
	// drainer.
	ring      *ring.Ring[filtering.Delivery]
	slow      atomic.Int32
	enqueuing atomic.Int64
	waiter    *ring.Waiter

	mu        sync.Mutex
	batchSize int
	closed    bool
	running   bool

	// Catch-up gate (Join): while gateCount > 0, incoming deliveries
	// divert to held instead of the queue (async) or the consumer (sync),
	// so a replay batch can be placed ahead of every live delivery that
	// reached the port before it.
	gateCount int
	held      []filtering.Delivery

	dropped  *metrics.Counter // shared dispatcher total
	selfDrop *metrics.Counter // this consumer's overflow discards
	wakeups  *metrics.Counter // dispatcher total of token sends; nil on a bare port
}

func newPort(c Consumer, capacity int, async bool, dropped, selfDrop *metrics.Counter) *port {
	p := &port{
		consumer:  c,
		batchSize: min(DefaultBatchSize, capacity),
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

// enterSlow takes one count of slow and waits out producers already
// inside a lock-free enqueue. On return, every new enqueue observes the
// gate and closed state under mu, and everything a lock-free producer put
// in the ring precedes what the caller enqueues under mu afterwards. The
// wait is bounded: a lock-free enqueue is a handful of atomic operations
// with no locks or callbacks inside.
func (p *port) enterSlow() {
	p.slow.Add(1)
	for p.enqueuing.Load() != 0 {
		runtime.Gosched()
	}
}

// enqueue adds a delivery, dropping the oldest when full. It
// reports whether the new delivery was admitted; deliveries diverted to
// the catch-up gate report false and are accounted when the gate flushes,
// and deliveries to a closed port are dropped.
//
// Steady state is lock-free: one slow load, the ring's CAS-claimed slot,
// a publication store and a parked-check on the waiter. A slow port
// (gated or closing; the enqueuing barrier makes the switch safe) makes
// those decisions under mu and then admits into the same ring.
func (p *port) enqueue(d *filtering.Delivery) bool {
	if p.slow.Load() == 0 {
		p.enqueuing.Add(1)
		if p.slow.Load() == 0 {
			admitted := p.admit(d)
			p.enqueuing.Add(-1)
			return admitted
		}
		// enterSlow won the race: this producer is counted in enqueuing
		// but must not touch the ring without mu anymore.
		p.enqueuing.Add(-1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.gateCount > 0:
		p.held = append(p.held, *d)
		return false
	case p.closed:
		p.drop(1)
		return false
	}
	return p.admit(d)
}

// admit copies *d into the ring. When the ring is at its capacity it
// discards the head and pushes d — a consumer always gets the newest
// reading — one for one even while an adopted replay holds the ring above
// its capacity.
func (p *port) admit(d *filtering.Delivery) bool {
	if !p.ring.TryEnqueue(d) {
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

// tryHold diverts a sync-mode delivery into the catch-up gate. It reports
// false when the gate is not open — it closed between the caller's
// lock-free check and the lock acquisition, or the port is only closing —
// in which case the caller delivers normally.
func (p *port) tryHold(d filtering.Delivery) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gateCount > 0 {
		p.held = append(p.held, d)
	}
	return p.gateCount > 0
}

// beginGate opens a catch-up gate. Called under Dispatcher.mu before the
// subscription is installed, so no live delivery for it can reach the
// consumer ahead of the replay batch. It first makes the port slow, so
// every delivery from here on makes its gate decision under mu;
// deliveries already in the ring predate the gate and drain ahead of the
// replay batch.
func (p *port) beginGate() {
	p.enterSlow()
	p.mu.Lock()
	p.gateCount++
	p.mu.Unlock()
}

// endGate places the replay batch, flushes the held live deliveries
// behind it if this is the last gate open, and ends the gate. Another
// catch-up still mid-replay keeps the held backlog: flushing it now would
// deliver that stream's held live messages ahead of its replay batch.
// Replayed deliveries are not counted as dispatcher deliveries (they
// never entered Deliver); flushed held ones are, on sh. A closed port
// drops both. In async mode everything goes into the ring under one lock
// acquisition, past the capacity bound rather than letting the batch
// evict itself: the ring adopts replay as a segment and owns it from
// then on, and the held backlog is pushed behind it. In sync mode both
// are delivered inline on the calling goroutine, draining held
// repeatedly until no new deliveries arrived while the previous batch
// was being consumed.
func (p *port) endGate(replay []filtering.Delivery, inline bool, sh *shard) {
	p.mu.Lock()
	if !inline && !p.closed {
		p.ring.Adopt(replay) // every producer is slow, blocked on mu
		if p.gateCount == 1 {
			for i := range p.held {
				p.ring.Push(&p.held[i])
			}
			sh.delivered.Add(int64(len(p.held)))
			p.held = nil
		}
		p.wake()
		replay = nil
	}
	for inline && !p.closed {
		batch, flushed := replay, false
		if len(batch) == 0 && p.gateCount == 1 {
			batch, p.held, flushed = p.held, nil, true
		}
		if len(batch) == 0 {
			break
		}
		replay = nil
		p.mu.Unlock()
		for _, d := range batch {
			if flushed {
				// Counted before Consume, one at a time: a consumer may
				// read Stats from inside Consume.
				sh.delivered.Inc()
			}
			p.consumer.Consume(d)
		}
		p.mu.Lock()
	}
	if p.closed {
		// Unsubscribe raced the catch-up: the consumer must not see the
		// replay batch or the held backlog after close. Account both as
		// drops, the way close() drains held.
		p.drop(len(replay) + len(p.held))
		p.held = nil
	}
	p.gateCount--
	p.slow.Add(-1)
	p.mu.Unlock()
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
// A take claims one slot per delivery. Claiming a whole run with one CAS
// was measured and lost 12.6 % of bench's fixednet_fanout ops_per_s (0 of
// 6 pairs): drainers that empty their ring sooner park more often, and
// the publisher pays for the wakes.
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
