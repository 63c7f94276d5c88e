// Package ring provides the bounded lock-free queue the dispatcher's
// asynchronous delivery path runs on, plus the two-state atomic parker
// that replaces per-enqueue sync.Cond signalling. Both are generic and
// dependency-free so future drainers (gateway sessions, rule engines)
// can reuse them.
//
// # Queue
//
// Ring is a bounded multi-producer queue in the style of Dmitry Vyukov's
// bounded MPMC queue: each slot carries an atomic sequence stamp, a
// producer claims a slot by CAS-advancing the enqueue cursor, writes the
// value, and publishes it by storing the slot's next stamp. Consumption
// symmetrically claims the dequeue cursor, so occasional producer-side
// dequeues (the drop-oldest overflow policy) coexist with the single
// batch-draining consumer. FIFO order is claim order: a slot claimed but
// not yet published stalls later slots' consumption, it never reorders
// them.
//
// Enqueue and dequeue are allocation-free; dequeue zeroes the vacated
// slot so pooled payload buffers referenced by queued values are not
// pinned past delivery.
//
// # Parker
//
// Waiter is the drainer-side park/unpark primitive: one two-state atomic
// plus a 1-buffered channel. Producers pay a single atomic load per
// enqueue while the drainer is awake and one CAS + non-blocking channel
// send (and the goroutine wake behind it) when it is parked — unlike
// sync.Cond.Signal, which takes the cond's internal lock on every call
// whether or not anyone is waiting. BenchmarkWakeup pins the difference.
//
// Which of the two a producer pays is decided by how readily the drainer
// parks, and "awake" is not the common case by itself: consumers outrun
// publishers, so a drainer that parks the moment it finds its queue empty
// is parked for most enqueues. Measured on the deployment benchmark
// (bench/, 2 vCPUs) with the dispatcher's drainer parking on the first
// empty look, 57 % of fixednet_fanout's enqueues (16 consumers), 26 % of
// fixednet_census's and 15 % of field_uplink's (one consumer each) sent
// the token. The dispatcher's drainer therefore looks twice — it yields
// its turn once and checks again before it calls Prepare (see
// dispatch's port.run) — which brings those shares to 20 %, 2 % and 1 %.
// Wake reports whether it sent, so the caller can count them.
package ring

import (
	"sync/atomic"
)

const cacheLine = 64

// slot is one ring cell. seq is the Vyukov stamp: it equals the cell's
// logical position when the cell is free for the producer of that
// position, and position+1 once the value is published for the consumer.
type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// Ring is a bounded lock-free multi-producer queue. The zero value is
// not usable; call New. Methods never block and never allocate.
//
// The capacity bound is exact under a serial producer. Under concurrent
// producers the admission check and the slot claim are two separate
// atomic steps, so the occupancy can transiently overshoot a
// non-power-of-two capacity by up to the number of racing producers,
// hard-bounded by the next power of two (the physical slot count).
type Ring[T any] struct {
	mask     uint64
	capacity int64
	slots    []slot[T]

	// The cursors and the length live on their own cache lines: the
	// enqueue cursor is contended by producers, the dequeue cursor is
	// owned by the consumer, and pinning them apart keeps a draining
	// consumer from stalling publication.
	_      [cacheLine]byte
	enq    atomic.Uint64
	_      [cacheLine - 8]byte
	deq    atomic.Uint64
	_      [cacheLine - 8]byte
	length atomic.Int64
	_      [cacheLine - 8]byte
}

// New creates a ring admitting up to capacity values. The physical slot
// count is capacity rounded up to a power of two.
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	phys := 1
	for phys < capacity {
		phys <<= 1
	}
	r := &Ring[T]{
		mask:     uint64(phys - 1),
		capacity: int64(capacity),
		slots:    make([]slot[T], phys),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the logical capacity.
func (r *Ring[T]) Cap() int { return int(r.capacity) }

// Len returns the current occupancy. It is exact when producers and the
// consumer are quiescent and a bounded-lag estimate otherwise.
func (r *Ring[T]) Len() int { return int(r.length.Load()) }

// Empty reports whether the ring holds no published values. A false
// negative is impossible for a value whose enqueue completed before the
// call began, which is what the parker protocol relies on.
func (r *Ring[T]) Empty() bool { return r.length.Load() <= 0 }

// TryEnqueue appends v and reports whether it was admitted; false means
// the ring is full (the caller applies its overflow policy).
func (r *Ring[T]) TryEnqueue(v T) bool {
	if r.length.Load() >= r.capacity {
		return false
	}
	pos := r.enq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			// The slot is free for this position: claim it.
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1) // publish
				r.length.Add(1)
				return true
			}
			pos = r.enq.Load()
		case diff < 0:
			// The slot still holds the value from one lap ago: the ring
			// is physically full.
			return false
		default:
			// Another producer claimed pos; reload and retry.
			pos = r.enq.Load()
		}
	}
}

// TryDequeue removes and returns the oldest value. ok is false when the
// ring is empty. Safe to call concurrently with the draining consumer
// (producer-side drop-oldest), though values then interleave by claim
// order across the callers.
func (r *Ring[T]) TryDequeue() (v T, ok bool) {
	pos := r.deq.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch diff := int64(seq) - int64(pos+1); {
		case diff == 0:
			if r.deq.CompareAndSwap(pos, pos+1) {
				v = s.val
				var zero T
				s.val = zero // release payload references
				s.seq.Store(pos + r.mask + 1)
				r.length.Add(-1)
				return v, true
			}
			pos = r.deq.Load()
		case diff < 0:
			// Slot pos is not published: the ring is empty (or the
			// producer of pos has claimed but not yet published, which
			// for FIFO purposes is the same thing).
			return v, false
		default:
			pos = r.deq.Load()
		}
	}
}

// DequeueBatch fills buf with up to len(buf) oldest values and returns
// how many it took. The single draining consumer uses this to hand
// everything one take finds to its consumer as one batch.
func (r *Ring[T]) DequeueBatch(buf []T) int {
	n := 0
	for n < len(buf) {
		v, ok := r.TryDequeue()
		if !ok {
			break
		}
		buf[n] = v
		n++
	}
	return n
}

// Waiter parking states.
const (
	awake  uint32 = 0
	parked uint32 = 1
)

// Waiter is a two-state atomic park/unpark primitive for a single
// waiting goroutine (the queue drainer) woken by many producers.
//
// Protocol — waiter side:
//
//	w.Prepare()
//	if workAvailable() { w.Cancel(); /* consume */ } else { w.Wait() }
//
// Producer side, after making work visible:
//
//	w.Wake()
//
// Prepare publishes the intent to sleep before the waiter re-checks for
// work; Wake re-checks the state after publishing work. Both sides use
// sequentially consistent atomics, so at least one of them observes the
// other (the classic Dekker handshake) and a wakeup can never be lost.
// Wait can return spuriously (a stale token from a cancelled park); the
// waiter must re-check its work condition after every return.
type Waiter struct {
	state atomic.Uint32
	ch    chan struct{}
}

// NewWaiter returns a ready Waiter.
func NewWaiter() *Waiter {
	return &Waiter{ch: make(chan struct{}, 1)}
}

// Prepare announces that the caller is about to Wait. The caller must
// re-check its work condition between Prepare and Wait.
func (w *Waiter) Prepare() { w.state.Store(parked) }

// Cancel withdraws a Prepare without waiting.
func (w *Waiter) Cancel() { w.state.Store(awake) }

// Wait blocks until a producer's Wake (or consumes a stale token from an
// earlier cancelled park — callers re-check work regardless).
func (w *Waiter) Wait() {
	<-w.ch
	w.state.Store(awake)
}

// Wake unparks the waiter if it is parked (or mid-Prepare) and reports
// whether this call won the right to send the token. When the waiter is
// awake this is a single atomic load — the per-enqueue cost that replaces
// sync.Cond.Signal's lock acquisition; how often the waiter is awake is
// the drainer's doing, not the Waiter's (see the package comment). Only
// the one caller that wins the CAS sends, so the 1-buffered channel never
// grows a backlog of wakeups (a token left over from a cancelled park
// makes the send a no-op, and the next Wait returns at once).
func (w *Waiter) Wake() bool {
	if w.state.Load() != parked || !w.state.CompareAndSwap(parked, awake) {
		return false
	}
	select {
	case w.ch <- struct{}{}:
	default:
	}
	return true
}
