// Package ring provides the bounded lock-free queue the dispatcher's
// asynchronous delivery path runs on, plus the two-state atomic parker
// that replaces per-enqueue sync.Cond signalling. Both are generic and
// dependency-free so future drainers (gateway sessions, rule engines)
// can reuse them.
//
// # Queue
//
// Ring is a bounded and growing multi-producer queue: a linked chain of
// segments, each one Dmitry Vyukov's bounded MPMC queue. Every slot
// carries an atomic sequence stamp; a producer claims a slot by
// CAS-advancing its segment's enqueue cursor, writes the value, and
// publishes it by storing the slot's next stamp. Consumption
// symmetrically claims the segment's dequeue cursor, so occasional
// producer-side dequeues (the drop-oldest overflow policy) coexist with
// the single batch-draining consumer. FIFO order is claim order: a slot
// claimed but not yet published stalls later slots' consumption, it
// never reorders them.
//
// The first segment has min(64, phys) slots, phys being the capacity
// rounded up to a power of two. A producer that finds the tail segment
// physically full while the ring holds fewer values than its capacity
// links a segment twice the size (at most phys), sets the closed bit on
// the full segment's enqueue cursor — which freezes it: no producer can
// claim there again — and moves the tail on. Consumers leave a closed
// segment only once its dequeue cursor has reached the frozen enqueue
// cursor, so every value of an older segment is taken before any value
// of a newer one. Segments never shrink: the chain stops growing at the
// backlog's high-water mark, and once the head has moved past the small
// segments the ring is one segment of that size, reused lap after lap.
//
// Two operations admit values past the capacity, for a caller that
// bounds the excess itself. Push is TryEnqueue without the capacity
// check; on a physically full tail it links a segment even past phys
// slots. Adopt appends a whole slice without copying it: the slice
// becomes an adopted segment — frozen from the start, every value
// published, no slots — followed by a fresh min(64, phys)-slot segment
// for later producers. No producer may run during Adopt, so no producer
// ever holds an adopted segment; consumers claim its values by CAS on
// its dequeue cursor like any others, and DequeueBatch takes a whole run
// with one CAS.
//
// Enqueue and dequeue allocate nothing except when a segment is linked;
// dequeue zeroes the vacated slot (or adopted element) so pooled payload
// buffers referenced by queued values are not pinned past delivery.
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

const (
	cacheLine = 64

	// firstSegment is the slot count a ring starts with.
	firstSegment = 64

	// closed marks a segment's enqueue cursor as frozen; the low bits
	// keep the position it froze at.
	closed = uint64(1) << 63
)

// slot is one segment cell. seq is the Vyukov stamp: it equals the cell's
// logical position when the cell is free for the producer of that
// position, and position+1 once the value is published for the consumer.
type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// segment is one Vyukov ring in the chain. Positions count from 0 in
// every segment. An adopted segment (see Adopt) has no slots: vals holds
// its values, all published, and its enqueue cursor is frozen at
// len(vals) from the start.
type segment[T any] struct {
	mask  uint64
	slots []slot[T]
	vals  []T
	next  atomic.Pointer[segment[T]]

	// The cursors live on their own cache lines: the enqueue cursor is
	// contended by producers, the dequeue cursor is owned by the
	// consumer, and pinning them apart keeps a draining consumer from
	// stalling publication.
	_   [cacheLine]byte
	enq atomic.Uint64 // closed bit | next position to claim
	_   [cacheLine - 8]byte
	deq atomic.Uint64
	_   [cacheLine - 8]byte
}

func newSegment[T any](size int) *segment[T] {
	s := &segment[T]{mask: uint64(size - 1), slots: make([]slot[T], size)}
	for i := range s.slots {
		s.slots[i].seq.Store(uint64(i))
	}
	return s
}

// Ring is a bounded lock-free multi-producer queue. The zero value is
// not usable; call New. Methods never block; they allocate only to link
// a segment.
//
// TryEnqueue's capacity bound is exact under a serial producer. Under
// concurrent producers the admission check and the slot claim are two
// separate atomic steps, so the occupancy can transiently overshoot the
// capacity by up to the number of racing producers; TryEnqueue never
// links a segment past phys slots, so a full phys-slot tail refuses
// outright. Push and Adopt admit past the capacity.
type Ring[T any] struct {
	capacity int64
	phys     int // largest segment: capacity rounded up to a power of two

	// head is where consumers dequeue, tail where producers enqueue; both
	// move only when a segment is linked or drained.
	head atomic.Pointer[segment[T]]
	tail atomic.Pointer[segment[T]]

	// length is written by producers and consumers alike; it lives on a
	// cache line of its own, away from the read-mostly fields above.
	_      [cacheLine]byte
	length atomic.Int64
	_      [cacheLine - 8]byte
}

// New creates a ring admitting up to capacity values. It starts with one
// segment of min(64, phys) slots (see the package comment).
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	phys := 1
	for phys < capacity {
		phys <<= 1
	}
	r := &Ring[T]{capacity: int64(capacity), phys: phys}
	s := newSegment[T](min(firstSegment, phys))
	r.head.Store(s)
	r.tail.Store(s)
	return r
}

// Len returns the current occupancy. It is exact when producers and the
// consumer are quiescent and a bounded-lag estimate otherwise.
func (r *Ring[T]) Len() int { return int(r.length.Load()) }

// Empty reports whether the ring holds no published values. A false
// negative is impossible for a value whose enqueue completed before the
// call began, which is what the parker protocol relies on.
func (r *Ring[T]) Empty() bool { return r.length.Load() <= 0 }

// TryEnqueue appends *v and reports whether it was admitted; false means
// the ring is full (the caller applies its overflow policy).
func (r *Ring[T]) TryEnqueue(v *T) bool {
	if r.length.Load() >= r.capacity {
		return false
	}
	return r.enqueue(v, false)
}

// Push appends *v whatever the occupancy: it is TryEnqueue without the
// capacity check, linking a segment when the tail is physically full
// even past phys slots. The caller bounds the excess (the dispatcher
// pushes one value for each it evicts, and a catch-up's held backlog).
func (r *Ring[T]) Push(v *T) { r.enqueue(v, true) }

// enqueue is TryEnqueue and Push past the capacity check. All three take
// v by pointer, and so do the dispatcher's hand-down (Dispatch to
// port.enqueue to port.admit): a delivery is copied once per consumer,
// into the slot. Each by-value hop copied it once more, which cost
// bench's fixednet_fanout 9 % of its ops_per_s at the last hop alone
// (2 vCPUs, 8 rounds).
func (r *Ring[T]) enqueue(v *T, force bool) bool {
	seg := r.tail.Load()
	pos := seg.enq.Load()
	for {
		if pos&closed != 0 {
			// Frozen: whoever closed it linked the next segment first.
			r.tail.CompareAndSwap(seg, seg.next.Load())
			seg = r.tail.Load()
			pos = seg.enq.Load()
			continue
		}
		sl := &seg.slots[pos&seg.mask]
		seq := sl.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			// The slot is free for this position: claim it.
			if seg.enq.CompareAndSwap(pos, pos+1) {
				sl.val = *v
				sl.seq.Store(pos + 1) // publish
				r.length.Add(1)
				return true
			}
			pos = seg.enq.Load()
		case diff < 0:
			// The slot still holds the value from one lap ago: the
			// segment is physically full.
			if !r.grow(seg, force) {
				return false
			}
			pos = seg.enq.Load()
		default:
			// Another producer claimed pos; reload and retry.
			pos = seg.enq.Load()
		}
	}
}

// grow handles a full tail segment: it links a segment twice the size
// (at most phys) behind seg (unless another producer already has), then
// closes seg. Unless forced it reports false, linking nothing, when seg
// already has phys slots or the ring is at capacity — the ring is full,
// not merely the segment.
func (r *Ring[T]) grow(seg *segment[T], force bool) bool {
	if seg.next.Load() == nil {
		if !force && (len(seg.slots) >= r.phys || r.length.Load() >= r.capacity) {
			return false
		}
		seg.next.CompareAndSwap(nil, newSegment[T](min(2*len(seg.slots), r.phys)))
	}
	seg.enq.Or(closed)
	return true
}

// Adopt appends every value of vals at once, past the capacity, without
// copying them: vals becomes a frozen, fully published segment, followed
// by a fresh min(64, phys)-slot segment for later producers. The ring
// owns vals afterwards and zeroes each element as it is dequeued. No
// TryEnqueue or Push may run concurrently with Adopt; dequeues may.
func (r *Ring[T]) Adopt(vals []T) {
	if len(vals) == 0 {
		return
	}
	a := &segment[T]{vals: vals}
	a.enq.Store(closed | uint64(len(vals)))
	a.next.Store(newSegment[T](min(firstSegment, r.phys)))
	r.length.Add(int64(len(vals)))
	tail := r.tail.Load()
	tail.next.Store(a)
	tail.enq.Or(closed)
	r.tail.Store(a.next.Load())
}

// TryDequeue removes and returns the oldest value. ok is false when the
// ring is empty. Safe to call concurrently with the draining consumer
// (producer-side drop-oldest), though values then interleave by claim
// order across the callers.
func (r *Ring[T]) TryDequeue() (v T, ok bool) {
	seg := r.head.Load()
	pos := seg.deq.Load()
	for {
		i := pos & seg.mask
		if i >= uint64(len(seg.slots)) {
			// Only an adopted segment has no slots; the test is the
			// bounds check the slot index would have cost anyway.
			if pos < uint64(len(seg.vals)) {
				if seg.deq.CompareAndSwap(pos, pos+1) {
					v = seg.vals[pos]
					var zero T
					seg.vals[pos] = zero
					r.length.Add(-1)
					return v, true
				}
				pos = seg.deq.Load()
				continue
			}
			r.head.CompareAndSwap(seg, seg.next.Load())
			seg = r.head.Load()
			pos = seg.deq.Load()
			continue
		}
		sl := &seg.slots[i]
		seq := sl.seq.Load()
		switch diff := int64(seq) - int64(pos+1); {
		case diff == 0:
			if seg.deq.CompareAndSwap(pos, pos+1) {
				v = sl.val
				var zero T
				sl.val = zero // release payload references
				sl.seq.Store(pos + seg.mask + 1)
				r.length.Add(-1)
				return v, true
			}
			pos = seg.deq.Load()
		case diff < 0:
			// Slot pos is not published: the segment is empty (or the
			// producer of pos has claimed but not yet published, which
			// for FIFO purposes is the same thing). Only a closed
			// segment drained up to its frozen cursor lets the head
			// move on. A segment is linked before it is closed, so the
			// read-mostly next pointer answers "not closed" without
			// touching the producers' cursor line on every empty look.
			if seg.next.Load() == nil {
				return v, false
			}
			if enq := seg.enq.Load(); enq&closed == 0 || pos != enq&^closed {
				return v, false
			}
			r.head.CompareAndSwap(seg, seg.next.Load())
			seg = r.head.Load()
			pos = seg.deq.Load()
		default:
			pos = seg.deq.Load()
		}
	}
}

// DequeueBatch fills buf with up to len(buf) oldest values and returns
// how many it took. The single draining consumer uses this to hand
// everything one take finds to its consumer as one batch. From an
// adopted head segment it takes one run, claimed with a single CAS; it
// looks for one once per call, never per value.
func (r *Ring[T]) DequeueBatch(buf []T) int {
	if seg := r.head.Load(); seg.slots == nil {
		if n := r.takeAdopted(seg, buf); n > 0 {
			return n
		}
	}
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

// takeAdopted claims up to len(buf) of an adopted segment's oldest values
// with one CAS on its dequeue cursor, copies them into buf and zeroes
// them in vals. It returns 0 only once the segment is drained.
func (r *Ring[T]) takeAdopted(seg *segment[T], buf []T) int {
	for {
		pos := seg.deq.Load()
		k := min(uint64(len(buf)), uint64(len(seg.vals))-pos)
		if k == 0 {
			return 0
		}
		if seg.deq.CompareAndSwap(pos, pos+k) {
			run := seg.vals[pos : pos+k]
			copy(buf, run)
			clear(run) // release payload references
			r.length.Add(-int64(k))
			return int(k)
		}
	}
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
