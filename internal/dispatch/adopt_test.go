package dispatch

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// The tests below drive one async port by hand — no drainer running, so
// the queue can be inspected between steps — and then drain it in the
// drainer's own way.

var adoptStream = wire.MustStreamID(7, 0)

// seqBatch is a fresh ascending replay batch [first, first+n) with extra
// capacity behind it, like a store.Range result.
func seqBatch(first uint64, n, extra int) []filtering.Delivery {
	b := make([]filtering.Delivery, n, n+extra)
	for i := range b {
		b[i] = filtering.Delivery{Msg: wire.Message{Stream: adoptStream}, StoreSeq: first + uint64(i)}
	}
	return b
}

func live(seq uint64) filtering.Delivery {
	return filtering.Delivery{Msg: wire.Message{Stream: adoptStream}, StoreSeq: seq}
}

type adoptRig struct {
	p                 *port
	dropped, selfDrop metrics.Counter
	sh                shard
}

func newAdoptRig(capacity int, overflow OverflowPolicy, lockFree bool) *adoptRig {
	r := &adoptRig{}
	r.p = newPort(&seqRecorder{}, capacity, overflow, lockFree, &r.dropped, &r.selfDrop)
	return r
}

// drain empties the port the way run does: ring first, then the locked
// queue, a batch at a time.
func (r *adoptRig) drain() []uint64 {
	var out []uint64
	batch := make([]filtering.Delivery, r.p.batchSize)
	for {
		n := 0
		if r.p.ring != nil {
			n = r.p.ring.DequeueBatch(batch)
		}
		if n == 0 {
			if n, _ = r.p.takeLockedBatch(batch); n == 0 {
				return out
			}
		}
		for _, d := range batch[:n] {
			out = append(out, d.StoreSeq)
		}
	}
}

func seqs(first uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = first + uint64(i)
	}
	return out
}

func wantSeqs(t *testing.T, got []uint64, want ...[]uint64) {
	t.Helper()
	if all := slices.Concat(want...); !slices.Equal(got, all) {
		t.Fatalf("drained %v, want %v", got, all)
	}
}

// TestEndGateAdoptsReplayBatch pins the ownership hand-off: a replay of at
// least capacity entries placed on an empty queue becomes the queue — the
// same backing array, no copy, slack included — wakes a parked drainer,
// and drains in order with the held live deliveries behind it, minus the
// ones the replay already covered.
func TestEndGateAdoptsReplayBatch(t *testing.T) {
	for _, lockFree := range []bool{true, false} {
		t.Run(fmt.Sprintf("lockFree=%v", lockFree), func(t *testing.T) {
			r := newAdoptRig(8, DropOldest, lockFree)
			p := r.p
			p.beginGate()
			if p.enqueue(live(110)) || p.enqueue(live(120)) || p.enqueue(live(121)) {
				t.Fatal("a gated enqueue reported admission")
			}
			replay := seqBatch(100, 20, 5) // 100..119: covers the held 110
			p.waiter.Prepare()             // a drainer about to park
			p.endGate(replay, adoptStream, false, &r.sh)

			if &p.queue[0] != &replay[0] || len(p.queue) != cap(replay) {
				t.Fatalf("queue is not the replay slice: len %d, want the adopted %d", len(p.queue), cap(replay))
			}
			if p.head != 0 || p.count != 22 {
				t.Fatalf("head/count = %d/%d, want 0/22", p.head, p.count)
			}
			woken := make(chan struct{})
			go func() { p.waiter.Wait(); close(woken) }()
			select {
			case <-woken:
			case <-time.After(10 * time.Second):
				t.Fatal("placing the replay did not wake the parked drainer")
			}
			if got := r.sh.delivered.Value(); got != 2 {
				t.Fatalf("delivered %d held lives, want 2 (110 was replayed)", got)
			}
			wantSeqs(t, r.drain(), seqs(100, 20), []uint64{120, 121})
			if r.dropped.Value() != 0 {
				t.Fatalf("placement dropped %d", r.dropped.Value())
			}
			// The floor outlives the gate.
			if p.enqueue(live(105)) {
				t.Fatal("a late copy of replayed history was admitted")
			}
		})
	}
}

// TestEndGateCopiesWhenItCannotAdopt covers the other placements: a batch
// shorter than capacity, and a batch behind a non-empty (wrapped) locked
// queue. Both copy in bulk after at most one growth to the exact size.
func TestEndGateCopiesWhenItCannotAdopt(t *testing.T) {
	t.Run("short batch", func(t *testing.T) {
		r := newAdoptRig(8, DropOldest, true)
		p := r.p
		p.beginGate()
		replay := seqBatch(100, 5, 0)
		p.endGate(replay, adoptStream, false, &r.sh)
		if &p.queue[0] == &replay[0] || len(p.queue) != 5 {
			t.Fatalf("short batch: queue len %d aliasing=%v, want a queue of its own sized to the 5 replayed", len(p.queue), &p.queue[0] == &replay[0])
		}
		wantSeqs(t, r.drain(), seqs(100, 5))
	})
	t.Run("non-empty wrapped queue", func(t *testing.T) {
		r := newAdoptRig(8, DropOldest, false) // locked queue from the start
		p := r.p
		for i := 0; i < 6; i++ {
			p.enqueue(live(uint64(10 + i)))
		}
		p.takeLockedBatch(make([]filtering.Delivery, 4)) // head = 4, two left
		for i := 0; i < 4; i++ {                         // the tail wraps to slots 0 and 1
			p.enqueue(live(uint64(16 + i)))
		}
		p.beginGate()
		replay := seqBatch(100, 12, 0)
		p.endGate(replay, adoptStream, false, &r.sh)
		if &p.queue[0] == &replay[0] {
			t.Fatal("adopted a batch onto a non-empty queue")
		}
		if len(p.queue) != 18 {
			t.Fatalf("queue grew to %d slots, want exactly the 6 queued + 12 replayed", len(p.queue))
		}
		wantSeqs(t, r.drain(), []uint64{14, 15}, seqs(16, 4), seqs(100, 12))
	})
	t.Run("fits without growth across the wrap", func(t *testing.T) {
		r := newAdoptRig(8, DropOldest, false)
		p := r.p
		for i := 0; i < 6; i++ {
			p.enqueue(live(uint64(10 + i)))
		}
		p.takeLockedBatch(make([]filtering.Delivery, 4)) // head = 4, two left
		before := &p.queue[0]
		p.beginGate()
		p.endGate(seqBatch(100, 5, 0), adoptStream, false, &r.sh) // slots 6,7,0,1,2
		if &p.queue[0] != before || len(p.queue) != 8 {
			t.Fatal("a batch that fits was not placed in the existing ring")
		}
		wantSeqs(t, r.drain(), []uint64{14, 15}, seqs(100, 5))
	})
}

// TestSmallCatchUpHoldsSmallQueue: a capacity-4096 port that catches up on
// a 10-message replay and then carries live traffic its drainer keeps up
// with holds at most 64 queue slots — the locked queue is sized to the
// backlog, not to the capacity. A later backlog of 200 doubles it to less
// than twice that, and everything still drains in order.
func TestSmallCatchUpHoldsSmallQueue(t *testing.T) {
	r := newAdoptRig(4096, DropOldest, true)
	p := r.p
	p.beginGate()
	p.enqueue(live(110)) // held behind the gate
	p.endGate(seqBatch(100, 10, 0), adoptStream, false, &r.sh)
	wantSeqs(t, r.drain(), seqs(100, 11))
	for seq := uint64(111); seq < 1111; seq++ {
		if !p.enqueue(live(seq)) {
			t.Fatalf("live %d refused", seq)
		}
		wantSeqs(t, r.drain(), []uint64{seq})
	}
	if n := len(p.queue); n > 64 {
		t.Fatalf("queue holds %d slots after a 10-message catch-up, want at most 64", n)
	}

	for seq := uint64(2000); seq < 2200; seq++ {
		p.enqueue(live(seq))
	}
	if n := len(p.queue); n < 200 || n >= 400 {
		t.Fatalf("queue holds %d slots for a backlog of 200, want [200, 400)", n)
	}
	wantSeqs(t, r.drain(), seqs(2000, 200))
	if r.dropped.Value() != 0 {
		t.Fatalf("dropped %d below capacity", r.dropped.Value())
	}
}

// TestNestedGatesAdoptThenCopy runs two catch-ups on one port: the first
// endGate adopts its batch and leaves the held backlog alone, the second
// places its batch behind and flushes the backlog once every floor is in
// place.
func TestNestedGatesAdoptThenCopy(t *testing.T) {
	other := wire.MustStreamID(8, 0)
	r := newAdoptRig(4, DropOldest, true)
	p := r.p
	p.beginGate()
	p.beginGate()
	p.enqueue(live(104))                                                           // covered by the first replay
	p.enqueue(filtering.Delivery{Msg: wire.Message{Stream: other}, StoreSeq: 201}) // covered by the second
	p.enqueue(filtering.Delivery{Msg: wire.Message{Stream: other}, StoreSeq: 205})

	first := seqBatch(100, 6, 0)
	p.endGate(first, adoptStream, false, &r.sh)
	if &p.queue[0] != &first[0] || p.count != 6 || len(p.held) != 3 || !p.gated.Load() {
		t.Fatalf("first endGate: count %d held %d gated %v", p.count, len(p.held), p.gated.Load())
	}
	second := make([]filtering.Delivery, 3)
	for i := range second {
		second[i] = filtering.Delivery{Msg: wire.Message{Stream: other}, StoreSeq: 200 + uint64(i)}
	}
	p.endGate(second, other, false, &r.sh)
	if p.gated.Load() || p.held != nil {
		t.Fatal("last endGate left the gate shut")
	}
	wantSeqs(t, r.drain(), seqs(100, 6), seqs(200, 3), []uint64{205})
}

// TestEndGateOnClosedPortDropsBatch is Unsubscribe winning the race with
// the replay fetch: nothing is queued, everything is accounted.
func TestEndGateOnClosedPortDropsBatch(t *testing.T) {
	r := newAdoptRig(4, DropOldest, true)
	p := r.p
	p.beginGate()
	p.enqueue(live(120))
	p.close() // drops the held delivery
	p.endGate(seqBatch(100, 9, 0), adoptStream, false, &r.sh)
	if p.count != 0 || p.queue != nil {
		t.Fatalf("closed port queued %d", p.count)
	}
	if got := r.dropped.Value(); got != 10 || r.selfDrop.Value() != 10 {
		t.Fatalf("dropped %d/%d, want 10 (9 replayed + 1 held)", got, r.selfDrop.Value())
	}
	if p.gated.Load() {
		t.Fatal("gate left shut on a closed port")
	}
}

// TestOverflowDuringAdoptedDrain pins that the overflow policies key on
// the logical capacity while an adopted batch is still draining: the
// queue is over capacity, so DropNewest refuses the live delivery and
// DropOldest evicts the oldest replayed entry for it.
func TestOverflowDuringAdoptedDrain(t *testing.T) {
	for _, tc := range []struct {
		policy OverflowPolicy
		want   [][]uint64
	}{
		{DropNewest, [][]uint64{seqs(100, 10)}},
		{DropOldest, [][]uint64{seqs(101, 9), {500}}},
	} {
		r := newAdoptRig(4, tc.policy, true)
		p := r.p
		p.beginGate()
		p.endGate(seqBatch(100, 10, 0), adoptStream, false, &r.sh)
		admitted := p.enqueue(live(500))
		if admitted != (tc.policy == DropOldest) || r.dropped.Value() != 1 {
			t.Fatalf("policy %v: admitted=%v dropped=%d", tc.policy, admitted, r.dropped.Value())
		}
		wantSeqs(t, r.drain(), tc.want...)
		// Back under capacity, the adopted ring serves as the queue.
		for i := 0; i < 4; i++ {
			if !p.enqueue(live(uint64(600 + i))) {
				t.Fatalf("policy %v: enqueue %d refused on a drained queue", tc.policy, i)
			}
		}
		wantSeqs(t, r.drain(), seqs(600, 4))
	}
}

// TestPlaceReplayAllocations pins the cost of the two placements: adoption
// allocates nothing, and a copy into a queue that has room allocates
// nothing either.
func TestPlaceReplayAllocations(t *testing.T) {
	r := newAdoptRig(8, DropOldest, false)
	p := r.p
	big, small := seqBatch(100, 16, 0), seqBatch(100, 3, 0)
	for _, tc := range []struct {
		name  string
		batch []filtering.Delivery
	}{{"adopt", big}, {"copy", small}} {
		allocs := testing.AllocsPerRun(100, func() {
			p.mu.Lock()
			p.head, p.count = 0, 0
			p.placeReplayLocked(tc.batch)
			p.mu.Unlock()
		})
		if allocs != 0 {
			t.Fatalf("%s placement: %.1f allocs, want 0", tc.name, allocs)
		}
	}
}
