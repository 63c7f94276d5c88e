package dispatch

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// The tests below drive one async port by hand — no drainer running, so
// the ring can be inspected between steps — and then drain it with the
// drainer's own take.

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

func live(seq uint64) *filtering.Delivery {
	return &filtering.Delivery{Msg: wire.Message{Stream: adoptStream}, StoreSeq: seq}
}

type adoptRig struct {
	p                 *port
	dropped, selfDrop metrics.Counter
	sh                shard
}

func newAdoptRig(capacity int) *adoptRig {
	r := &adoptRig{}
	r.p = newPort(&seqRecorder{}, capacity, true, &r.dropped, &r.selfDrop)
	return r
}

// drain empties the port the way run does, a take at a time.
func (r *adoptRig) drain() []uint64 {
	var out []uint64
	batch := make([]filtering.Delivery, r.p.batchSize)
	for {
		n, _ := r.p.take(batch)
		if n == 0 {
			return out
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

// wantZeroed fails unless every element of an adopted replay batch was
// zeroed: the ring drained the caller's own array, it did not copy it.
func wantZeroed(t *testing.T, replay []filtering.Delivery) {
	t.Helper()
	for i, d := range replay {
		if !reflect.ValueOf(d).IsZero() {
			t.Fatalf("replay[%d] = %+v after the drain: the batch was copied, not adopted", i, d)
		}
	}
}

// TestEndGateAdoptsReplayBatch pins the ownership hand-off: a replay batch
// goes into the ring as it stands — no copy — wakes a parked drainer, and
// drains in order with the held live deliveries behind it; then the port
// is back on the lock-free ring. lockFree=false runs it on a port that
// caught up once before, with an empty replay.
func TestEndGateAdoptsReplayBatch(t *testing.T) {
	for _, lockFree := range []bool{true, false} {
		t.Run(fmt.Sprintf("lockFree=%v", lockFree), func(t *testing.T) {
			r := newAdoptRig(8)
			p := r.p
			if !lockFree {
				p.beginGate()
				p.endGate(nil, false, &r.sh)
			}
			p.beginGate()
			if p.enqueue(live(120)) || p.enqueue(live(121)) || p.enqueue(live(122)) {
				t.Fatal("a gated enqueue reported admission")
			}
			replay := seqBatch(100, 20, 5) // 100..119
			p.waiter.Prepare()             // a drainer about to park
			p.endGate(replay, false, &r.sh)

			if n := p.ring.Len(); n != 23 {
				t.Fatalf("ring holds %d, want the 20 replayed + 3 held", n)
			}
			woken := make(chan struct{})
			go func() { p.waiter.Wait(); close(woken) }()
			select {
			case <-woken:
			case <-time.After(10 * time.Second):
				t.Fatal("placing the replay did not wake the parked drainer")
			}
			if got := r.sh.delivered.Value(); got != 3 {
				t.Fatalf("delivered %d held lives, want 3", got)
			}
			wantSeqs(t, r.drain(), seqs(100, 20), seqs(120, 3))
			wantZeroed(t, replay)
			if r.dropped.Value() != 0 {
				t.Fatalf("placement dropped %d", r.dropped.Value())
			}
			// The last gate closed: the port is back on the lock-free ring.
			if n := p.slow.Load(); n != 0 || !p.enqueue(live(130)) {
				t.Fatalf("after the catch-up: slow=%d, want 0 and an admitted live delivery", n)
			}
		})
	}
}

// TestEndGateAdoptsBehindQueue covers the other placements: a batch
// shorter than the capacity is adopted too, and a batch behind a partly
// drained ring that has grown past its first segment drains after
// everything queued before the gate.
func TestEndGateAdoptsBehindQueue(t *testing.T) {
	t.Run("short batch", func(t *testing.T) {
		r := newAdoptRig(8)
		p := r.p
		p.beginGate()
		replay := seqBatch(100, 5, 0)
		p.endGate(replay, false, &r.sh)
		if n := p.ring.Len(); n != 5 {
			t.Fatalf("ring holds %d, want the 5 replayed", n)
		}
		wantSeqs(t, r.drain(), seqs(100, 5))
		wantZeroed(t, replay)
	})
	t.Run("grown ring", func(t *testing.T) {
		r := newAdoptRig(256)
		p := r.p
		for i := 0; i < 100; i++ { // a 64-slot segment and a 128-slot one
			p.enqueue(live(uint64(1000 + i)))
		}
		p.take(make([]filtering.Delivery, 30))
		p.beginGate()
		p.enqueue(live(2000)) // held behind the gate
		replay := seqBatch(100, 12, 0)
		p.endGate(replay, false, &r.sh)
		wantSeqs(t, r.drain(), seqs(1030, 70), seqs(100, 12), []uint64{2000})
		wantZeroed(t, replay)
	})
}

// TestSmallCatchUpHoldsSmallQueue: a capacity-4096 port that catches up
// on a 10-message replay and then carries live traffic its drainer keeps
// up with holds a few KB of heap — a small ring segment, not the
// capacity.
func TestSmallCatchUpHoldsSmallQueue(t *testing.T) {
	const ports, budget = 16, 16 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and the pools' victim caches
	runtime.ReadMemStats(&before)
	rigs := make([]*adoptRig, ports)
	batch := make([]filtering.Delivery, 1)
	for i := range rigs {
		r := newAdoptRig(4096)
		rigs[i] = r
		p := r.p
		p.beginGate()
		p.enqueue(live(110)) // held behind the gate
		p.endGate(seqBatch(100, 10, 0), false, &r.sh)
		wantSeqs(t, r.drain(), seqs(100, 11))
		for seq := uint64(111); seq < 1111; seq++ {
			if !p.enqueue(live(seq)) {
				t.Fatalf("live %d refused", seq)
			}
			if n, _ := p.take(batch); n != 1 || batch[0].StoreSeq != seq {
				t.Fatalf("live %d did not drain", seq)
			}
		}
		if r.dropped.Value() != 0 {
			t.Fatalf("dropped %d below capacity", r.dropped.Value())
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPort := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / ports
	runtime.KeepAlive(rigs)
	if perPort > budget {
		t.Fatalf("a capacity-4096 port holds %d B after a 10-message catch-up, budget %d", perPort, budget)
	}
	t.Logf("%d B of heap per port", perPort)
}

// TestNestedGatesAdoptThenCopy runs two catch-ups on one port: the first
// endGate adopts its batch and leaves the held backlog alone, the second
// adopts its batch behind and flushes the backlog once both batches are
// in place.
func TestNestedGatesAdoptThenCopy(t *testing.T) {
	other := wire.MustStreamID(8, 0)
	r := newAdoptRig(4)
	p := r.p
	p.beginGate()
	p.beginGate()
	p.enqueue(live(106))                                                            // after the first replay
	p.enqueue(&filtering.Delivery{Msg: wire.Message{Stream: other}, StoreSeq: 203}) // after the second
	p.enqueue(&filtering.Delivery{Msg: wire.Message{Stream: other}, StoreSeq: 205})

	first := seqBatch(100, 6, 0)
	p.endGate(first, false, &r.sh)
	if p.ring.Len() != 6 || len(p.held) != 3 || p.slow.Load() != 1 {
		t.Fatalf("first endGate: ring %d held %d slow %d", p.ring.Len(), len(p.held), p.slow.Load())
	}
	second := make([]filtering.Delivery, 3)
	for i := range second {
		second[i] = filtering.Delivery{Msg: wire.Message{Stream: other}, StoreSeq: 200 + uint64(i)}
	}
	p.endGate(second, false, &r.sh)
	if p.slow.Load() != 0 || p.held != nil {
		t.Fatal("last endGate left the gate shut")
	}
	wantSeqs(t, r.drain(), seqs(100, 6), seqs(200, 3), []uint64{106, 203, 205})
}

// TestEndGateOnClosedPortDropsBatch is Unsubscribe winning the race with
// the replay fetch: nothing is queued, everything is accounted.
func TestEndGateOnClosedPortDropsBatch(t *testing.T) {
	r := newAdoptRig(4)
	p := r.p
	p.beginGate()
	p.enqueue(live(120))
	p.close() // drops the held delivery
	p.endGate(seqBatch(100, 9, 0), false, &r.sh)
	if n := p.ring.Len(); n != 0 {
		t.Fatalf("closed port queued %d", n)
	}
	if got := r.dropped.Value(); got != 10 || r.selfDrop.Value() != 10 {
		t.Fatalf("dropped %d/%d, want 10 (9 replayed + 1 held)", got, r.selfDrop.Value())
	}
	if p.gateCount != 0 || p.slow.Load() != 1 {
		t.Fatalf("closed port: gates %d, slow %d, want 0 and close's 1", p.gateCount, p.slow.Load())
	}
}

// TestOverflowDuringAdoptedDrain pins that overflow keys on the logical
// capacity while an adopted batch is still draining: the ring is over
// capacity, so the live delivery evicts the oldest replayed entry — one,
// not down to the capacity.
func TestOverflowDuringAdoptedDrain(t *testing.T) {
	r := newAdoptRig(4)
	p := r.p
	p.beginGate()
	p.endGate(seqBatch(100, 10, 0), false, &r.sh)
	if admitted := p.enqueue(live(500)); !admitted || r.dropped.Value() != 1 {
		t.Fatalf("admitted=%v dropped=%d", admitted, r.dropped.Value())
	}
	wantSeqs(t, r.drain(), seqs(101, 9), []uint64{500})
	// Back under capacity, the ring admits up to it again.
	for i := 0; i < 4; i++ {
		if !p.enqueue(live(uint64(600 + i))) {
			t.Fatalf("enqueue %d refused on a drained queue", i)
		}
	}
	wantSeqs(t, r.drain(), seqs(600, 4))
}

// TestPlaceReplayAllocations pins the cost of placing a replay batch: an
// endGate allocates one ring segment (and the adopted segment's header)
// and copies nothing, so a 4096-entry batch costs what a 1-entry one does.
func TestPlaceReplayAllocations(t *testing.T) {
	r := newAdoptRig(8)
	p := r.p
	place := func(batch []filtering.Delivery) uint64 {
		var before, after runtime.MemStats
		p.beginGate()
		runtime.ReadMemStats(&before)
		p.endGate(batch, false, &r.sh)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	place(seqBatch(1, 1, 0))
	small := place(seqBatch(1, 1, 0))
	large := place(seqBatch(1, 4096, 0))
	if large > small+1024 {
		t.Fatalf("placing 4096 replayed deliveries allocated %d B, 1 delivery %d B: the batch was copied", large, small)
	}
	batches := make([][]filtering.Delivery, 101)
	for i := range batches {
		batches[i] = seqBatch(1, 16, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.beginGate()
		p.endGate(batches[0], false, &r.sh)
		batches = batches[1:]
	})
	if allocs > 3 {
		t.Fatalf("endGate: %.1f allocs, want the adopted header and one segment's header and slots", allocs)
	}
}
