package filtering

import (
	"reflect"
	"testing"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestLazyWindowMatchesEagerProperty pins the lazily-materialised dup
// window to the exact decisions of the historical eager bitmap: the same
// randomised schedule — in-order runs, gaps, far jumps, duplicates, late
// recoveries, stale drops, wrap-around — must produce identical
// per-stream sink sequences and identical aggregate accounting whether
// every stream starts with its bitmap (the eager run seeds each planned
// stream's filter state before ingest) or allocates it only on its first
// gap/out-of-order arrival.
func TestLazyWindowMatchesEagerProperty(t *testing.T) {
	for _, windowSize := range []int{64, 1024} {
		for seed := int64(1); seed <= 5; seed++ {
			plan := receptionPlan(seed, 9, 1500)
			run := func(eager bool) (map[wire.StreamID][]wire.Seq, Stats) {
				var out []Delivery
				f := New(func(d Delivery) { out = append(out, d) },
					Options{windowSize: windowSize, Shards: 8})
				if eager {
					for _, rc := range plan {
						id := rc.Msg.Stream
						sh := f.shardFor(id)
						sf := sh.tab[id]
						if sf == nil {
							sf = new(streamFilter)
							sh.tab[id] = sf
						}
						if sf.rest == nil {
							sf.rest = &Rest{window: make([]uint64, sh.screen.size/64)}
						}
					}
				}
				for _, rc := range plan {
					f.Ingest(rc)
				}
				return perStream(out), f.Stats()
			}
			eagerSeqs, eagerStats := run(true)
			lazySeqs, lazyStats := run(false)
			if !reflect.DeepEqual(eagerSeqs, lazySeqs) {
				t.Fatalf("window=%d seed %d: lazy per-stream deliveries diverge from eager", windowSize, seed)
			}
			if eagerStats != lazyStats {
				t.Fatalf("window=%d seed %d: stats diverge: eager %+v, lazy %+v",
					windowSize, seed, eagerStats, lazyStats)
			}
		}
	}
}

// TestLazyWindowStaysNilInOrder pins the footprint contract itself: an
// in-order stream never allocates a bitmap, a far jump (≥ window) keeps
// it lazy, and the first in-window gap or late recovery materialises it
// with the contiguous range set.
func TestLazyWindowStaysNilInOrder(t *testing.T) {
	f := New(func(Delivery) {}, Options{windowSize: 64, Shards: 1})
	id := wire.MustStreamID(1, 0)
	ingest := func(seq wire.Seq) {
		f.Ingest(receiver.Reception{Msg: wire.Message{Stream: id, Seq: seq}})
	}
	// window returns the stream's bitmap, nil while it has none.
	window := func(id wire.StreamID) []uint64 {
		sh := f.shardFor(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sf := sh.tab[id]; sf.rest != nil {
			return sf.rest.window
		}
		return nil
	}
	span := func() uint16 {
		sh := f.shardFor(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.tab[id].span
	}

	for seq := wire.Seq(1); seq <= 200; seq++ {
		ingest(seq)
	}
	if w := window(id); w != nil {
		t.Fatalf("in-order stream materialised a %d-word window", len(w))
	}
	if got := span(); got != 64 {
		t.Fatalf("span = %d, want clamped 64", got)
	}

	ingest(200 + 64) // far jump, flushes the whole window
	if window(id) != nil {
		t.Fatalf("far jump materialised the window")
	}
	if got := span(); got != 1 {
		t.Fatalf("span after far jump = %d, want 1", got)
	}

	ingest(200 + 64 + 2) // in-window gap: must materialise
	if window(id) == nil {
		t.Fatalf("in-window gap did not materialise the window")
	}

	// A second stream materialises on late recovery instead.
	id2 := wire.MustStreamID(2, 0)
	for seq := wire.Seq(10); seq <= 20; seq++ {
		f.Ingest(receiver.Reception{Msg: wire.Message{Stream: id2, Seq: seq}})
	}
	f.Ingest(receiver.Reception{Msg: wire.Message{Stream: id2, Seq: 5}})
	if window(id2) == nil {
		t.Fatalf("late recovery did not materialise the window")
	}
	st := f.Stats()
	if st.GapsRecovered != 1 {
		t.Fatalf("GapsRecovered = %d, want 1", st.GapsRecovered)
	}
}
