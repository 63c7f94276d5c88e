package filtering

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// receptionPlan is a deterministic randomised ingest schedule: streams
// across several sensors, sequences drawn near a moving head (so the
// accept, duplicate, late-recovery and stale paths all fire), every
// message heard by 1–3 overlapping receivers.
func receptionPlan(seed int64, sensors, msgs int) []receiver.Reception {
	rng := rand.New(rand.NewSource(seed))
	heads := make(map[wire.StreamID]int)
	var plan []receiver.Reception
	for i := 0; i < msgs; i++ {
		id := wire.MustStreamID(wire.SensorID(rng.Intn(sensors)+1), wire.StreamIndex(rng.Intn(2)))
		head := heads[id]
		var seq wire.Seq
		switch rng.Intn(4) {
		case 0: // in order
			head++
			seq = wire.Seq(head)
		case 1: // jump ahead, opening a gap
			head += rng.Intn(10) + 2
			seq = wire.Seq(head)
		case 2: // replay something recent (duplicate or late recovery)
			seq = wire.Seq(head - rng.Intn(70))
		default: // far past: stale beyond a 64-window once head has moved
			seq = wire.Seq(head - 64 - rng.Intn(200))
		}
		heads[id] = head
		copies := rng.Intn(3) + 1
		for c := 0; c < copies; c++ {
			plan = append(plan, receiver.Reception{
				Msg:      wire.Message{Stream: id, Seq: seq},
				Receiver: "rx",
				RSSI:     0.5,
				At:       epoch.Add(time.Duration(i) * time.Millisecond),
			})
		}
	}
	return plan
}

// perStream groups the delivered sequence numbers by stream, in sink
// order.
func perStream(out []Delivery) map[wire.StreamID][]wire.Seq {
	m := make(map[wire.StreamID][]wire.Seq)
	for _, d := range out {
		m[d.Msg.Stream] = append(m[d.Msg.Stream], d.Msg.Seq)
	}
	return m
}

// TestShardedMatchesSingleTableProperty pins the sharded filter to the
// exact accept/duplicate/stale decisions of the historical single-table
// path: the same reception schedule in, the same per-stream sink sequence
// out, and identical aggregate accounting.
func TestShardedMatchesSingleTableProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := receptionPlan(seed, 9, 1500)
		run := func(shards int) (map[wire.StreamID][]wire.Seq, Stats) {
			var out []Delivery
			f := New(func(d Delivery) { out = append(out, d) },
				Options{windowSize: 64, Shards: shards})
			for _, rc := range plan {
				f.Ingest(rc)
			}
			st := f.Stats()
			st.Shards = 0 // the one field allowed to differ
			return perStream(out), st
		}
		refSeqs, refStats := run(1)
		gotSeqs, gotStats := run(8)
		if !reflect.DeepEqual(refSeqs, gotSeqs) {
			t.Fatalf("seed %d: sharded per-stream deliveries diverge from single-table", seed)
		}
		if refStats != gotStats {
			t.Fatalf("seed %d: stats diverge: single-table %+v, sharded %+v", seed, refStats, gotStats)
		}
	}
}

// TestIngestZeroAlloc pins the per-message screen at 0 allocs/op once a
// stream's state exists: a non-borrowed reception costs no allocation
// whether it is accepted (in order, so the dup window stays lazy) or
// rejected as a duplicate copy.
func TestIngestZeroAlloc(t *testing.T) {
	f := New(func(Delivery) {}, Options{Shards: 8})
	payload := make([]byte, 16)
	i := 0
	next := func(fresh bool) receiver.Reception {
		if fresh {
			i++
		}
		return receiver.Reception{
			Msg:      wire.Message{Stream: wire.MustStreamID(wire.SensorID(i%8+1), 0), Seq: wire.Seq(i / 8), Payload: payload},
			At:       epoch,
			Receiver: "rx",
		}
	}
	for warm := 0; warm < 16; warm++ { // create every stream's state
		f.Ingest(next(true))
	}
	if allocs := testing.AllocsPerRun(1000, func() { f.Ingest(next(true)) }); allocs != 0 {
		t.Fatalf("accepted Ingest allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { f.Ingest(next(false)) }); allocs != 0 {
		t.Fatalf("duplicate Ingest allocates %.1f/op, want 0", allocs)
	}
	if st := f.Stats(); st.Duplicates < 1000 || st.Delivered < 1000 || st.Stale != 0 {
		t.Fatalf("pin did not exercise both verdicts: %+v", st)
	}
}

// TestShardedReorderMatchesSingleTable runs the same property with the
// reorder stage enabled on a virtual clock: bounded-hold release order per
// stream must be identical regardless of sharding.
func TestShardedReorderMatchesSingleTable(t *testing.T) {
	plan := receptionPlan(42, 6, 800)
	run := func(shards int) map[wire.StreamID][]wire.Seq {
		clock := sim.NewVirtualClock(epoch)
		var out []Delivery
		f := New(func(d Delivery) { out = append(out, d) }, Options{
			windowSize: 64, Shards: shards,
			ReorderWindow: 10 * time.Millisecond, Clock: clock,
		})
		for _, rc := range plan {
			clock.RunUntil(rc.At)
			f.Ingest(rc)
		}
		clock.Advance(time.Second)
		f.Flush()
		return perStream(out)
	}
	ref := run(1)
	got := run(8)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("sharded reorder release order diverges from single-table")
	}
}
