package store

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// appendPlan builds a deterministic randomised retention schedule across
// several sensors: mostly in-order sequences with jumps (gaps), replays
// (late fills / idempotent duplicates) and enough volume to trip the
// count/bytes eviction bounds and wire-sequence unwrap.
func appendPlan(seed int64, sensors, msgs int) []filtering.Delivery {
	rng := rand.New(rand.NewSource(seed))
	heads := make(map[wire.StreamID]int)
	plan := make([]filtering.Delivery, 0, msgs)
	for i := 0; i < msgs; i++ {
		id := wire.MustStreamID(wire.SensorID(rng.Intn(sensors)+1), wire.StreamIndex(rng.Intn(2)))
		head := heads[id]
		switch rng.Intn(5) {
		case 0: // jump ahead
			head += rng.Intn(9) + 2
		case 1: // replay something recent
			head -= rng.Intn(20)
		default: // in order
			head++
		}
		if head < 0 {
			head = 0
		}
		heads[id] = head
		payload := make([]byte, rng.Intn(24)+1)
		payload[0] = byte(head)
		plan = append(plan, del(id, wire.Seq(head), epoch.Add(time.Duration(i)*time.Millisecond), payload))
	}
	return plan
}

// TestAppendBatchMatchesSerialProperty pins AppendBatch to serial Append:
// the same delivery schedule fed through randomized batch splits must
// leave identical retained contents (Range over the full window per
// stream), identical per-stream and aggregate stats, and identical
// StoreSeq assignments.
func TestAppendBatchMatchesSerialProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := appendPlan(seed, 7, 2000)
		type snap struct {
			contents map[wire.StreamID][]filtering.Delivery
			stream   map[wire.StreamID]StreamStats
			stats    Stats
		}
		snapshot := func(s *Store) snap {
			sn := snap{
				contents: make(map[wire.StreamID][]filtering.Delivery),
				stream:   make(map[wire.StreamID]StreamStats),
			}
			for _, id := range s.Streams() {
				sn.contents[id] = s.Range(id, 0, ^uint64(0))
				st, _ := s.StreamStats(id)
				sn.stream[id] = st
			}
			sn.stats = s.Stats()
			return sn
		}
		opts := Options{MaxMessages: 48, MaxBytes: 640}

		serial := New(opts)
		exts := make([]uint64, len(plan))
		for i, d := range plan {
			exts[i] = serial.Append(d)
		}

		batched := New(opts)
		rng := rand.New(rand.NewSource(seed * 131))
		ds := append([]filtering.Delivery(nil), plan...)
		for off := 0; off < len(ds); {
			n := rng.Intn(65) + 1
			if n > len(ds)-off {
				n = len(ds) - off
			}
			batched.AppendBatch(ds[off : off+n])
			off += n
		}
		for i := range ds {
			if ds[i].StoreSeq != exts[i] {
				t.Fatalf("seed %d: delivery %d stamped StoreSeq %d, serial assigned %d",
					seed, i, ds[i].StoreSeq, exts[i])
			}
		}
		ref, got := snapshot(serial), snapshot(batched)
		if !reflect.DeepEqual(ref.contents, got.contents) {
			t.Fatalf("seed %d: batched retained contents diverge from serial", seed)
		}
		if !reflect.DeepEqual(ref.stream, got.stream) {
			t.Fatalf("seed %d: per-stream stats diverge: serial %+v, batched %+v",
				seed, ref.stream, got.stream)
		}
		if ref.stats != got.stats {
			t.Fatalf("seed %d: aggregate stats diverge: serial %+v, batched %+v",
				seed, ref.stats, got.stats)
		}
	}
}

// TestAppendBatchZeroAllocSteadyState pins the batched append path at
// 0 allocs/op once rings and their payload arenas are warm.
func TestAppendBatchZeroAllocSteadyState(t *testing.T) {
	s := New(Options{MaxMessages: 128})
	const n = 64
	ds := make([]filtering.Delivery, n)
	payload := make([]byte, 32)
	seq := 0
	fill := func() {
		for i := range ds {
			ds[i] = del(wire.MustStreamID(wire.SensorID(i%8+1), 0), wire.Seq(seq), epoch, payload)
		}
		seq++
	}
	// Warm up: grow each ring and its arena to the working-set size.
	for seq < 256 {
		fill()
		s.AppendBatch(ds)
	}
	allocs := testing.AllocsPerRun(500, func() {
		fill()
		s.AppendBatch(ds)
	})
	if allocs != 0 {
		t.Fatalf("AppendBatch allocates %.1f/op at steady state, want 0", allocs)
	}
}
