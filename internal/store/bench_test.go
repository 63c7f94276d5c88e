package store

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// BenchmarkStoreAppend measures the retention hot path: one delivery
// copied into the stream's ring. Steady state must be 0 allocs/op — the
// ring's payload arena is compacted in place, so the tee into the store
// leaves no garbage. payload=16 stays in the slot; 17 and 256 go through
// the arena.
func BenchmarkStoreAppend(b *testing.B) {
	for _, payload := range []int{16, 17, 256} {
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			s := New(Options{})
			id := wire.MustStreamID(1, 0)
			d := del(id, 0, epoch, make([]byte, payload))
			// Warm the ring and its arena to the working-set size.
			for i := 0; i < 2*DefaultMaxMessages; i++ {
				d.Msg.Seq = wire.Seq(i)
				s.Append(d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Msg.Seq = wire.Seq(i)
				s.Append(d)
			}
		})
	}
}

// BenchmarkStoreAppendCensus is the regime the deployment benchmark's
// fixednet_census found and a single warm stream hides: 200 000 streams
// each touched once, then appends landing at random on 16 384 of them, so
// every append misses the cache on its stream's state and — below some
// four million iterations, where the rings reach their 256-slot bound —
// rings and arenas are still growing from one slot. B/op is the growth.
// Every deployment workload's payload is 16 bytes, which a slot holds
// itself; payload=17 is the same census one byte over, through the arena.
func BenchmarkStoreAppendCensus(b *testing.B) {
	for _, payload := range []int{16, 17} {
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			const sensors, active = 200000, 16384
			s := New(Options{})
			d := del(0, 0, epoch, make([]byte, payload))
			for i := 1; i <= sensors; i++ {
				d.Msg.Stream = wire.MustStreamID(wire.SensorID(i), 0)
				s.Append(d)
			}
			rng := rand.New(rand.NewSource(1))
			ids := make([]wire.StreamID, active)
			for k, i := range rng.Perm(sensors)[:active] {
				ids[k] = wire.MustStreamID(wire.SensorID(i+1), 0)
			}
			next := make([]wire.Seq, active)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(active)
				next[k]++
				d.Msg.Stream, d.Msg.Seq = ids[k], next[k]
				s.Append(d)
			}
		})
	}
}

// BenchmarkStoreReplay measures reading a full retained window back out:
// visit is the borrowed zero-copy path a same-process consumer (the
// dispatch catch-up gate's fetch) can use via RangeFunc; materialize is
// Range with detached payload copies, what the facade hands callers.
// sealed and archived are materialize over a window that lies mostly in
// sealed blocks: 16 hot entries, the rest in 15 blocks held in memory (a
// codec, no archive) or filed in an in-memory archive backend.
func BenchmarkStoreReplay(b *testing.B) {
	const window = 256
	s := New(Options{MaxMessages: window})
	id := wire.MustStreamID(1, 0)
	d := del(id, 0, epoch, make([]byte, 64))
	for i := 0; i < window; i++ {
		d.Msg.Seq = wire.Seq(i)
		s.Append(d)
	}
	b.Run("visit", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			s.RangeFunc(id, 0, ^uint64(0), func(filtering.Delivery) bool { n++; return true })
		}
		if n != b.N*window {
			b.Fatalf("visited %d, want %d", n, b.N*window)
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := s.Range(id, 0, ^uint64(0)); len(got) != window {
				b.Fatalf("replayed %d, want %d", len(got), window)
			}
		}
	})
	for _, tier := range []struct {
		name    string
		backend archive.Backend
	}{{"sealed", nil}, {"archived", archive.NewMem()}} {
		b.Run(tier.name, func(b *testing.B) {
			s := New(Options{MaxMessages: 16, Codec: "auto", BlockSize: 16, ColdBudget: 1 << 30,
				Archive: tier.backend, archiveSync: true})
			defer s.Close()
			for i := 0; i < window; i++ {
				s.Append(compressedDel(id, i))
			}
			if st := s.Stats(); st.ColdBlocks+int(st.ArchivedBlocks) != (window-16)/16 {
				b.Fatalf("window is not sealed: %+v", st)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Range(id, 0, ^uint64(0)); len(got) != window {
					b.Fatalf("replayed %d, want %d", len(got), window)
				}
			}
		})
	}
}
