package filtering

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestShardIndexInRange pins the multiply-shift hash to its contract:
// every sensor id maps into [0, n) for every shard count.
func TestShardIndexInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 17, 100} {
		for _, id := range []wire.SensorID{0, 1, 2, 255, 1 << 20, wire.MaxSensorID} {
			got := id.Shard(n)
			if got < 0 || got >= n {
				t.Fatalf("SensorID(%d).Shard(%d) = %d, out of range", id, n, got)
			}
		}
	}
}

// TestShardSpread guards against a degenerate hash: 1024 sequential
// sensor ids across 16 shards must not pile into a few shards.
func TestShardSpread(t *testing.T) {
	const n = 16
	var hist [n]int
	for id := wire.SensorID(0); id < 1024; id++ {
		hist[id.Shard(n)]++
	}
	for i, c := range hist {
		if c == 0 {
			t.Fatalf("shard %d got no sensors out of 1024", i)
		}
		if c > 1024/n*3 {
			t.Fatalf("shard %d got %d of 1024 sensors (degenerate spread: %v)", i, c, hist)
		}
	}
}

// TestSingleShardConfiguration runs the core expectations on one shard
// (the historical single-table configuration) and checks the Stats
// surface reports the partition count.
func TestSingleShardConfiguration(t *testing.T) {
	var sunk int
	f := New(func(Delivery) { sunk++ }, Options{shards: 1})
	for sensor := wire.SensorID(1); sensor <= 8; sensor++ {
		id := wire.MustStreamID(sensor, 0)
		f.Ingest(rcpt(id, 0))
		f.Ingest(rcpt(id, 0)) // duplicate
		f.Ingest(rcpt(id, 1))
	}
	st := f.Stats()
	if st.Shards != 1 {
		t.Fatalf("Shards = %d, want 1", st.Shards)
	}
	if sunk != 16 || st.Delivered != 16 || st.Duplicates != 8 || st.ActiveStreams != 8 {
		t.Fatalf("sunk=%d stats=%+v", sunk, st)
	}
}

// TestDefaultShardCount: the zero Options value selects wire.Shards.
func TestDefaultShardCount(t *testing.T) {
	f := New(func(Delivery) {}, Options{})
	if st := f.Stats(); st.Shards != wire.Shards {
		t.Fatalf("Shards = %d, want %d", st.Shards, wire.Shards)
	}
}

// TestConcurrentIngestStats is the -race stress test, mirroring
// dispatch's TestConcurrentSubscribeUnsubscribePublish: ingesters hammer
// streams across every shard — two goroutines per sensor replaying the
// same sequences, so the duplicate path is exercised concurrently — while
// another goroutine reads Stats against the same filter. Invariants: no
// data race, the sink only ever sees unique messages per stream, and
// after quiescing the counter identity received == delivered + duplicates
// + stale holds.
func TestConcurrentIngestStats(t *testing.T) {
	const (
		sensors = 32
		msgsPer = 400
	)
	var sunk atomic.Int64
	f := New(func(Delivery) { sunk.Add(1) }, Options{})

	var ingesters, reader sync.WaitGroup
	stop := make(chan struct{})
	// Two ingesters per sensor replay the same sequence range: overlap
	// duplication by construction.
	for g := 0; g < 2*sensors; g++ {
		ingesters.Add(1)
		go func(g int) {
			defer ingesters.Done()
			id := wire.MustStreamID(wire.SensorID(g%sensors+1), 0)
			for i := 0; i < msgsPer; i++ {
				f.Ingest(rcpt(id, wire.Seq(i)))
			}
		}(g)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = f.Stats()
			}
		}
	}()
	ingesters.Wait()
	close(stop)
	reader.Wait()

	st := f.Stats()
	if st.Received != 2*sensors*msgsPer {
		t.Fatalf("Received = %d, want %d", st.Received, 2*sensors*msgsPer)
	}
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
	if got := sunk.Load(); got != st.Delivered {
		t.Fatalf("sink saw %d, Delivered = %d", got, st.Delivered)
	}
	if st.Delivered != sensors*msgsPer {
		t.Fatalf("Delivered = %d, want %d unique", st.Delivered, sensors*msgsPer)
	}
	if st.ActiveStreams != sensors {
		t.Fatalf("ActiveStreams = %d, want %d", st.ActiveStreams, sensors)
	}
}

// BenchmarkFilterIngestShards runs concurrent ingest across disjoint
// streams (one per publisher goroutine), sweeping the filter shard
// count between one and wire.Shards. With one shard every reception
// serialises on one mutex; with wire.Shards unrelated streams ingest
// without contention. On a single-core host only the reduced serial
// overhead shows; the structural win needs real cores.
func BenchmarkFilterIngestShards(b *testing.B) {
	for _, publishers := range []int{1, 10, 100} {
		for _, shards := range []int{1, wire.Shards} {
			b.Run(fmt.Sprintf("publishers=%d/shards=%d", publishers, shards), func(b *testing.B) {
				var sunk atomic.Int64
				f := New(func(Delivery) { sunk.Add(1) },
					Options{shards: shards})
				streams := make([]wire.StreamID, publishers)
				for i := range streams {
					streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < publishers; g++ {
					n := b.N / publishers
					if g < b.N%publishers {
						n++
					}
					wg.Add(1)
					go func(stream wire.StreamID, n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							f.Ingest(receiver.Reception{
								Msg: wire.Message{Stream: stream, Seq: wire.Seq(i)},
							})
						}
					}(streams[g], n)
				}
				wg.Wait()
				b.StopTimer()
				if got := sunk.Load(); got != int64(b.N) {
					b.Fatalf("delivered %d of %d", got, b.N)
				}
			})
		}
	}
}
