package filtering

import (
	"sync"
	"sync/atomic"
	"testing"

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

// TestSingleShardConfiguration runs the core expectations at Shards: 1
// (the historical single-table configuration) and checks the Stats
// surface reports the partition count.
func TestSingleShardConfiguration(t *testing.T) {
	var sunk int
	f := New(func(Delivery) { sunk++ }, Options{Shards: 1})
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

// TestDefaultShardCount: the zero Options value selects DefaultShards.
func TestDefaultShardCount(t *testing.T) {
	f := New(func(Delivery) {}, Options{})
	if st := f.Stats(); st.Shards != DefaultShards {
		t.Fatalf("Shards = %d, want %d", st.Shards, DefaultShards)
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
	f := New(func(Delivery) { sunk.Add(1) }, Options{Shards: 8})

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
	if st.Received != st.Delivered+st.Duplicates+st.Stale {
		t.Fatalf("accounting identity broken: %+v", st)
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
