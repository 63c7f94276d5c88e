package store

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestIngestWaitsForFencedRead pins the store half of the catch-up fence:
// an Ingest on a stream that arrives while a fenced install and read hold
// the stream's shard lock waits until both have finished. The backlog
// read in the fence does not hold the reception, and the Ingest's own
// fence, where a deployment resolves the route, runs after the install.
func TestIngestWaitsForFencedRead(t *testing.T) {
	s := New(Options{})
	stream := wire.MustStreamID(3, 0)
	rc := func(seq int) receiver.Reception {
		return receiver.Reception{
			Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)}, Receiver: "rx-fence", At: time.Unix(int64(seq), 0),
		}
	}
	for seq := 0; seq < 3; seq++ {
		if _, ok := s.Ingest(rc(seq), nil); !ok {
			t.Fatalf("seq %d screened out", seq)
		}
	}

	var order []string               // appended to by fences only, under the shard lock
	ingested := make(chan uint64, 1) // the racing reception's StoreSeq
	backlog := s.RangeFenced(stream, 0, ^uint64(0), func() {
		order = append(order, "install")
		started := make(chan struct{})
		go func() {
			close(started)
			d, _ := s.Ingest(rc(3), func() { order = append(order, "route") })
			ingested <- d.StoreSeq
		}()
		<-started
		for range 100 {
			runtime.Gosched()
			if len(ingested) != 0 {
				t.Error("Ingest returned inside the fenced install and read")
				return
			}
		}
	})
	seq := <-ingested
	if len(backlog) != 3 || backlog[2].StoreSeq >= seq {
		t.Fatalf("backlog of %d ends at StoreSeq %d: it holds the reception that arrived during the fence (%d)",
			len(backlog), backlog[len(backlog)-1].StoreSeq, seq)
	}
	if want := []string{"install", "route"}; !slices.Equal(order, want) {
		t.Fatalf("fences ran in order %v, want %v", order, want)
	}
}
