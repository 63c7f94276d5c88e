package filtering

import (
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestForgetSlotReuseKeepsTimersApart: Forget frees a stream's table
// record for the next new stream in the shard, so a reorder timer must
// reach its state through its own reorder object. Stream A holds entries,
// A is forgotten, and B is created in A's freed record; A's discarded
// entries must never reach the sink, and B's must be released at B's own
// release time, in order. "armed" forgets A while its timer waits;
// "mid-release" forgets A while a fire of A's is sinking, so that fire
// finishes after B owns the record and while a fire of B's is sinking: a
// fire that reached its state through the record would clear B's
// releasing guard and let a second fire of B's overtake the first.
func TestForgetSlotReuseKeepsTimersApart(t *testing.T) {
	const window = 10 * time.Millisecond
	a, b := wire.MustStreamID(1, 0), wire.MustStreamID(2, 0)

	type got struct {
		stream wire.StreamID
		seq    wire.Seq
	}
	setup := func(sink func(Delivery)) (*Filter, *sim.VirtualClock) {
		clock := sim.NewVirtualClock(epoch)
		return New(sink, Options{Shards: 1, ReorderWindow: window, Clock: clock}), clock
	}
	ingest := func(f *Filter, id wire.StreamID, seq wire.Seq, at time.Time) {
		f.Ingest(receiver.Reception{Msg: wire.Message{Stream: id, Seq: seq}, Receiver: "rx", At: at})
	}
	record := func(f *Filter, id wire.StreamID) *streamFilter {
		sh := f.shardFor(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.tab.Get(id)
	}
	check := func(t *testing.T, out []got, want ...got) {
		t.Helper()
		if len(out) != len(want) {
			t.Fatalf("sink saw %v, want %v", out, want)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("sink saw %v, want %v", out, want)
			}
		}
	}

	t.Run("armed", func(t *testing.T) {
		var out []got
		f, clock := setup(func(d Delivery) { out = append(out, got{d.Msg.Stream, d.Msg.Seq}) })
		ingest(f, a, 2, clock.Now())
		ingest(f, a, 1, clock.Now()) // A's timer is armed for epoch+window
		ra := record(f, a)
		if !f.Forget(a) {
			t.Fatal("Forget found no state")
		}
		clock.Advance(window / 2)
		ingest(f, b, 8, clock.Now())
		ingest(f, b, 7, clock.Now()) // B's release: epoch+1.5·window
		if record(f, b) != ra {
			t.Fatal("B did not take A's freed record")
		}
		clock.Advance(window/2 + window/4) // past A's release time
		check(t, out)
		clock.Advance(window / 4) // B's release time
		check(t, out, got{b, 7}, got{b, 8})
		clock.Advance(10 * window)
		check(t, out, got{b, 7}, got{b, 8})
		if st := f.Stats(); st.Delivered != 2 || st.ActiveStreams != 1 {
			t.Fatalf("stats %+v, want 2 delivered from 1 active stream", st)
		}
	})

	t.Run("mid-release", func(t *testing.T) {
		var (
			mu      sync.Mutex
			out     []got
			inA     = make(chan struct{})
			inB     = make(chan struct{})
			resumeA = make(chan struct{})
			resumeB = make(chan struct{})
		)
		defer func() { // unblock the sinks if the test fails early
			for _, c := range []chan struct{}{resumeA, resumeB} {
				select {
				case <-c:
				default:
					close(c)
				}
			}
		}()
		f, clock := setup(func(d Delivery) {
			mu.Lock()
			out = append(out, got{d.Msg.Stream, d.Msg.Seq})
			mu.Unlock()
			switch (got{d.Msg.Stream, d.Msg.Seq}) {
			case got{a, 1}:
				close(inA)
				<-resumeA
			case got{b, 4}:
				close(inB)
				<-resumeB
			}
		})
		wait := func(c <-chan struct{}, what string) {
			t.Helper()
			select {
			case <-c:
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out waiting for %s", what)
			}
		}
		advance := func(d time.Duration) <-chan struct{} {
			done := make(chan struct{})
			go func() {
				defer close(done)
				clock.Advance(d)
			}()
			return done
		}
		snapshot := func() []got {
			mu.Lock()
			defer mu.Unlock()
			return append([]got(nil), out...)
		}

		ingest(f, a, 1, clock.Now()) // released at epoch+window
		clock.Advance(window / 2)
		ingest(f, a, 2, clock.Now()) // released at epoch+1.5·window: discarded by Forget
		doneA := advance(window / 2)
		wait(inA, "A's fire to sink seq 1")

		ra := record(f, a)
		if !f.Forget(a) {
			t.Fatal("Forget found no state")
		}
		now := clock.Now() // epoch+window
		ingest(f, b, 5, now)
		ingest(f, b, 4, now)                         // released at epoch+2·window, with 5
		ingest(f, b, 6, now.Add(2*time.Millisecond)) // released 2 ms later
		if record(f, b) != ra {
			t.Fatal("B did not take A's freed record")
		}
		doneB := advance(window)
		wait(inB, "B's fire to sink seq 4")

		close(resumeA) // A's fire finishes while B's is mid-sink
		wait(doneA, "A's fire to return")
		clock.Advance(2 * time.Millisecond) // seq 6 falls due: B's fire owns it
		close(resumeB)
		wait(doneB, "B's fire to return")
		clock.Advance(0) // the re-armed timer for seq 6
		clock.Advance(10 * window)
		check(t, snapshot(), got{a, 1}, got{b, 4}, got{b, 5}, got{b, 6})
	})
}
