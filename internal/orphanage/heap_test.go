package orphanage

import (
	"math/rand"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/wire"
)

// Eviction-order regression for the silence min-heap: under maxStreams
// pressure the victim is always the stream silent the longest, with
// touches (which re-heap the stream towards the back) and claims (which
// remove arbitrary heap positions) interleaved.
func TestEvictionOrderFollowsSilence(t *testing.T) {
	o := newOrphanage(Options{maxStreams: 3})
	s := func(n wire.SensorID) wire.StreamID { return wire.MustStreamID(n, 0) }
	at := func(sec int) time.Time { return epoch.Add(time.Duration(sec) * time.Second) }

	o.Consume(del(s(1), 0, at(0), nil))
	o.Consume(del(s(2), 0, at(1), nil))
	o.Consume(del(s(3), 0, at(2), nil))
	o.Consume(del(s(1), 1, at(3), nil)) // touch 1: now 2 is the oldest-silent

	o.Consume(del(s(4), 0, at(4), nil)) // evicts 2, not 1
	if _, held := o.StreamInfo(s(2)); held {
		t.Fatal("stream 2 should have been evicted (oldest silent)")
	}
	if _, held := o.StreamInfo(s(1)); !held {
		t.Fatal("stream 1 was touched and must survive the eviction")
	}

	if _, ok := o.Claim(s(3)); !ok { // remove a middle heap position
		t.Fatal("claim of held stream failed")
	}
	o.Consume(del(s(5), 0, at(5), nil)) // fills the claimed slot, no eviction
	o.Consume(del(s(6), 0, at(6), nil)) // evicts 1 (silent since t3)
	if _, held := o.StreamInfo(s(1)); held {
		t.Fatal("stream 1 should now be the eviction victim")
	}
	for _, want := range []wire.SensorID{4, 5, 6} {
		if _, held := o.StreamInfo(s(want)); !held {
			t.Fatalf("stream %d should be held", want)
		}
	}
	if st := o.Stats(); st.StreamsEvicted != 2 || st.Claims != 1 || st.StreamsHeld != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// Differential check: the heap-based eviction picks the same victims as a
// brute-force oldest-silent scan over random workloads of consumes,
// claims and age-based sweeps.
func TestEvictionHeapMatchesScanProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		const maxStreams = 8
		o := newOrphanage(Options{maxStreams: maxStreams})
		ref := map[wire.StreamID]time.Time{} // stream → lastSeen, maintained brute-force
		now := epoch
		for step := 0; step < 400; step++ {
			now = now.Add(time.Duration(rng.Intn(1000)+1) * time.Millisecond)
			id := wire.MustStreamID(wire.SensorID(rng.Intn(24)+1), 0)
			switch k := rng.Intn(10); {
			case k < 7:
				if _, held := ref[id]; !held && len(ref) >= maxStreams {
					// Brute-force victim: oldest lastSeen.
					var victim wire.StreamID
					first := true
					var oldest time.Time
					for vid, seen := range ref {
						if first || seen.Before(oldest) {
							victim, oldest, first = vid, seen, false
						}
					}
					delete(ref, victim)
				}
				ref[id] = now
				o.Consume(del(id, wire.Seq(step), now, nil))
			case k < 8:
				_, refHeld := ref[id]
				if _, held := o.Claim(id); held != refHeld {
					t.Fatalf("trial %d step %d: Claim(%v) held=%v, reference %v", trial, step, id, held, refHeld)
				}
				delete(ref, id)
			default:
				cutoff := now.Add(-time.Duration(rng.Intn(4000)) * time.Millisecond)
				want := 0
				for vid, seen := range ref {
					if seen.Before(cutoff) {
						delete(ref, vid)
						want++
					}
				}
				if got := o.EvictBefore(cutoff); got != want {
					t.Fatalf("trial %d step %d: EvictBefore evicted %d, reference %d", trial, step, got, want)
				}
			}
			// The held stream sets must agree exactly.
			if st := o.Stats(); st.StreamsHeld != len(ref) {
				t.Fatalf("trial %d step %d: holds %d streams, reference %d", trial, step, st.StreamsHeld, len(ref))
			}
			for vid := range ref {
				if _, held := o.StreamInfo(vid); !held {
					t.Fatalf("trial %d step %d: stream %v missing", trial, step, vid)
				}
			}
		}
	}
}
