package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// gatedBackend holds Append calls back while the gate is shut, so an
// async store accumulates pending spills for as long as a test wants to
// read through them.
type gatedBackend struct {
	archive.Backend
	mu      sync.Mutex
	cond    *sync.Cond
	shut    bool
	waiting int // Append calls held at the gate right now
}

func newGatedBackend(b archive.Backend) *gatedBackend {
	g := &gatedBackend{Backend: b}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gatedBackend) Append(stream wire.StreamID, ref archive.Ref, data []byte) error {
	g.mu.Lock()
	g.waiting++
	g.cond.Broadcast()
	for g.shut {
		g.cond.Wait()
	}
	g.waiting--
	g.mu.Unlock()
	return g.Backend.Append(stream, ref, data)
}

// awaitHeld returns once an Append call is held at the gate.
func (g *gatedBackend) awaitHeld() {
	g.mu.Lock()
	for g.waiting == 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *gatedBackend) set(shut bool) {
	g.mu.Lock()
	g.shut = shut
	g.mu.Unlock()
	g.cond.Broadcast()
}

// borrowRange is the reference a Range result is held to: the borrow
// visitor plus a copy of everything it lends.
func borrowRange(s *Store, id wire.StreamID, from, to uint64) []filtering.Delivery {
	var out []filtering.Delivery
	s.RangeFunc(id, from, to, func(d filtering.Delivery) bool {
		d.Msg.Payload = append([]byte(nil), d.Msg.Payload...)
		out = append(out, d)
		return true
	})
	return out
}

// scribble overwrites everything a result owns.
func scribble(ds []filtering.Delivery) {
	for i := range ds {
		for j := range ds[i].Msg.Payload {
			ds[i].Msg.Payload[j] ^= 0xA5
		}
		ds[i].StoreSeq, ds[i].Receiver = 0, "scribbled"
	}
}

// TestRangeMatchesBorrowVisitorProperty is the differential for the
// one-pass read: over mem and filesystem backends, every codec, and
// synchronous, asynchronous and held-back (pending) spills, Range over
// random windows — cutting through archived blocks with dead prefixes,
// pending spills, the stage and a holey hot ring, between
// random Append/EvictTo/Forget — returns exactly what the borrow visitor
// lends, decodes exactly the same archived entries, and owns its memory
// in both directions: scribbling over a result changes no later read,
// and later store activity changes no earlier result.
func TestRangeMatchesBorrowVisitorProperty(t *testing.T) {
	cells := []struct {
		name       string
		fs         bool
		sync, gate bool
	}{
		{name: "mem-sync", sync: true},
		{name: "mem-async"},
		{name: "mem-pending", gate: true},
		{name: "fs-sync", fs: true, sync: true},
		{name: "fs-pending", fs: true, gate: true},
	}
	for ci, codecName := range []string{"raw", "gorilla", "rle", "lz", "auto"} {
		for _, cell := range cells {
			t.Run(fmt.Sprintf("%s/%s", codecName, cell.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7000*ci + len(cell.name))))
				var backend archive.Backend = archive.NewMem()
				if cell.fs {
					b, err := archive.OpenFS(t.TempDir())
					if err != nil {
						t.Fatalf("OpenFS: %v", err)
					}
					defer b.Close()
					backend = b
				}
				gate := newGatedBackend(backend)
				s := New(Options{
					MaxMessages: 8,
					Codec:       codecName,
					ColdBudget:  96, // ignored: with an archive every sealed block spills
					BlockSize:   8,
					Archive:     gate,
					archiveSync: cell.sync,
				})
				defer s.Close()
				defer gate.set(false) // Close drains through the backend

				streams := make([]wire.StreamID, 3)
				wireSeq := make([]int, len(streams))
				for i := range streams {
					streams[i] = wire.MustStreamID(wire.SensorID(rng.Intn(1000)+1), wire.StreamIndex(i))
					wireSeq[i] = rng.Intn(wire.SeqCount)
				}
				payload := func(si, step int) []byte {
					switch si {
					case 0:
						var b [8]byte
						binary.BigEndian.PutUint64(b[:], math.Float64bits(20+0.125*float64(step%64)))
						return b[:]
					case 1:
						return []byte(fmt.Sprintf("sensor reading %d ok", step%16))
					default:
						b := make([]byte, rng.Intn(24)) // empty payloads included
						rng.Read(b)
						return b
					}
				}

				// check reads one window every way and compares. The tiers
				// move under an async archiver; when they moved between the
				// first and the last read the amplification comparison is
				// void and the round is retried — contents must agree
				// regardless.
				check := func(tag string, id wire.StreamID, lo, hi uint64) {
					t.Helper()
					for try := 0; ; try++ {
						st0 := s.Stats()
						got := s.Range(id, lo, hi)
						st1 := s.Stats()
						want := borrowRange(s, id, lo, hi)
						st2 := s.Stats()
						if err := sameDeliveriesFull(got, want); err != nil {
							t.Fatalf("%s: Range(%d,%d) vs RangeFunc: %v", tag, lo, hi, err)
						}
						if st0.ArchivedBlocks != st2.ArchivedBlocks || st0.ArchivePendingBlocks != st2.ArchivePendingBlocks {
							if try > 1000 {
								t.Fatalf("%s: archive tier never settled", tag)
							}
							runtime.Gosched()
							continue
						}
						if a, b := st1.ArchiveReadMessages-st0.ArchiveReadMessages, st2.ArchiveReadMessages-st1.ArchiveReadMessages; a != b {
							t.Fatalf("%s: Range(%d,%d) decoded %d archived entries, RangeFunc %d", tag, lo, hi, a, b)
						}

						// The store does not see what happens to a result.
						scribble(got)
						if err := sameDeliveriesFull(s.Range(id, lo, hi), want); err != nil {
							t.Fatalf("%s: re-read after scribbling over the result: %v", tag, err)
						}
						// A result does not see what happens in the store:
						// recycle the pooled decode scratch on other streams
						// and overwrite hot slots, then look again.
						kept := s.Range(id, lo, hi)
						for _, other := range streams {
							borrowRange(s, other, 0, ^uint64(0))
						}
						for k := 0; k < 12; k++ {
							si := slices.Index(streams, id)
							s.Append(del(id, wire.Seq(wireSeq[si]), epoch, bytes.Repeat([]byte{0xEE}, 16)))
							wireSeq[si]++
						}
						if err := sameDeliveriesFull(kept, want); err != nil {
							t.Fatalf("%s: result changed under later store activity: %v", tag, err)
						}
						return
					}
				}

				now := epoch
				for step := 0; step < 300; step++ {
					if cell.gate && step%50 == 0 {
						shut := step%100 == 0
						gate.set(shut) // alternate: spills held back, spills flowing
						if !shut {
							// File what the gate held, so later reads
							// reach the archive tier on every schedule.
							awaitArchived(t, s)
						}
					}
					si := rng.Intn(len(streams))
					id := streams[si]
					now = now.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
					seq := wireSeq[si]
					switch k := rng.Intn(10); {
					case k < 7:
						wireSeq[si]++
					case k < 9: // forward jump: a hole in the hot ring
						wireSeq[si] += rng.Intn(6) + 2
					default: // late fill behind the head
						seq -= rng.Intn(6) + 1
					}
					d := filtering.Delivery{At: now, Receiver: []string{"rx-alpha", "rx-beta"}[rng.Intn(2)], RSSI: -30 - rng.Float64()*40}
					d.Msg.Stream, d.Msg.Seq, d.Msg.Payload = id, wire.Seq(seq), payload(si, step)
					s.Append(d)

					if step%40 == 39 { // a floor inside some sealed block
						tid := streams[rng.Intn(len(streams))]
						if first, ok := firstSeq(s, tid); ok {
							s.EvictTo(tid, first+uint64(rng.Intn(20)))
						}
					}
					if step%170 == 169 {
						s.Forget(streams[rng.Intn(len(streams))])
					}
					if step%12 != 0 {
						continue
					}
					qid := streams[rng.Intn(len(streams))]
					first, ok := firstSeq(s, qid)
					last, _ := s.LastSeq(qid)
					if !ok {
						first = last
					}
					tag := fmt.Sprintf("step %d stream %v", step, qid)
					check(tag, qid, 0, ^uint64(0))
					lo := first + uint64(rng.Int63n(int64(last-first)+2))
					check(tag, qid, lo, lo+uint64(rng.Intn(40)))
					check(tag, qid, lo, lo) // a single address, present or a hole
				}
				if cell.gate {
					gate.set(false)
				}
				st := s.Stats()
				if st.ArchivedMessages+st.ArchivePendingBlocks == 0 || st.ArchiveReadMessages == 0 {
					t.Fatalf("the archive tier was never read: %+v", st)
				}
			})
		}
	}
}

// awaitArchived polls, for at most ten seconds, until the async archivers
// have filed every pending block.
func awaitArchived(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.ArchivePendingBlocks == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("archivers left %d blocks pending: %+v", st.ArchivePendingBlocks, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRangeAllocsDoNotGrowWithWindow pins the shape of a history read on
// the mem backend: the objects Range allocates are the result slice and
// its payload slab, however many messages and blocks the window spans.
func TestRangeAllocsDoNotGrowWithWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	id := wire.MustStreamID(9, 0)
	s := New(Options{
		MaxMessages: 32, Codec: "auto", ColdBudget: 1, BlockSize: 64,
		Archive: archive.NewMem(), archiveSync: true,
	})
	defer s.Close()
	const total = 8192
	for i := 0; i < total; i++ {
		s.Append(compressedDel(id, i))
	}
	first, _ := firstSeq(s, id)
	if st := s.Stats(); st.ArchivedMessages < total-256 {
		t.Fatalf("history is not archive-heavy: %+v", st)
	}
	allocs := func(n int) float64 {
		from := first + 100 // off the block boundaries on both ends
		if got := len(s.Range(id, from, from+uint64(n)-1)); got != n {
			t.Fatalf("Range returned %d of %d", got, n)
		}
		return testing.AllocsPerRun(50, func() { s.Range(id, from, from+uint64(n)-1) })
	}
	small, large := allocs(512), allocs(4096)
	if small != large || small > 3 {
		t.Fatalf("Range allocates %.1f objects for 512 messages, %.1f for 4096; want the same small constant", small, large)
	}
}
