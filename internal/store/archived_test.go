package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// checkArchiveIdentity fails t unless s's conservation identity, archive
// terms included, balances (Stats.Check).
func checkArchiveIdentity(t *testing.T, s *Store, tag string) {
	t.Helper()
	if err := s.Stats().Check(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// TestArchiveSpillStitch drives the simplest end-to-end spill: every
// sealed block goes to the backend, and every query stitches
// archive → stage → hot transparently.
func TestArchiveSpillStitch(t *testing.T) {
	backend := archive.NewMem()
	s := New(Options{
		MaxMessages: 16, BlockSize: 8, ColdBudget: 1,
		Archive: backend,
	})
	id := wire.MustStreamID(9, 0)
	const n = 400
	for seq := 0; seq < n; seq++ {
		s.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*time.Second), []byte(fmt.Sprintf("reading %03d", seq))))
	}

	st := s.Stats()
	if st.ArchivedBlocks == 0 || st.ArchivedMessages == 0 {
		t.Fatalf("nothing spilled: %+v", st)
	}
	if st.EvictedCold != 0 {
		t.Fatalf("cold evictions leaked past the archive: %+v", st)
	}
	checkArchiveIdentity(t, s, "after appends")

	got := s.Range(id, 0, ^uint64(0))
	if len(got) != n {
		t.Fatalf("Range(all) = %d entries, want %d", len(got), n)
	}
	for i, d := range got {
		if d.StoreSeq != extBase+uint64(i) {
			t.Fatalf("entry %d: seq %d, want %d", i, d.StoreSeq, extBase+uint64(i))
		}
		if string(d.Msg.Payload) != fmt.Sprintf("reading %03d", i) {
			t.Fatalf("entry %d: payload %q", i, d.Msg.Payload)
		}
	}
	if first, ok := firstSeq(s, id); !ok || first != extBase {
		t.Fatalf("FirstSeq = %d %v, want %d", first, ok, extBase)
	}
	if c, b := s.WindowStats(id, 0, ^uint64(0)); c != n || b == 0 {
		t.Fatalf("WindowStats = %d, %d", c, b)
	}

	ss, ok := s.StreamStats(id)
	if !ok || ss.ArchivedBlocks == 0 || ss.ArchivedMessages == 0 || ss.ArchivedBytes == 0 {
		t.Fatalf("StreamStats misses the archive tier: %+v", ss)
	}
	if ss.Count+ss.ArchivedMessages != n {
		t.Fatalf("StreamStats: %d in memory + %d archived != %d", ss.Count, ss.ArchivedMessages, n)
	}

	// EvictTo reaches into the archive tier; Forget drops everything,
	// including the backend's state.
	cut := extBase + 100
	dropped := s.EvictTo(id, cut)
	if dropped != 100 {
		t.Fatalf("EvictTo dropped %d, want 100", dropped)
	}
	if first, ok := firstSeq(s, id); !ok || first != cut {
		t.Fatalf("FirstSeq after EvictTo = %d %v, want %d", first, ok, cut)
	}
	checkArchiveIdentity(t, s, "after EvictTo")
	if got := s.Forget(id); got != n-100 {
		t.Fatalf("Forget dropped %d, want %d", got, n-100)
	}
	if ls, _ := backend.List(id); len(ls.Refs) != 0 {
		t.Fatalf("Forget left %d blocks in the backend", len(ls.Refs))
	}
	checkArchiveIdentity(t, s, "after Forget")
}

// TestArchiveAsyncSpill has four streams appended concurrently, one
// goroutine each, so blocks seal and spill on several shards at once:
// after Close nothing is pending, and every stream keeps every entry
// once, with no gap or duplicate.
func TestArchiveAsyncSpill(t *testing.T) {
	backend := archive.NewMem()
	s := New(Options{
		MaxMessages: 16, BlockSize: 8, ColdBudget: 1,
		Archive: backend,
	})
	ids := []wire.StreamID{
		wire.MustStreamID(1, 0), wire.MustStreamID(2, 0),
		wire.MustStreamID(3, 0), wire.MustStreamID(4, 0),
	}
	const n = 600
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id wire.StreamID) {
			defer wg.Done()
			for seq := 0; seq < n; seq++ {
				s.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*time.Second), []byte(fmt.Sprintf("v %d", seq))))
			}
		}(id)
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	if st.ArchivePendingBlocks != 0 || st.ArchiveQueueDepth != 0 {
		t.Fatalf("Close left pending work: %+v", st)
	}
	if st.ArchivedMessages == 0 {
		t.Fatalf("concurrent appends spilled nothing: %+v", st)
	}
	checkArchiveIdentity(t, s, "after close")
	for _, id := range ids {
		got := s.Range(id, 0, ^uint64(0))
		if len(got) != n {
			t.Fatalf("stream %v: Range(all) = %d entries, want %d", id, len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if got[i].StoreSeq != got[i-1].StoreSeq+1 {
				t.Fatalf("stream %v: gap or duplicate at %d: %d after %d", id, i, got[i].StoreSeq, got[i-1].StoreSeq)
			}
		}
	}
}

// TestArchiveFilesEveryBlockAsItSeals: with an archive attached, the
// append that seals a block files it before returning, so after every
// Append the archive holds every sealed block and nothing waits in
// memory, over the in-memory and filesystem backends.
func TestArchiveFilesEveryBlockAsItSeals(t *testing.T) {
	for _, fs := range []bool{false, true} {
		t.Run(map[bool]string{false: "mem", true: "fs"}[fs], func(t *testing.T) {
			var backend archive.Backend = archive.NewMem()
			if fs {
				b, err := archive.OpenFS(t.TempDir())
				if err != nil {
					t.Fatalf("OpenFS: %v", err)
				}
				defer b.Close()
				backend = b
			}
			s := New(Options{MaxMessages: 8, BlockSize: 8, Archive: backend})
			ids := []wire.StreamID{wire.MustStreamID(3, 0), wire.MustStreamID(3, 1), wire.MustStreamID(40, 0)}
			for seq := 0; seq < 200; seq++ {
				for i, id := range ids {
					payload := bytes.Repeat([]byte{byte(seq)}, 4+12*i) // the last stream's lie in the arena
					s.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*time.Second), payload))
					st := s.Stats()
					if st.ArchivedBlocks != st.SealedBlocks || st.ColdBlocks != 0 {
						t.Fatalf("seq %d stream %v: %d sealed, %d archived, %d held in memory",
							seq, id, st.SealedBlocks, st.ArchivedBlocks, st.ColdBlocks)
					}
					if err := st.Check(); err != nil {
						t.Fatalf("seq %d stream %v: %v", seq, id, err)
					}
				}
			}
			if st := s.Stats(); st.SealedBlocks < 3*20 {
				t.Fatalf("only %d blocks sealed: %+v", st.SealedBlocks, st)
			}
		})
	}
}

// TestArchiveRecoveryRestart is the restart contract: a second store
// opened over the same backend serves the first one's archived history
// for streams it has never seen live, resumes the sequence address space
// where the archive ends, and drops stale appends behind it.
func TestArchiveRecoveryRestart(t *testing.T) {
	backend := archive.NewMem()
	id := wire.MustStreamID(77, 2)
	const n = 300

	s1 := New(Options{
		MaxMessages: 16, BlockSize: 8, ColdBudget: 1,
		Archive: backend,
	})
	for seq := 0; seq < n; seq++ {
		s1.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*time.Second), []byte(fmt.Sprintf("r%03d", seq))))
	}
	st1, _ := s1.StreamStats(id)
	archivedEnd := extBase + uint64(n-1) - uint64(st1.Count) // newest archived seq on restart boundary

	s2 := New(Options{
		MaxMessages: 16, BlockSize: 8, ColdBudget: 1,
		Archive: backend,
	})

	// The restarted store lists and serves the stream it never saw live.
	if streams := s2.Streams(); len(streams) != 1 || streams[0] != id {
		t.Fatalf("recovered Streams = %v", streams)
	}
	st := s2.Stats()
	if st.ArchiveRecovered == 0 || st.ArchivedMessages != st.ArchiveRecovered {
		t.Fatalf("recovery accounting: %+v", st)
	}
	// Stats counts the stream Streams lists; Appended does not, for
	// nothing was appended to it in this process.
	if st.Streams != 1 {
		t.Fatalf("recovered Stats().Streams = %d, Streams() lists 1", st.Streams)
	}
	if app := s2.Appended(); len(app) != 0 {
		t.Fatalf("recovered stream listed as appended: %+v", app)
	}
	checkArchiveIdentity(t, s2, "after recovery")
	first, ok := firstSeq(s2, id)
	if !ok || first != extBase {
		t.Fatalf("recovered FirstSeq = %d %v", first, ok)
	}
	last, ok := s2.LastSeq(id)
	if !ok || last != archivedEnd {
		t.Fatalf("recovered LastSeq = %d %v, want %d", last, ok, archivedEnd)
	}
	recovered := s2.Range(id, 0, ^uint64(0))
	want := s1.Range(id, 0, archivedEnd)
	if err := sameDeliveriesFull(recovered, want); err != nil {
		t.Fatalf("recovered history differs from what was archived: %v", err)
	}
	ss, ok := s2.StreamStats(id)
	if !ok || ss.ArchivedMessages != int(st.ArchiveRecovered) || ss.LastSeq != archivedEnd {
		t.Fatalf("recovered StreamStats: %+v", ss)
	}

	// A stale append behind the archived history is dropped, not
	// re-addressed; the live stream resumes after the archive.
	behind := s2.Stats().DroppedBehind
	s2.Append(del(id, wire.Seq(archivedEnd-extBase), epoch, []byte("stale")))
	if got := s2.Stats().DroppedBehind; got != behind+1 {
		t.Fatalf("stale append was not dropped: %d vs %d", got, behind)
	}
	next := wire.Seq(archivedEnd + 1)
	ext := s2.Append(del(id, next, epoch.Add(time.Hour), []byte("resumed")))
	if ext != archivedEnd+1 {
		t.Fatalf("resumed append landed at %d, want %d", ext, archivedEnd+1)
	}
	all := s2.Range(id, 0, ^uint64(0))
	if len(all) != len(want)+1 || all[len(all)-1].StoreSeq != archivedEnd+1 {
		t.Fatalf("resumed stream stitches %d entries, want %d", len(all), len(want)+1)
	}
	checkArchiveIdentity(t, s2, "after resume")
}

// TestOpeningFillAboveRecoveredHistory: on a stream recovered from the
// archive, a late fill that opens the live window is kept only above the
// archived history; one at or below the archive's end is dropped, so the
// tiers still stitch in ascending order with no address twice.
func TestOpeningFillAboveRecoveredHistory(t *testing.T) {
	backend := archive.NewMem()
	id := wire.MustStreamID(78, 0)
	opts := Options{MaxMessages: 16, BlockSize: 8, ColdBudget: 1, Archive: backend}
	s1 := New(opts)
	for seq := 0; seq < 100; seq++ {
		s1.Append(del(id, wire.Seq(seq), epoch, nil))
	}
	s2 := New(opts)
	end, ok := s2.LastSeq(id)
	if !ok {
		t.Fatal("nothing recovered")
	}
	base := wire.Seq(end - extBase)
	s2.Append(del(id, base+2, epoch, nil)) // opens the live window
	s2.Append(del(id, base+1, epoch, nil)) // fills the gap above the archive
	s2.Append(del(id, base, epoch, nil))   // the archive's last address
	if got := s2.Stats().DroppedBehind; got != 1 {
		t.Fatalf("DroppedBehind = %d, want 1", got)
	}
	all := s2.Range(id, 0, ^uint64(0))
	for i := 1; i < len(all); i++ {
		if all[i].StoreSeq != all[i-1].StoreSeq+1 {
			t.Fatalf("history out of order at %d: %d after %d", i, all[i].StoreSeq, all[i-1].StoreSeq)
		}
	}
	if last := all[len(all)-1].StoreSeq; last != end+2 {
		t.Fatalf("history ends at %d, want %d", last, end+2)
	}
	checkArchiveIdentity(t, s2, "after the fills")
}

// TestArchiveFSRestart runs the restart contract over the filesystem
// backend: same directory, two opens, identical served ranges.
func TestArchiveFSRestart(t *testing.T) {
	dir := t.TempDir()
	id := wire.MustStreamID(5, 1)
	const n = 256

	b1, err := archive.OpenFS(dir)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	s1 := New(Options{
		MaxMessages: 16, BlockSize: 8, ColdBudget: 1,
		Archive: b1,
	})
	for seq := 0; seq < n; seq++ {
		s1.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*time.Second), []byte(fmt.Sprintf("fs%03d", seq))))
	}
	archived := s1.Stats().ArchivedMessages
	if archived == 0 {
		t.Fatal("nothing spilled to the fs backend")
	}
	wantAll := s1.Range(id, 0, ^uint64(0))[:archived]
	if err := b1.Close(); err != nil {
		t.Fatalf("backend close: %v", err)
	}

	b2, err := archive.OpenFS(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b2.Close()
	s2 := New(Options{
		MaxMessages: 16, BlockSize: 8, ColdBudget: 1,
		Archive: b2,
	})
	if got := s2.Stats().ArchiveRecovered; got != archived {
		t.Fatalf("recovered %d entries, first store archived %d", got, archived)
	}
	if err := sameDeliveriesFull(s2.Range(id, 0, ^uint64(0)), wantAll); err != nil {
		t.Fatalf("fs-recovered history differs: %v", err)
	}
}

// TestArchiveAppendZeroAllocSteadyState holds the hot-path contract with
// the archive attached: sealing and filing each block recycle their
// buffers, so steady-state Append stays at 0 allocs/op.
func TestArchiveAppendZeroAllocSteadyState(t *testing.T) {
	s := New(Options{
		MaxMessages: 16, BlockSize: 64, ColdBudget: 4096,
		Archive: archive.NewMem(),
	})
	id := wire.MustStreamID(1, 0)
	payload := make([]byte, 24) // too long for a slot: the arena is in play
	put := func(seq int) {
		binary.BigEndian.PutUint64(payload, math.Float64bits(20+0.25*float64(seq%32)))
	}
	seq := 0
	// Warm up well past the first spills so every pool reaches its
	// steady-state capacity.
	for ; seq < 8192; seq++ {
		put(seq)
		s.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*50*time.Millisecond), payload))
	}
	if st := s.Stats(); st.ArchivedMessages == 0 {
		t.Fatalf("warm-up never spilled: %+v", st)
	}
	w := watchArena(s, id)
	allocs := testing.AllocsPerRun(2000, func() {
		put(seq)
		s.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*50*time.Millisecond), payload))
		seq++
		w.observe()
	})
	if allocs != 0 {
		t.Fatalf("archived steady-state Append allocates %v/op, want 0", allocs)
	}
	if w.compactions < 5 {
		t.Fatalf("arena compacted %d times in 2000 appends: the measured loop missed it", w.compactions)
	}
}

// TestArchivedStoreMatchesFrozenReference is the archive-tier
// differential: all sealed history spills to the backend (the one-byte
// cold budget is inert beside an archive), and every query must still match
// the frozen-tier reference byte for byte — across wire-seq wraps,
// gaps, late fills, EvictTo cuts (straddling archived blocks) and
// Forget, at shard counts 1, 4 and 16, over the in-memory and
// filesystem backends.
func TestArchivedStoreMatchesFrozenReference(t *testing.T) {
	partitions := []int{1, 4, wire.Shards}
	cells := []struct {
		name string
		fs   bool
	}{
		{name: "mem-sync"},
		{name: "fs-sync", fs: true},
	}
	codecs := []string{"raw", "gorilla", "rle", "lz", "auto"}
	for ci, codecName := range codecs {
		for _, cell := range cells {
			t.Run(fmt.Sprintf("%s/%s", codecName, cell.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*ci + len(cell.name))))
				opts := Options{
					MaxMessages: 8,
					Codec:       codecName,
					ColdBudget:  1, // inert: with an archive every sealed block spills
					BlockSize:   8,
				}
				stores := make([]*Store, len(partitions))
				for i, n := range partitions {
					o := opts
					o.shards = n
					if cell.fs {
						b, err := archive.OpenFS(t.TempDir())
						if err != nil {
							t.Fatalf("OpenFS: %v", err)
						}
						defer b.Close()
						o.Archive = b
					} else {
						o.Archive = archive.NewMem()
					}
					stores[i] = New(o)
				}
				ref := newRefStore(opts)
				ref.freeze = true

				streams := make([]wire.StreamID, 4)
				wireSeq := make([]int, len(streams))
				for i := range streams {
					streams[i] = wire.MustStreamID(wire.SensorID(rng.Intn(1000)+1), wire.StreamIndex(i))
					wireSeq[i] = rng.Intn(wire.SeqCount) // some start near the wrap
				}
				receivers := []string{"rx-alpha", "rx-beta"}
				now := epoch
				payload := func(si, step int) []byte {
					switch si % 3 {
					case 0:
						var b [8]byte
						binary.BigEndian.PutUint64(b[:], math.Float64bits(20.0+0.125*float64(step%64)))
						return b[:]
					case 1:
						return []byte(fmt.Sprintf("sensor reading %d ok", step%32))
					default:
						b := make([]byte, rng.Intn(40))
						for i := range b {
							b[i] = byte(rng.Intn(256))
						}
						return b
					}
				}

				for step := 0; step < 500; step++ {
					si := rng.Intn(len(streams))
					id := streams[si]
					now = now.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
					seq := wireSeq[si]
					switch k := rng.Intn(10); {
					case k < 7:
						wireSeq[si]++
					case k < 9: // forward jump, crossing the wrap over a trial
						wireSeq[si] += rng.Intn(100) + 2
					default: // late fill / duplicate re-append behind the head
						seq -= rng.Intn(20) + 1
					}
					d := filtering.Delivery{
						At:       now,
						Receiver: receivers[rng.Intn(len(receivers))],
						RSSI:     -30 - rng.Float64()*40,
					}
					d.Msg.Stream = id
					d.Msg.Seq = wire.Seq(seq)
					d.Msg.Payload = payload(si, step)

					wantExt := ref.append(d)
					for i, s := range stores {
						if ext := s.Append(d); ext != wantExt {
							t.Fatalf("step %d shards=%d: ext %d, ref %d", step, partitions[i], ext, wantExt)
						}
					}

					// EvictTo cuts into archived blocks; Forget drops the
					// whole tier including the backend state.
					if step%60 == 59 {
						tid := streams[rng.Intn(len(streams))]
						var upto uint64
						if first, ok := ref.firstSeq(tid); ok {
							upto = first + uint64(rng.Intn(30))
						}
						want := ref.evictTo(tid, upto)
						for i, s := range stores {
							if got := s.EvictTo(tid, upto); got != want {
								t.Fatalf("step %d shards=%d: EvictTo(%d) = %d, ref %d", step, partitions[i], upto, got, want)
							}
						}
					}
					if step%150 == 149 {
						tid := streams[rng.Intn(len(streams))]
						want := ref.forget(tid)
						for i, s := range stores {
							if got := s.Forget(tid); got != want {
								t.Fatalf("step %d shards=%d: Forget = %d, ref %d", step, partitions[i], got, want)
							}
						}
					}

					if step%25 != 0 {
						continue
					}
					qid := streams[rng.Intn(len(streams))]
					lo := extBase
					if first, ok := ref.firstSeq(qid); ok {
						lo = first + uint64(rng.Intn(40))
					}
					hi := lo + uint64(rng.Intn(60))
					rng.Intn(1500) // unused draw: keeps the seeded sequence of later queries
					wantAll := ref.rng(qid, 0, ^uint64(0))
					wantSub := ref.rng(qid, lo, hi)
					wantFirst, wantFirstOK := ref.firstSeq(qid)
					wantOSeq, wantOSize, wantOOK := ref.oldestSince(qid, lo)
					wantWC, wantWB := ref.windowStats(qid, lo, hi)
					for i, s := range stores {
						tag := fmt.Sprintf("step %d shards=%d stream %v", step, partitions[i], qid)
						if err := sameDeliveriesFull(s.Range(qid, 0, ^uint64(0)), wantAll); err != nil {
							t.Fatalf("%s: Range(all): %v", tag, err)
						}
						if err := sameDeliveriesFull(s.Range(qid, lo, hi), wantSub); err != nil {
							t.Fatalf("%s: Range(%d,%d): %v", tag, lo, hi, err)
						}
						gotFirst, gotFirstOK := firstSeq(s, qid)
						if gotFirst != wantFirst || gotFirstOK != wantFirstOK {
							t.Fatalf("%s: FirstSeq = %d,%v, ref %d,%v", tag, gotFirst, gotFirstOK, wantFirst, wantFirstOK)
						}
						gotOSeq, gotOSize, gotOOK := s.OldestSince(qid, lo)
						if gotOSeq != wantOSeq || gotOSize != wantOSize || gotOOK != wantOOK {
							t.Fatalf("%s: OldestSince(%d) = %d,%d,%v, ref %d,%d,%v",
								tag, lo, gotOSeq, gotOSize, gotOOK, wantOSeq, wantOSize, wantOOK)
						}
						gotWC, gotWB := s.WindowStats(qid, lo, hi)
						if gotWC != wantWC || gotWB != wantWB {
							t.Fatalf("%s: WindowStats(%d,%d) = %d,%d, ref %d,%d", tag, lo, hi, gotWC, gotWB, wantWC, wantWB)
						}
					}
				}

				// Nothing is ever lost: the archive tier catches every
				// sealed block, so retained + archived equals the
				// reference's frozen ∪ live totals and the conservation
				// identity closes.
				var wantMsgs int64
				for _, r := range ref.streams {
					wantMsgs += int64(len(r.all()))
				}
				for i, s := range stores {
					tag := fmt.Sprintf("shards=%d", partitions[i])
					st := s.Stats()
					if st.EvictedCold != 0 || st.EvictedCount != 0 || st.EvictedBytes != 0 || st.EvictedAge != 0 ||
						st.EvictedArchive != 0 || st.ArchiveFailed != 0 {
						t.Fatalf("%s: archived store lost entries: %+v", tag, st)
					}
					if st.ArchivedMessages == 0 {
						t.Fatalf("%s: the archive tier was never exercised", tag)
					}
					if got := st.RetainedMessages + st.ArchivedMessages; got != wantMsgs {
						t.Fatalf("%s: retained %d + archived %d = %d, ref %d",
							tag, st.RetainedMessages, st.ArchivedMessages, got, wantMsgs)
					}
					checkArchiveIdentity(t, s, tag)
				}
			})
		}
	}
}

// TestForgetDuringSpillLeavesNoBackendState: once Forget returns, a
// stream whose appends spilled blocks, and whose EvictTo filed a floor,
// leaves nothing in the backend — no block, no floor, no manifest entry.
// A floor filed for a forgotten stream outlives the addressing it was cut
// against: after a restart a resumed stream's new blocks can fall below
// it, and the next recovery drops them. A stream that resumes keeps
// exactly its new history, floorless.
func TestForgetDuringSpillLeavesNoBackendState(t *testing.T) {
	for _, resume := range []bool{false, true} {
		t.Run(fmt.Sprintf("resume=%v", resume), func(t *testing.T) {
			mem := archive.NewMem()
			s := New(Options{MaxMessages: 16, BlockSize: 8, ColdBudget: 1, Archive: mem})
			id := wire.MustStreamID(4, 0)
			appendRun := func(from, to int) {
				for seq := from; seq < to; seq++ {
					s.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*time.Second), []byte(fmt.Sprintf("v%03d", seq))))
				}
			}
			appendRun(0, 40)
			if got := s.EvictTo(id, extBase+4); got != 4 {
				t.Fatalf("EvictTo dropped %d, want 4", got)
			}
			if held, _ := mem.List(id); held.Floor != extBase+4 || len(held.Refs) == 0 {
				t.Fatalf("before Forget the backend holds floor %d and %d blocks", held.Floor, len(held.Refs))
			}
			if got := s.Forget(id); got != 36 {
				t.Fatalf("Forget dropped %d, want 36", got)
			}
			if resume {
				appendRun(40, 80)
			}

			held, _ := mem.List(id)
			if !resume {
				if held.Floor != 0 || len(held.Refs) != 0 {
					t.Fatalf("forgotten stream left floor %d and %d blocks in the backend", held.Floor, len(held.Refs))
				}
				mem.Streams(func(ss archive.StreamState) error {
					t.Fatalf("forgotten stream %v is still in the backend (floor %d, %d blocks)", ss.Stream, ss.Floor, len(ss.Refs))
					return nil
				})
			} else {
				var archived int32
				for _, ref := range held.Refs {
					archived += ref.Count
					if ref.FirstSeq < extBase+40 {
						t.Fatalf("backend holds a block from before Forget: %+v", ref)
					}
				}
				if held.Floor != 0 || int64(archived) != s.Stats().ArchivedMessages || archived == 0 {
					t.Fatalf("resumed stream: backend floor %d, %d archived, store says %d", held.Floor, archived, s.Stats().ArchivedMessages)
				}
				got := s.Range(id, 0, ^uint64(0))
				if len(got) != 40 || got[0].StoreSeq != extBase+40 {
					t.Fatalf("resumed stream serves %d entries from %d, want 40 from %d", len(got), got[0].StoreSeq, extBase+40)
				}
			}
			checkArchiveIdentity(t, s, "after Forget")
		})
	}
}
