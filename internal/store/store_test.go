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
	"unsafe"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func del(stream wire.StreamID, seq wire.Seq, at time.Time, payload []byte) filtering.Delivery {
	return filtering.Delivery{
		Msg: wire.Message{Stream: stream, Seq: seq, Payload: payload},
		At:  at, Receiver: "rx", RSSI: 1,
	}
}

func TestAppendAssignsMonotonicExtendedSeqs(t *testing.T) {
	s := New(Options{})
	id := wire.MustStreamID(1, 0)
	for i := 0; i < 5; i++ {
		ext := s.Append(del(id, wire.Seq(i), epoch, nil))
		if want := extBase + uint64(i); ext != want {
			t.Fatalf("append %d: ext = %d, want %d", i, ext, want)
		}
	}
}

// Appended counts every append — including one that lands behind the
// retained window and is not stored — and keeps counting across Forget,
// which drops the history but not the record of it.
func TestAppendedCountsEveryAppend(t *testing.T) {
	s := New(Options{MaxMessages: 2})
	a, b := wire.MustStreamID(9, 0), wire.MustStreamID(2, 1)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	s.Append(del(a, 1, at(10), nil))
	s.Append(del(a, 5, at(20), nil))
	s.Append(del(a, 6, at(30), nil))
	s.Append(del(a, 2, at(40), nil)) // behind the two-entry window
	s.Forget(a)
	s.Append(del(a, 7, at(50), nil))
	s.Append(del(b, 1, time.Time{}, nil))
	if st := s.Stats(); st.DroppedBehind != 1 {
		t.Fatalf("the late append did not land behind the window: %+v", st)
	}

	got := s.Appended()
	want := []StreamAppends{
		{Stream: b, Count: 1, First: time.Time{}, Latest: time.Time{}},
		{Stream: a, Count: 5, First: at(10), Latest: at(50)},
	}
	if len(got) != len(want) {
		t.Fatalf("Appended = %+v, want %+v", got, want)
	}
	for i, w := range want {
		g := got[i]
		if g.Stream != w.Stream || g.Count != w.Count || !g.First.Equal(w.First) || !g.Latest.Equal(w.Latest) {
			t.Errorf("Appended[%d] = %+v, want %+v", i, g, w)
		}
	}
}

func TestUnwrapSurvivesWireWrap(t *testing.T) {
	s := New(Options{MaxMessages: 8})
	id := wire.MustStreamID(1, 0)
	// Walk the wire sequence across the 16-bit wrap: ext must keep
	// climbing while the wire seq resets to 0.
	var last uint64
	for i := 0; i < wire.SeqCount+100; i += 13 {
		ext := s.Append(del(id, wire.Seq(i), epoch, nil))
		if ext <= last {
			t.Fatalf("ext not monotonic across wrap: %d after %d (wire %d)", ext, last, wire.Seq(i))
		}
		last = ext
	}
	st, _ := s.StreamStats(id)
	if st.LastSeq != last {
		t.Fatalf("LastSeq = %d, want %d", st.LastSeq, last)
	}
}

func TestCountBoundEvictsOldest(t *testing.T) {
	s := New(Options{MaxMessages: 4})
	id := wire.MustStreamID(1, 0)
	for i := 0; i < 10; i++ {
		s.Append(del(id, wire.Seq(i), epoch, []byte{byte(i)}))
	}
	got := s.Range(id, 0, ^uint64(0))
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, d := range got {
		if d.Msg.Seq != wire.Seq(6+i) {
			t.Fatalf("entry %d has wire seq %d, want %d", i, d.Msg.Seq, 6+i)
		}
	}
	if st := s.Stats(); st.EvictedCount != 6 || st.RetainedMessages != 4 || st.RetainedBytes != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestByteBoundKeepsNewest(t *testing.T) {
	s := New(Options{MaxBytes: 10})
	id := wire.MustStreamID(1, 0)
	s.Append(del(id, 0, epoch, make([]byte, 6)))
	s.Append(del(id, 1, epoch, make([]byte, 6))) // 12 > 10: evicts seq 0
	got := s.Range(id, 0, ^uint64(0))
	if len(got) != 1 || got[0].Msg.Seq != 1 {
		t.Fatalf("retained %v", got)
	}
	// A single oversized payload is still retained.
	s.Append(del(id, 2, epoch, make([]byte, 64)))
	if got := s.Range(id, 0, ^uint64(0)); len(got) != 1 || got[0].Msg.Seq != 2 {
		t.Fatalf("oversized newest not retained: %v", got)
	}
	if st := s.Stats(); st.EvictedBytes != 2 || st.RetainedBytes != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAgeBoundEvictsOnAppend(t *testing.T) {
	s := New(Options{MaxAge: 10 * time.Second})
	id := wire.MustStreamID(1, 0)
	s.Append(del(id, 0, epoch, nil))
	s.Append(del(id, 1, epoch.Add(5*time.Second), nil))
	s.Append(del(id, 2, epoch.Add(30*time.Second), nil)) // both older entries expire
	got := s.Range(id, 0, ^uint64(0))
	if len(got) != 1 || got[0].Msg.Seq != 2 {
		t.Fatalf("retained %v, want only seq 2", got)
	}
	if st := s.Stats(); st.EvictedAge != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGapFillAndBehindWindowDrop(t *testing.T) {
	s := New(Options{MaxMessages: 8})
	id := wire.MustStreamID(1, 0)
	s.Append(del(id, 0, epoch, nil))
	s.Append(del(id, 5, epoch, nil)) // gap 1..4
	ext := s.Append(del(id, 3, epoch, nil))
	if want := extBase + 3; ext != want {
		t.Fatalf("late fill ext = %d, want %d", ext, want)
	}
	got := s.Range(id, 0, ^uint64(0))
	if len(got) != 3 || got[0].Msg.Seq != 0 || got[1].Msg.Seq != 3 || got[2].Msg.Seq != 5 {
		t.Fatalf("range = %v", got)
	}
	// Push the window forward so seq 1's address falls behind it; the
	// late copy is assigned its address but not stored.
	for i := 6; i < 20; i++ {
		s.Append(del(id, wire.Seq(i), epoch, nil))
	}
	before := s.Stats().RetainedMessages
	if ext := s.Append(del(id, 1, epoch, nil)); ext != extBase+1 {
		t.Fatalf("behind ext = %d, want %d", ext, extBase+1)
	}
	st := s.Stats()
	if st.DroppedBehind != 1 || st.RetainedMessages != before {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRangeClampsAndCopies(t *testing.T) {
	s := New(Options{})
	id := wire.MustStreamID(1, 0)
	payload := []byte("abc")
	s.Append(del(id, 0, epoch, payload))
	got := s.Range(id, 0, ^uint64(0))
	if len(got) != 1 || !bytes.Equal(got[0].Msg.Payload, []byte("abc")) {
		t.Fatalf("range = %v", got)
	}
	// Mutating store memory afterwards must not affect the copy.
	s.Append(del(id, 0, epoch, []byte("zzz"))) // idempotent overwrite of the same address
	if !bytes.Equal(got[0].Msg.Payload, []byte("abc")) {
		t.Fatal("Range returned aliased payload")
	}
	if r := s.Range(id, extBase+1, extBase+100); len(r) != 0 {
		t.Fatalf("out-of-window range = %v", r)
	}
}

func TestLatestSinceSnapshot(t *testing.T) {
	s := New(Options{})
	a, b := wire.MustStreamID(1, 0), wire.MustStreamID(2, 0)
	for i := 0; i < 4; i++ {
		s.Append(del(a, wire.Seq(i), epoch.Add(time.Duration(i)*time.Second), []byte{byte(i)}))
	}
	s.Append(del(b, 0, epoch, []byte{99}))

	latest, ok := s.Latest(a)
	if !ok || latest.Msg.Seq != 3 {
		t.Fatalf("latest = %v %v", latest, ok)
	}
	since := s.Since(a, epoch.Add(2*time.Second))
	if len(since) != 2 || since[0].Msg.Seq != 2 {
		t.Fatalf("since = %v", since)
	}
	snap := s.Snapshot(nil)
	if len(snap) != 2 || snap[0].Msg.Stream != a || snap[0].Msg.Seq != 3 || snap[1].Msg.Stream != b {
		t.Fatalf("snapshot = %v", snap)
	}
	only := s.Snapshot(func(id wire.StreamID) bool { return id == b })
	if len(only) != 1 || only[0].Msg.Stream != b {
		t.Fatalf("filtered snapshot = %v", only)
	}
}

func TestEvictToAndForgetKeepAddresses(t *testing.T) {
	s := New(Options{})
	id := wire.MustStreamID(1, 0)
	for i := 0; i < 6; i++ {
		s.Append(del(id, wire.Seq(i), epoch, []byte{byte(i)}))
	}
	if n := s.EvictTo(id, extBase+3); n != 3 {
		t.Fatalf("EvictTo dropped %d, want 3", n)
	}
	if first, _ := s.FirstSeq(id); first != extBase+3 {
		t.Fatalf("FirstSeq = %d", first)
	}
	if n := s.Forget(id); n != 3 {
		t.Fatalf("Forget dropped %d, want 3", n)
	}
	if _, ok := s.Latest(id); ok {
		t.Fatal("forgotten stream still has a latest value")
	}
	// Addresses keep climbing after Forget: the resumed stream must not
	// reuse handed-out sequence numbers.
	if ext := s.Append(del(id, 6, epoch, nil)); ext != extBase+6 {
		t.Fatalf("resumed ext = %d, want %d", ext, extBase+6)
	}
	if st := s.Stats(); st.Forgotten != 6 || st.RetainedMessages != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRingGrowsFromSmallStart(t *testing.T) {
	s := New(Options{MaxMessages: 1024})
	id := wire.MustStreamID(1, 0)
	for i := 0; i < 600; i++ {
		s.Append(del(id, wire.Seq(i), epoch, []byte{byte(i)}))
	}
	got := s.Range(id, 0, ^uint64(0))
	if len(got) != 600 {
		t.Fatalf("retained %d, want 600", len(got))
	}
	for i, d := range got {
		if d.StoreSeq != extBase+uint64(i) || d.Msg.Seq != wire.Seq(i) {
			t.Fatalf("entry %d = seq %d ext %d", i, d.Msg.Seq, d.StoreSeq)
		}
	}

	// One far jump on a one-slot ring widens it once, straight to the
	// size the new span needs — not once per doubling on the way there.
	const runs = 20
	for i := 0; i <= runs; i++ {
		s.Append(del(wire.MustStreamID(wire.SensorID(i+2), 0), 0, epoch, nil))
	}
	sensor := 2
	allocs := testing.AllocsPerRun(runs, func() {
		s.Append(del(wire.MustStreamID(wire.SensorID(sensor), 0), 200, epoch, nil))
		sensor++
	})
	if allocs != 1 {
		t.Fatalf("a 200-sequence jump on a one-slot ring allocates %v times, want 1", allocs)
	}
	jumped := wire.MustStreamID(2, 0)
	if got := s.Range(jumped, 0, ^uint64(0)); len(got) != 2 || got[0].Msg.Seq != 0 || got[1].Msg.Seq != 200 {
		t.Fatalf("after the jump the stream holds %v", got)
	}
	if n := len(s.shardFor(jumped).rings.Get(jumped).slots); n != 256 {
		t.Fatalf("ring widened to %d slots, want 256", n)
	}
}

func TestShardingIsTransparent(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		s := New(Options{Shards: shards, MaxMessages: 16})
		for sensor := 1; sensor <= 40; sensor++ {
			id := wire.MustStreamID(wire.SensorID(sensor), 0)
			for i := 0; i < 20; i++ {
				s.Append(del(id, wire.Seq(i), epoch, []byte{byte(sensor)}))
			}
		}
		st := s.Stats()
		if st.Streams != 40 || st.RetainedMessages != 40*16 || st.Shards != shards {
			t.Fatalf("shards=%d stats = %+v", shards, st)
		}
		if got := len(s.Streams()); got != 40 {
			t.Fatalf("shards=%d streams = %d", shards, got)
		}
	}
}

// arenaWatch counts a stream's arena compactions from inside an
// allocation-measured loop: appends only lengthen the arena, so it is
// shorter than it was exactly when it was compacted in between.
type arenaWatch struct {
	sh          *shard
	r           *ring
	last        int
	compactions int
}

func watchArena(s *Store, id wire.StreamID) *arenaWatch {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return &arenaWatch{sh: sh, r: sh.rings.Get(id), last: len(sh.rings.Get(id).tail.arena)}
}

func (w *arenaWatch) observe() {
	w.sh.mu.Lock()
	n := len(w.r.tail.arena)
	w.sh.mu.Unlock()
	if n < w.last {
		w.compactions++
	}
	w.last = n
}

func TestAppendZeroAllocSteadyState(t *testing.T) {
	// The second case holds 2 MiB of live payload: a ring at its bound
	// recycles its arena whatever the payloads' size.
	for _, c := range []struct{ window, size int }{{64, 32}, {256, 8192}} {
		s := New(Options{MaxMessages: c.window})
		id := wire.MustStreamID(1, 0)
		payload := make([]byte, c.size)
		seq := 0
		// Warm up: grow the ring and its payload arena to the working-set
		// size.
		for ; seq < 4*c.window; seq++ {
			s.Append(del(id, wire.Seq(seq), epoch, payload))
		}
		w := watchArena(s, id)
		allocs := testing.AllocsPerRun(16*c.window, func() {
			s.Append(del(id, wire.Seq(seq), epoch, payload))
			seq++
			w.observe()
		})
		if allocs != 0 {
			t.Fatalf("%d × %d B: steady-state Append allocates %v/op, want 0", c.window, c.size, allocs)
		}
		if w.compactions < 5 {
			t.Fatalf("%d × %d B: arena compacted %d times in %d appends: the measured loop missed it",
				c.window, c.size, w.compactions, 16*c.window)
		}
	}
}

func TestOldestSince(t *testing.T) {
	s := New(Options{})
	id := wire.MustStreamID(1, 0)
	s.Append(del(id, 0, epoch, []byte("ab")))
	s.Append(del(id, 4, epoch, []byte("cdef"))) // 1..3 are holes
	seq, size, ok := s.OldestSince(id, extBase+1)
	if !ok || seq != extBase+4 || size != 4 {
		t.Fatalf("OldestSince = %d %d %v", seq, size, ok)
	}
	if _, _, ok := s.OldestSince(id, extBase+5); ok {
		t.Fatal("OldestSince past the window reported ok")
	}
}

// --- compressed cold tier ---

func compressedDel(id wire.StreamID, seq int) filtering.Delivery {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], math.Float64bits(20+0.25*float64(seq%32)))
	return del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*50*time.Millisecond), payload[:])
}

// TestCompressedAppendZeroAllocSteadyState holds the hot-path contract
// with the cold tier enabled: once the block buffers, the seal stage and
// the cold list reach steady-state capacities, Append — including the
// amortized seal-and-encode every BlockSize appends and the cold-budget
// evictions — recycles everything and allocates nothing.
func TestCompressedAppendZeroAllocSteadyState(t *testing.T) {
	s := New(Options{MaxMessages: 16, Codec: "auto", BlockSize: 8, ColdBudget: 4096})
	id := wire.MustStreamID(1, 0)
	payload := make([]byte, 24) // reused: the store copies into its own arena
	put := func(seq int) {
		binary.BigEndian.PutUint64(payload, math.Float64bits(20+0.25*float64(seq%32)))
	}
	seq := 0
	// Warm up well past the first cold-budget evictions.
	for ; seq < 4096; seq++ {
		put(seq)
		s.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*50*time.Millisecond), payload))
	}
	if st := s.Stats(); st.EvictedCold == 0 {
		t.Fatalf("warm-up never hit the cold budget: %+v", st)
	}
	w := watchArena(s, id)
	allocs := testing.AllocsPerRun(2000, func() {
		put(seq)
		s.Append(del(id, wire.Seq(seq), epoch.Add(time.Duration(seq)*50*time.Millisecond), payload))
		seq++
		w.observe()
	})
	if allocs != 0 {
		t.Fatalf("compressed steady-state Append allocates %v/op, want 0", allocs)
	}
	if w.compactions < 5 {
		t.Fatalf("arena compacted %d times in 2000 appends: the measured loop missed it", w.compactions)
	}
}

// TestCompressedBytesPerMessageRatio pins the headline win: on a smooth
// synthetic numeric series the cold tier retains each delivery in at
// least 5× fewer bytes than the hot ring's in-memory representation
// (slot record + payload).
func TestCompressedBytesPerMessageRatio(t *testing.T) {
	s := New(Options{MaxMessages: 16, Codec: "gorilla", BlockSize: 64, ColdBudget: 1 << 30})
	id := wire.MustStreamID(7, 1)
	for seq := 0; seq < 4096; seq++ {
		s.Append(compressedDel(id, seq))
	}
	st, ok := s.StreamStats(id)
	if !ok || st.ColdBlocks == 0 || st.ColdMessages == 0 {
		t.Fatalf("nothing sealed: %+v (ok=%v)", st, ok)
	}
	slotSize := int64(unsafe.Sizeof(slot{})) + 8 // record + payload
	hot := slotSize * int64(st.ColdMessages)
	if st.ColdBytes*5 > hot {
		t.Fatalf("cold tier holds %d msgs in %d B (%.1f B/msg); hot representation %d B — under 5×",
			st.ColdMessages, st.ColdBytes, float64(st.ColdBytes)/float64(st.ColdMessages), hot)
	}
	if st.Codec != "gorilla" {
		t.Fatalf("StreamStats codec = %q, want gorilla", st.Codec)
	}
}

// TestColdBudgetEviction bounds the tier: past ColdBudget compressed
// bytes the oldest blocks are dropped and credited to EvictedCold, the
// newest block always survives, and the stats identity keeps reconciling.
func TestColdBudgetEviction(t *testing.T) {
	const budget = 2048
	s := New(Options{MaxMessages: 8, Codec: "raw", BlockSize: 8, ColdBudget: budget})
	id := wire.MustStreamID(3, 2)
	payload := bytes.Repeat([]byte{0xA5}, 32)
	for seq := 0; seq < 2000; seq++ {
		payload[0] = byte(seq) // spoil RLE-style runs; raw stays honest anyway
		s.Append(del(id, wire.Seq(seq), epoch, payload))
	}
	st := s.Stats()
	if st.EvictedCold == 0 {
		t.Fatalf("budget never evicted: %+v", st)
	}
	if st.ColdBytes > budget {
		t.Fatalf("cold tier holds %d B, budget %d", st.ColdBytes, budget)
	}
	ss, ok := s.StreamStats(id)
	if !ok || ss.ColdBlocks == 0 {
		t.Fatalf("newest cold block did not survive: %+v (ok=%v)", ss, ok)
	}
	lost := st.Duplicates + st.DroppedBehind + st.EvictedCount + st.EvictedBytes +
		st.EvictedAge + st.EvictedCold + st.Forgotten
	if st.RetainedMessages != st.Appended-lost {
		t.Fatalf("stats identity: appended %d − lost %d = %d, retained %d",
			st.Appended, lost, st.Appended-lost, st.RetainedMessages)
	}
	if got := len(s.Range(id, 0, ^uint64(0))); int64(got) != st.RetainedMessages {
		t.Fatalf("Range sees %d entries, gauges say %d", got, st.RetainedMessages)
	}
}

// TestDuplicateAppendStats covers the idempotent re-append: the second
// copy replaces in place, is credited to Stats.Duplicates, and the
// retained gauges keep reconciling with the append/loss counters.
func TestDuplicateAppendStats(t *testing.T) {
	s := New(Options{MaxMessages: 8})
	id := wire.MustStreamID(9, 0)
	s.Append(del(id, 5, epoch, []byte("aa")))
	s.Append(del(id, 5, epoch.Add(time.Second), []byte("bbb")))
	st := s.Stats()
	if st.Appended != 2 || st.Duplicates != 1 {
		t.Fatalf("appended %d, duplicates %d; want 2, 1", st.Appended, st.Duplicates)
	}
	if st.RetainedMessages != 1 || st.RetainedBytes != 3 {
		t.Fatalf("retained %d msgs/%d B after replace, want 1/3", st.RetainedMessages, st.RetainedBytes)
	}
	d, ok := s.Latest(id)
	if !ok || !bytes.Equal(d.Msg.Payload, []byte("bbb")) {
		t.Fatalf("Latest = %q %v, want replacement payload", d.Msg.Payload, ok)
	}
}

// TestStatsInvariantUnderConcurrentAppend is the regression for the torn
// Stats() snapshot: gauges were read after the shard lock was released,
// so a concurrent Append could slide in between the counter reads and
// the gauge reads and break the identity
//
//	RetainedMessages = Appended − Duplicates − DroppedBehind
//	                 − Evicted{Count,Bytes,Age} − EvictedCold − Forgotten
//
// With per-shard snapshots taken under the shard lock the identity holds
// on every observation, however the appenders interleave.
func TestStatsInvariantUnderConcurrentAppend(t *testing.T) {
	s := New(Options{MaxMessages: 16, Shards: 4, Codec: "auto", BlockSize: 8, ColdBudget: 4096})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := wire.MustStreamID(wire.SensorID(w+1), wire.StreamIndex(w%4))
			rng := rand.New(rand.NewSource(int64(w)))
			payload := make([]byte, 16)
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				rng.Read(payload)
				q := seq
				if rng.Intn(16) == 0 {
					q -= rng.Intn(8) + 1 // occasional duplicate / behind-window drop
				}
				s.Append(del(id, wire.Seq(q), epoch.Add(time.Duration(seq)*time.Millisecond), payload))
			}
		}(w)
	}
	for i := 0; i < 300; i++ {
		st := s.Stats()
		lost := st.Duplicates + st.DroppedBehind + st.EvictedCount + st.EvictedBytes +
			st.EvictedAge + st.EvictedCold + st.Forgotten
		if st.RetainedMessages != st.Appended-lost {
			close(stop)
			wg.Wait()
			t.Fatalf("observation %d: appended %d − lost %d = %d, retained %d (torn snapshot)",
				i, st.Appended, lost, st.Appended-lost, st.RetainedMessages)
		}
	}
	close(stop)
	wg.Wait()
}

func TestIdleStreamRingIsOneSlot(t *testing.T) {
	s := New(Options{})
	id := wire.MustStreamID(1, 0)
	s.Append(del(id, 1, epoch, []byte{1}))
	sh := s.shardFor(id)
	sh.mu.Lock()
	n := len(sh.rings.Get(id).slots)
	sh.mu.Unlock()
	if n != 1 {
		t.Fatalf("idle stream ring has %d slots, want 1", n)
	}
}

func TestForgetReleasesBacking(t *testing.T) {
	s := New(Options{Codec: "raw", BlockSize: 4, MaxMessages: 8})
	id := wire.MustStreamID(1, 0)
	for i := 0; i < 40; i++ {
		s.Append(del(id, wire.Seq(i), epoch, bytes.Repeat([]byte{byte(i)}, 24)))
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	r := sh.rings.Get(id)
	populated := len(r.slots) > 0 && len(r.tail.arena) > 0 && len(r.tail.blocks) > 0
	sh.mu.Unlock()
	if !populated {
		t.Fatal("setup did not populate hot ring and cold tier")
	}
	s.Forget(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.slots != nil || r.tail != noTail {
		t.Fatalf("Forget kept backing: slots=%d arena=%d stage=%d cold=%d",
			len(r.slots), cap(r.tail.arena), len(r.tail.stage), len(r.tail.blocks))
	}
	if r.lastExt == 0 {
		t.Fatal("Forget lost the unwrap state")
	}
	sh.mu.Unlock()
	ss, ok := s.StreamStats(id)
	sh.mu.Lock()
	if !ok {
		t.Fatal("forgotten stream lost its StreamStats entry")
	}
	// The resident estimate must collapse to the bare ring header: the
	// unwrap state survives, the backing does not.
	if want := int64(unsafe.Sizeof(ring{})); ss.ResidentBytes != want {
		t.Fatalf("forgotten stream resident %d B, want header-only %d B", ss.ResidentBytes, want)
	}
}

// TestAtRoundTripsEveryInstant holds the hot slot to the whole time.Time
// range: it keeps At as Unix seconds and nanoseconds, so the zero Time,
// instants outside the UnixNano range (before 1678, after 2262), other
// locations and times carrying a monotonic reading all read back Equal —
// through every read that unpacks a slot — and Since and the age bound
// compare those same instants.
func TestAtRoundTripsEveryInstant(t *testing.T) {
	instants := []time.Time{
		{},
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1000, 6, 15, 12, 0, 0, 999999999, time.UTC),
		time.Unix(0, math.MinInt64).Add(-time.Nanosecond), // just outside UnixNano, 1677
		epoch,
		time.Date(2003, 5, 19, 9, 30, 0, 123456789, time.FixedZone("east", 5*3600)),
		time.Now(), // carries a monotonic reading
		time.Unix(0, math.MaxInt64).Add(time.Nanosecond), // just outside UnixNano, 2262
		time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(1<<55, 5),
	}
	s := New(Options{})
	id := wire.MustStreamID(1, 0)
	for i, at := range instants {
		s.Append(del(id, wire.Seq(i), at, []byte{byte(i)}))
		if got, ok := s.Latest(id); !ok || !got.At.Equal(at) {
			t.Fatalf("Latest after instant %d: At = %v, want %v", i, got.At, at)
		}
	}
	got := s.Range(id, 0, ^uint64(0))
	if len(got) != len(instants) {
		t.Fatalf("Range returned %d of %d", len(got), len(instants))
	}
	i := 0
	s.RangeFunc(id, 0, ^uint64(0), func(d filtering.Delivery) bool {
		if at := instants[i]; !d.At.Equal(at) || !got[i].At.Equal(at) {
			t.Fatalf("instant %d: RangeFunc %v, Range %v, want %v", i, d.At, got[i].At, at)
		}
		i++
		return true
	})
	// Since compares the instants it is given with the instants kept:
	// the year-3000 entry and the one after it are all that follow 2500.
	if since := s.Since(id, time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC)); len(since) != 2 || since[0].Msg.Seq != 8 {
		t.Fatalf("Since(2500) = %v", since)
	}

	// The age bound evicts by the same instants, monotonic reading or not.
	aged := New(Options{MaxAge: time.Hour})
	now := time.Now()
	aged.Append(del(id, 0, time.Time{}, nil))
	aged.Append(del(id, 1, now.Add(-2*time.Hour), nil))
	aged.Append(del(id, 2, now.Add(-30*time.Minute), nil))
	aged.Append(del(id, 3, now, nil))
	if got := aged.Range(id, 0, ^uint64(0)); len(got) != 2 || got[0].Msg.Seq != 2 || aged.Stats().EvictedAge != 2 {
		t.Fatalf("age bound kept %v, evicted %d", got, aged.Stats().EvictedAge)
	}
}

// checkArena holds one stream's hot tier to its invariants: the slots'
// payloads add up to the ring's byte count, those too long for a slot lie
// inside the arena and add up to what the ring says it holds there, empty
// slots are marked empty, and the arena's capacity stays within twice its
// live bytes plus the stream's largest payload plus a constant — whatever
// was appended, replaced, evicted or forgotten.
func checkArena(t *testing.T, s *Store, id wire.StreamID, largest int) {
	t.Helper()
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rings.Get(id)
	if r == nil {
		return
	}
	var count int32
	var live, held int64
	for i := range r.slots {
		if e := &r.slots[i]; e.ext != 0 {
			count++
			live += int64(e.size)
			if e.size > inlinePayload {
				held += int64(e.size)
			}
			if !r.presentLocked(e.ext) {
				t.Fatalf("stream %v: slot %d holds ext %d outside the window [%d, %d]", id, i, e.ext, r.minExt, r.maxExt)
			}
			if got := r.payloadLocked(e); len(got) != int(e.size) { // panics when out of range
				t.Fatalf("stream %v: slot %d payload is %d bytes, size says %d", id, i, len(got), e.size)
			}
		}
	}
	arena := r.tail.arena
	if count != r.count || live != r.bytes || held != r.tail.held || held > int64(len(arena)) {
		t.Fatalf("stream %v: slots hold %d entries/%d B, %d B of them in the arena; ring says %d/%d, %d of the arena's %d B",
			id, count, live, held, r.count, r.bytes, r.tail.held, len(arena))
	}
	if bound := 2*int(held) + largest + arenaSlack; cap(arena) > bound {
		t.Fatalf("stream %v: arena cap %d for %d live bytes (largest payload %d): bound %d", id, cap(arena), held, largest, bound)
	}
}

// TestArenaPacksOutOfSequenceInPlace compacts, into its own array, an arena
// whose payloads lie against sequence order — a window filled from the top
// down with no dead byte between them, where moving in slot order would
// write the second payload over the last one's bytes; then one replaced
// here and there with other lengths — and reads every payload back after
// every step.
func TestArenaPacksOutOfSequenceInPlace(t *testing.T) {
	const window = 64
	s := New(Options{MaxMessages: window})
	id := wire.MustStreamID(1, 0)
	body := func(seq, n int) []byte { return bytes.Repeat([]byte{byte(seq), byte(n)}, n)[:n] }
	want := map[uint64][]byte{}
	put := func(seq, n int) {
		ext := s.Append(del(id, wire.Seq(seq), epoch, body(seq, n)))
		want[ext] = body(seq, n)
		delete(want, ext-window)
	}
	check := func(when string) {
		t.Helper()
		n := 0
		s.RangeFunc(id, 0, ^uint64(0), func(d filtering.Delivery) bool {
			if !bytes.Equal(d.Msg.Payload, want[d.StoreSeq]) {
				t.Fatalf("%s: payload of %d is % x, want % x", when, d.StoreSeq, d.Msg.Payload, want[d.StoreSeq])
			}
			n++
			return true
		})
		if n != len(want) {
			t.Fatalf("%s: read %d entries, want %d", when, n, len(want))
		}
		checkArena(t, s, id, 100)
	}
	put(0, 40)
	for seq := window - 1; seq > 0; seq-- {
		put(seq, 17+seq%30)
	}
	sh := s.shardFor(id)
	r := sh.rings.Get(id)
	sh.mu.Lock()
	r.packLocked(sh, r.tail.arena[:cap(r.tail.arena)])
	sh.mu.Unlock()
	check("packed after the top-down fill")

	inPlace := 0
	for seq := window; seq < 12*window; seq++ {
		before, base := len(r.tail.arena), unsafe.SliceData(r.tail.arena)
		put(seq, 17+seq%50)
		if seq%7 == 0 {
			put(seq-window/2, 100-seq%60) // replace one mid-window, another length
		}
		if len(r.tail.arena) < before && unsafe.SliceData(r.tail.arena) == base {
			inPlace++
		}
		check(fmt.Sprint("after seq ", seq))
	}
	if inPlace < 3 {
		t.Fatalf("arena compacted in place %d times: the script missed the path", inPlace)
	}
}

// TestArenaStaysBounded walks the arena through the scripts that strand
// capacity — a burst the age bound then evicts, one huge payload passing
// through small ones, EvictTo down to one entry, a sequence replaced over
// and over with different lengths, Forget and resumption — checking the
// bound after every call.
func TestArenaStaysBounded(t *testing.T) {
	id := wire.MustStreamID(1, 0)
	s := New(Options{MaxMessages: 64, MaxAge: time.Minute})
	seq, now, largest := 0, epoch, 0
	put := func(n int, dt time.Duration) {
		now = now.Add(dt)
		if n > largest {
			largest = n
		}
		s.Append(del(id, wire.Seq(seq), now, bytes.Repeat([]byte{byte(seq)}, n)))
		seq++
		checkArena(t, s, id, largest)
	}
	for i := 0; i < 200; i++ { // burst: fills the ring, compacts in place
		put(40, time.Millisecond)
	}
	put(40, time.Hour) // everything before it ages out
	if st, _ := s.StreamStats(id); st.Count != 1 ||
		st.ResidentBytes > int64(unsafe.Sizeof(ring{})+unsafe.Sizeof(tail{}))+64*int64(unsafe.Sizeof(slot{}))+2*40+40+arenaSlack {
		t.Fatalf("after the age eviction the stream holds %d entries in %d resident bytes", st.Count, st.ResidentBytes)
	}
	for i := 0; i < 100; i++ { // one huge payload among small ones
		put([]int{1, 0, 65535, 1, 7}[i%5], time.Millisecond)
	}
	for i := 0; i < 100; i++ { // the huge ones leave the window again
		put(3, time.Millisecond)
	}
	last, _ := s.LastSeq(id)
	s.EvictTo(id, last)
	checkArena(t, s, id, largest)
	for i := 0; i < 300; i++ { // replace one sequence with every length
		seq--
		put(i%50, 0)
	}
	s.Forget(id)
	largest = 0 // a forgotten stream starts over
	checkArena(t, s, id, largest)
	for i := 0; i < 100; i++ {
		put(17, time.Millisecond)
	}
	if got := s.Range(id, 0, ^uint64(0)); len(got) != 64 || !bytes.Equal(got[63].Msg.Payload, bytes.Repeat([]byte{byte(seq - 1)}, 17)) {
		t.Fatalf("resumed stream holds %d entries", len(got))
	}
}
