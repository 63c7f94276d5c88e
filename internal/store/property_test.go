package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// refStore is a deliberately naive reference implementation of the Stream
// Store semantics: per-stream append-slices kept sorted by extended
// sequence, with the same unwrap rule, window bookkeeping, ring-span
// growth and count/byte/age eviction order — but none of the ring
// indexing, slot reuse or sharding. The differential test below drives
// both implementations with identical randomized workloads (including
// 16-bit wire-sequence wraps and late out-of-order fills) and demands
// identical results at shard counts 1, 4 and 16.
type refStore struct {
	maxMsgs  int
	ringMax  int
	maxBytes int64
	maxAge   time.Duration
	streams  map[wire.StreamID]*refStream

	// block, when non-zero (Options.Codec set), models sealed history:
	// entries the retention bounds retire move to a frozen list, block
	// at a time, instead of disappearing — the block rule the store
	// seals by: the live entries are bounded by maxMsgs =
	// max(MaxMessages, BlockSize), an append that would take a new
	// place in a full window first freezes the oldest block (or finds
	// no room when it arrives behind the window, or goes behind when
	// the block was frozen past it), the span bound freezes the oldest
	// min(block, live) at a time, and the byte and age bounds freeze
	// the oldest block while more than a block is live. Queries return
	// frozen ∪ live.
	block int
}

type refEntry struct {
	ext uint64
	d   filtering.Delivery
}

type refStream struct {
	entries  []refEntry // present entries, ascending ext
	frozen   []refEntry // bound-retired entries, ascending ext (block > 0)
	span     int        // current ring span (grows 8 → ringMax)
	minExt   uint64
	maxExt   uint64
	lastExt  uint64
	lastWire wire.Seq
	appends  int // every append, kept or dropped
}

func newRefStore(opts Options) *refStore {
	if opts.MaxMessages <= 0 {
		opts.MaxMessages = DefaultMaxMessages
	}
	rs := &refStore{
		maxMsgs:  opts.MaxMessages,
		maxBytes: opts.MaxBytes,
		maxAge:   opts.MaxAge,
		streams:  make(map[wire.StreamID]*refStream),
	}
	if opts.Codec != "" {
		rs.block = opts.BlockSize
		if rs.block <= 0 {
			rs.block = DefaultBlockSize
		}
		rs.maxMsgs = max(rs.maxMsgs, rs.block)
	}
	rs.ringMax = ceilPow2(rs.maxMsgs)
	return rs
}

// evictOldest drops the oldest n live entries, or freezes them when
// freeze is set.
func (r *refStream) evictOldest(n int, freeze bool) {
	if freeze {
		r.frozen = append(r.frozen, r.entries[:n]...)
	}
	r.minExt = r.entries[n-1].ext + 1
	r.entries = r.entries[n:]
	if len(r.entries) == 0 {
		r.minExt, r.maxExt = 0, 0
	}
}

// retire takes live entries off the window's low end: the oldest one
// dropped, or with a block size the oldest min(block, live) frozen.
func (rs *refStore) retire(r *refStream) {
	if rs.block == 0 {
		r.evictOldest(1, false)
		return
	}
	r.evictOldest(min(rs.block, len(r.entries)), true)
}

func (rs *refStore) append(d filtering.Delivery) uint64 {
	r, ok := rs.streams[d.Msg.Stream]
	if !ok {
		r = &refStream{span: minRingSize}
		rs.streams[d.Msg.Stream] = r
	}
	var ext uint64
	if r.lastExt == 0 {
		ext = extBase + uint64(d.Msg.Seq)
	} else {
		ext = uint64(int64(r.lastExt) + int64(r.lastWire.Distance(d.Msg.Seq)))
	}
	if ext > r.lastExt {
		r.lastExt, r.lastWire = ext, d.Msg.Seq
	}
	r.appends++
	at := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].ext >= ext })
	present := at < len(r.entries) && r.entries[at].ext == ext
	if rs.block > 0 && len(r.entries) >= rs.maxMsgs && !present {
		if ext < r.minExt {
			return ext // no room to open the stream behind a full window
		}
		r.evictOldest(rs.block, true)
		if ext <= r.frozen[len(r.frozen)-1].ext {
			return ext // the block was frozen past it: behind the window
		}
	}
	if len(r.entries) > 0 && ext < r.minExt {
		// Behind the window: kept only as a fill that opens the stream,
		// with every earlier append still live and the span able to grow
		// to cover it.
		if len(r.entries) != r.appends-1 || r.maxExt-ext >= uint64(rs.ringMax) {
			return ext // dropped behind the window
		}
		for r.maxExt-ext >= uint64(r.span) {
			r.span *= 2
		}
		r.minExt = ext
	}
	if len(r.entries) == 0 {
		r.minExt, r.maxExt = ext, ext
	} else if ext > r.maxExt {
		for ext-r.minExt >= uint64(r.span) && r.span < rs.ringMax {
			r.span *= 2
		}
		if ext-r.minExt >= uint64(r.span) {
			target := ext - uint64(r.span) + 1
			for len(r.entries) > 0 && r.entries[0].ext < target {
				rs.retire(r)
			}
			if len(r.entries) > 0 && r.minExt < target {
				r.minExt = target
			}
		}
		if len(r.entries) == 0 {
			r.minExt = ext
		}
		r.maxExt = ext
	}
	d.StoreSeq = ext
	d.Msg.Payload = append([]byte(nil), d.Msg.Payload...)
	at = sort.Search(len(r.entries), func(i int) bool { return r.entries[i].ext >= ext })
	if at < len(r.entries) && r.entries[at].ext == ext {
		r.entries[at] = refEntry{ext: ext, d: d}
	} else {
		r.entries = append(r.entries, refEntry{})
		copy(r.entries[at+1:], r.entries[at:])
		r.entries[at] = refEntry{ext: ext, d: d}
	}
	for len(r.entries) > rs.maxMsgs {
		rs.retire(r)
	}
	keep := max(1, rs.block)
	if rs.maxBytes > 0 {
		for r.bytes() > rs.maxBytes && len(r.entries) > keep {
			rs.retire(r)
		}
	}
	if rs.maxAge > 0 {
		cutoff := d.At.Add(-rs.maxAge)
		for len(r.entries) > keep && r.entries[0].d.At.Before(cutoff) {
			rs.retire(r)
		}
	}
	return ext
}

// all returns frozen ∪ live in ascending extended-sequence order. Every
// frozen entry precedes every live one: frozen entries are retired off
// the window's low edge, and a below-window append is kept only while
// nothing has left the live entries.
func (r *refStream) all() []refEntry {
	if len(r.frozen) == 0 {
		return r.entries
	}
	out := make([]refEntry, 0, len(r.frozen)+len(r.entries))
	out = append(out, r.frozen...)
	return append(out, r.entries...)
}

// evictTo mirrors Store.EvictTo: drop everything (frozen and live) with
// ext < upto — possibly emptying the stream. Returns dropped.
func (rs *refStore) evictTo(id wire.StreamID, upto uint64) int {
	r, ok := rs.streams[id]
	if !ok {
		return 0
	}
	n := 0
	for len(r.frozen) > 0 && r.frozen[0].ext < upto {
		r.frozen = r.frozen[1:]
		n++
	}
	for len(r.entries) > 0 && r.entries[0].ext < upto {
		r.evictOldest(1, false)
		n++
	}
	return n
}

// forget mirrors Store.Forget: drop every retained entry but keep the
// sequence-unwrap state — like the store's ring header, it survives so a
// resumed stream's addresses never move backwards — and reset the window
// span, like the re-materialised minimum ring. Returns dropped.
func (rs *refStore) forget(id wire.StreamID) int {
	r, ok := rs.streams[id]
	if !ok {
		return 0
	}
	n := len(r.frozen) + len(r.entries)
	r.frozen, r.entries = nil, nil
	r.span = minRingSize
	return n
}

func (rs *refStore) firstSeq(id wire.StreamID) (uint64, bool) {
	r, ok := rs.streams[id]
	if !ok {
		return 0, false
	}
	if len(r.frozen) > 0 {
		return r.frozen[0].ext, true
	}
	if len(r.entries) > 0 {
		return r.entries[0].ext, true
	}
	return 0, false
}

func (rs *refStore) oldestSince(id wire.StreamID, from uint64) (uint64, int, bool) {
	r, ok := rs.streams[id]
	if !ok {
		return 0, 0, false
	}
	for _, e := range r.all() {
		if e.ext >= from {
			return e.ext, len(e.d.Msg.Payload), true
		}
	}
	return 0, 0, false
}

func (rs *refStore) windowStats(id wire.StreamID, from, to uint64) (int, int64) {
	r, ok := rs.streams[id]
	if !ok {
		return 0, 0
	}
	count, bytes := 0, int64(0)
	for _, e := range r.all() {
		if e.ext >= from && e.ext <= to {
			count++
			bytes += int64(len(e.d.Msg.Payload))
		}
	}
	return count, bytes
}

func (r *refStream) bytes() int64 {
	var n int64
	for _, e := range r.entries {
		n += int64(len(e.d.Msg.Payload))
	}
	return n
}

func (rs *refStore) rng(id wire.StreamID, from, to uint64) []filtering.Delivery {
	r, ok := rs.streams[id]
	if !ok {
		return nil
	}
	var out []filtering.Delivery
	for _, e := range r.all() {
		if e.ext >= from && e.ext <= to {
			out = append(out, e.d)
		}
	}
	return out
}

func (rs *refStore) latest(id wire.StreamID) (filtering.Delivery, bool) {
	r, ok := rs.streams[id]
	if !ok || len(r.entries) == 0 {
		return filtering.Delivery{}, false
	}
	return r.entries[len(r.entries)-1].d, true
}

// sameDeliveriesFull is sameDeliveries plus every field a codec must
// round-trip: receiver, RSSI (bit-exact), flags and their conditional
// wire fields. Used by the compressed-store differential, where a lossy
// codec would slip past the payload-only comparator.
func sameDeliveriesFull(a, b []filtering.Delivery) error {
	if err := sameDeliveries(a, b); err != nil {
		return err
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Receiver != y.Receiver ||
			math.Float64bits(x.RSSI) != math.Float64bits(y.RSSI) ||
			x.Msg.Flags != y.Msg.Flags || x.Msg.AckID != y.Msg.AckID ||
			x.Msg.HopCount != y.Msg.HopCount || x.Msg.FusedCount != y.Msg.FusedCount {
			return fmt.Errorf("entry %d metadata: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

func sameDeliveries(a, b []filtering.Delivery) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.StoreSeq != y.StoreSeq || x.Msg.Stream != y.Msg.Stream ||
			x.Msg.Seq != y.Msg.Seq || !x.At.Equal(y.At) ||
			!bytes.Equal(x.Msg.Payload, y.Msg.Payload) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// propPayload draws a payload for the differentials: mostly a few dozen
// bytes, now and then empty, one byte, or the wire's 65 535-byte maximum,
// so one stream's arena holds all of them side by side.
func propPayload(rng *rand.Rand) []byte {
	n := rng.Intn(40)
	if k := rng.Intn(24); k < 3 {
		n = []int{0, 1, wire.MaxPayload}[k]
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestStoreMatchesReferenceProperty drives the sharded ring store and the
// naive reference with identical randomized workloads — monotone runs,
// forward jumps that cross the 16-bit wire-seq wrap, late out-of-order
// fills, sequences re-appended with a different length, payloads from
// empty to the wire maximum, advancing timestamps, and EvictTo and Forget
// landing wherever the arena's compaction cycle happens to be — under
// count, byte and age bounds, and checks Range/Latest/Since, the retained
// totals and the hot tier's own invariants (checkArena) agree exactly at
// shard counts 1, 4 and 16.
func TestStoreMatchesReferenceProperty(t *testing.T) {
	partitions := []int{1, 4, wire.Shards}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		opts := Options{
			MaxMessages: []int{4, 16, 50}[trial%3],
			MaxBytes:    []int64{0, 300}[trial%2],
			MaxAge:      []time.Duration{0, 40 * time.Second}[(trial/2)%2],
		}
		stores := make([]*Store, len(partitions))
		for i, n := range partitions {
			o := opts
			o.shards = n
			stores[i] = New(o)
		}
		ref := newRefStore(opts)

		streams := make([]wire.StreamID, 6)
		wireSeq := make([]int, len(streams))
		largest := make([]int, len(streams)) // payload, since the stream was last forgotten
		for i := range streams {
			streams[i] = wire.MustStreamID(wire.SensorID(rng.Intn(1000)+1), wire.StreamIndex(i))
			wireSeq[i] = rng.Intn(wire.SeqCount) // random start, some near the wrap
		}
		now := epoch

		for step := 0; step < 800; step++ {
			si := rng.Intn(len(streams))
			id := streams[si]
			now = now.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)

			seq := wireSeq[si]
			switch k := rng.Intn(10); {
			case k < 7: // in-order next
				wireSeq[si]++
			case k < 9: // forward jump (may cross the wrap many times over a trial)
				wireSeq[si] += rng.Intn(100) + 2
			default: // late out-of-order fill behind the head, or — at
				// distance 0 — a sequence its successor will re-append
				seq -= rng.Intn(41)
			}
			payload := propPayload(rng)
			if len(payload) > largest[si] {
				largest[si] = len(payload)
			}
			d := del(id, wire.Seq(seq), now, payload)

			wantExt := ref.append(d)
			for i, s := range stores {
				if ext := s.Append(d); ext != wantExt {
					t.Fatalf("trial %d step %d shards=%d: ext %d, ref %d", trial, step, partitions[i], ext, wantExt)
				}
				checkArena(t, s, id, largest[si])
			}

			// Occasional policy eviction, wherever the stream's arena
			// is between two compactions.
			if step%45 == 44 {
				ti := rng.Intn(len(streams))
				var upto uint64
				if first, ok := ref.firstSeq(streams[ti]); ok {
					upto = first + uint64(rng.Intn(30))
				}
				forget := rng.Intn(4) == 0
				var want int
				if forget {
					want = ref.forget(streams[ti])
					largest[ti] = 0
				} else {
					want = ref.evictTo(streams[ti], upto)
				}
				for i, s := range stores {
					var got int
					if forget {
						got = s.Forget(streams[ti])
					} else {
						got = s.EvictTo(streams[ti], upto)
					}
					if got != want {
						t.Fatalf("trial %d step %d shards=%d: EvictTo(%d)/Forget(%v) = %d, ref %d",
							trial, step, partitions[i], upto, forget, got, want)
					}
					checkArena(t, s, streams[ti], largest[ti])
				}
			}

			if step%20 != 0 {
				continue
			}
			// Checkpoint: full-window and sub-range queries must agree.
			qid := streams[rng.Intn(len(streams))]
			lo := extBase + uint64(rng.Intn(900))
			hi := lo + uint64(rng.Intn(200))
			rng.Intn(2000) // unused draw: keeps the seeded sequence of later queries
			wantAll := ref.rng(qid, 0, ^uint64(0))
			wantSub := ref.rng(qid, lo, hi)
			wantLatest, wantOK := ref.latest(qid)
			for i, s := range stores {
				tag := fmt.Sprintf("trial %d step %d shards=%d stream %v", trial, step, partitions[i], qid)
				if err := sameDeliveries(s.Range(qid, 0, ^uint64(0)), wantAll); err != nil {
					t.Fatalf("%s: Range(all): %v", tag, err)
				}
				if err := sameDeliveries(s.Range(qid, lo, hi), wantSub); err != nil {
					t.Fatalf("%s: Range(%d,%d): %v", tag, lo, hi, err)
				}
				gotLatest, gotOK := s.Latest(qid)
				if gotOK != wantOK {
					t.Fatalf("%s: Latest ok %v, ref %v", tag, gotOK, wantOK)
				}
				if wantOK {
					if err := sameDeliveries([]filtering.Delivery{gotLatest}, []filtering.Delivery{wantLatest}); err != nil {
						t.Fatalf("%s: Latest: %v", tag, err)
					}
				}
			}
		}

		// Final state: retained totals agree across every shard count.
		var wantMsgs, wantBytes int64
		for _, r := range ref.streams {
			wantMsgs += int64(len(r.entries))
			wantBytes += r.bytes()
		}
		for i, s := range stores {
			st := s.Stats()
			if st.RetainedMessages != wantMsgs || st.RetainedBytes != wantBytes {
				t.Fatalf("trial %d shards=%d: retained %d msgs/%d B, ref %d/%d",
					trial, partitions[i], st.RetainedMessages, st.RetainedBytes, wantMsgs, wantBytes)
			}
		}
	}
}

// TestCompressedStoreMatchesFrozenReference is the compressed-tier
// differential: the reference freezes bound-retired entries by the block
// rule instead of dropping them, exactly as the store seals them into
// cold blocks, so every query over frozen ∪ live must match the store's
// cold → hot stitching byte for byte. Each codec (and auto) runs at shard
// counts 1, 4 and 16 over workloads mixing wire-seq wraps, forward
// jumps, late fills, duplicate re-appends, per-stream payload shapes
// chosen to favour different codecs (the noise stream's lengths run from
// empty to the wire maximum), rotating receivers, flagged messages, and
// occasional EvictTo (exercising the block split) and Forget.
func TestCompressedStoreMatchesFrozenReference(t *testing.T) {
	partitions := []int{1, 4, wire.Shards}
	codecs := []string{"raw", "gorilla", "rle", "lz", "auto"}
	for ci, codecName := range codecs {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(100*ci + trial)))
			opts := Options{
				MaxMessages: []int{8, 16, 5}[trial],
				MaxBytes:    []int64{0, 400, 0}[trial],
				MaxAge:      []time.Duration{0, 40 * time.Second, 0}[trial],
				Codec:       codecName,
				ColdBudget:  1 << 40, // effectively unbounded: the reference never thaws
				// A block of 6 fills a window of 6 in a ring of 8, so a
				// fill can land in a full window's gap and have its block
				// seal the whole window past it.
				BlockSize: []int{8, 8, 6}[trial],
			}
			stores := make([]*Store, len(partitions))
			for i, n := range partitions {
				o := opts
				o.shards = n
				stores[i] = New(o)
			}
			ref := newRefStore(opts)

			streams := make([]wire.StreamID, 4)
			wireSeq := make([]int, len(streams))
			largest := make(map[wire.StreamID]int) // payload, since the stream was last forgotten
			for i := range streams {
				streams[i] = wire.MustStreamID(wire.SensorID(rng.Intn(1000)+1), wire.StreamIndex(i))
				wireSeq[i] = rng.Intn(wire.SeqCount) // some start near the wrap
			}
			receivers := []string{"rx-alpha", "rx-beta", "rx-gamma"}
			now := epoch

			// payload produces a per-stream shape: constant words (RLE),
			// smooth float ramps (Gorilla), repetitive text (LZ) and
			// incompressible noise (raw fallback).
			payload := func(si, step int) []byte {
				switch si % 4 {
				case 0:
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], math.Float64bits(21.5))
					return b[:]
				case 1:
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], math.Float64bits(20.0+0.125*float64(step%64)))
					return b[:]
				case 2:
					return []byte(fmt.Sprintf("sensor reading %d ok", step%32))
				default:
					return propPayload(rng)
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
				switch rng.Intn(20) {
				case 0, 1:
					d.Msg.Flags = wire.FlagUpdateAck
					d.Msg.AckID = uint16(rng.Intn(1 << 16))
				case 2:
					d.Msg.Flags = wire.FlagRelayed
					d.Msg.HopCount = byte(rng.Intn(8))
				case 3:
					d.Msg.Flags = wire.FlagFused
					d.Msg.FusedCount = byte(rng.Intn(5) + 1)
				}

				largest[id] = max(largest[id], len(d.Msg.Payload))
				wantExt := ref.append(d)
				for i, s := range stores {
					if ext := s.Append(d); ext != wantExt {
						t.Fatalf("codec=%s trial %d step %d shards=%d: ext %d, ref %d",
							codecName, trial, step, partitions[i], ext, wantExt)
					}
					checkArena(t, s, id, largest[id])
				}

				// Occasional policy eviction: EvictTo forces cold-block
				// splits, Forget drops whole streams across all tiers.
				if step%60 == 59 {
					tid := streams[rng.Intn(len(streams))]
					var upto uint64
					if first, ok := ref.firstSeq(tid); ok {
						upto = first + uint64(rng.Intn(30))
					}
					want := ref.evictTo(tid, upto)
					for i, s := range stores {
						if got := s.EvictTo(tid, upto); got != want {
							t.Fatalf("codec=%s trial %d step %d shards=%d: EvictTo(%d) = %d, ref %d",
								codecName, trial, step, partitions[i], upto, got, want)
						}
						checkArena(t, s, tid, largest[tid])
					}
				}
				if step%150 == 149 {
					tid := streams[rng.Intn(len(streams))]
					want := ref.forget(tid)
					largest[tid] = 0
					for i, s := range stores {
						if got := s.Forget(tid); got != want {
							t.Fatalf("codec=%s trial %d step %d shards=%d: Forget = %d, ref %d",
								codecName, trial, step, partitions[i], got, want)
						}
						checkArena(t, s, tid, 0)
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
				wantLatest, wantOK := ref.latest(qid)
				wantFirst, wantFirstOK := ref.firstSeq(qid)
				wantOSeq, wantOSize, wantOOK := ref.oldestSince(qid, lo)
				wantWC, wantWB := ref.windowStats(qid, lo, hi)
				for i, s := range stores {
					tag := fmt.Sprintf("codec=%s trial %d step %d shards=%d stream %v",
						codecName, trial, step, partitions[i], qid)
					if err := sameDeliveriesFull(s.Range(qid, 0, ^uint64(0)), wantAll); err != nil {
						t.Fatalf("%s: Range(all): %v", tag, err)
					}
					if err := sameDeliveriesFull(s.Range(qid, lo, hi), wantSub); err != nil {
						t.Fatalf("%s: Range(%d,%d): %v", tag, lo, hi, err)
					}
					gotLatest, gotOK := s.Latest(qid)
					if gotOK != wantOK {
						t.Fatalf("%s: Latest ok %v, ref %v", tag, gotOK, wantOK)
					}
					if wantOK {
						if err := sameDeliveriesFull([]filtering.Delivery{gotLatest}, []filtering.Delivery{wantLatest}); err != nil {
							t.Fatalf("%s: Latest: %v", tag, err)
						}
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
						t.Fatalf("%s: WindowStats(%d,%d) = %d,%d, ref %d,%d",
							tag, lo, hi, gotWC, gotWB, wantWC, wantWB)
					}
				}
			}

			// Final state: with compression on and an unbounded cold
			// budget nothing is ever lost to the retention bounds — the
			// Evicted* counters stay zero and the hot and sealed gauges
			// together equal the reference's frozen ∪ live totals,
			// reconciling exactly with the append/loss counters.
			var wantMsgs, wantBytes int64
			for _, r := range ref.streams {
				for _, e := range r.all() {
					wantMsgs++
					wantBytes += int64(len(e.d.Msg.Payload))
				}
			}
			for i, s := range stores {
				st := s.Stats()
				tag := fmt.Sprintf("codec=%s trial %d shards=%d", codecName, trial, partitions[i])
				if st.EvictedCount != 0 || st.EvictedBytes != 0 || st.EvictedAge != 0 || st.EvictedArchive != 0 {
					t.Fatalf("%s: compressed store lost entries to bounds: %+v", tag, st)
				}
				if st.SealedBlocks == 0 {
					t.Fatalf("%s: no blocks sealed — the cold tier was never exercised", tag)
				}
				if msgs, b := st.RetainedMessages+st.ArchivedMessages, st.RetainedBytes+st.ArchivedRawBytes; msgs != wantMsgs || b != wantBytes {
					t.Fatalf("%s: retained + sealed %d msgs/%d B, ref %d/%d", tag, msgs, b, wantMsgs, wantBytes)
				}
				if err := st.Check(); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
			}
		}
	}
}
