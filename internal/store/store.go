// Package store implements the Stream Store: sharded, sequence-addressable
// retention for reconstructed stream deliveries.
//
// Garnet distributes live streams; the only history the paper's middleware
// keeps is the Orphanage's backlog for *unclaimed* streams (§4.2). The
// Stream Store generalises that into a first-class retention layer under
// every stream — GSN-style middleware treats retained history as a service
// queried by late and remote clients — so late joiners catch up on claimed
// streams, consumers run range queries over recent history, and future
// gateway/federation layers have a local buffer to replicate from.
//
// # Addressing
//
// The wire format's 16-bit sequence wraps every 65536 messages; retained
// history needs stable addresses. The store assigns every appended delivery
// a 64-bit extended sequence: the wire sequence unwrapped monotonically
// with RFC 1982 serial distances from the highest sequence seen. Extended
// sequences start at 65536 (so 0 always means "not retained") and are
// stamped onto Delivery.StoreSeq, making the retention address visible to
// every downstream consumer.
//
// # Screening
//
// A stream's record holds its duplicate window (filtering.Window and
// filtering.Rest) beside its ring, so the Filtering Service's screen runs
// here: Ingest screens a reception and appends it — StoreSeq assigned —
// in one critical section under one shard lock, with one lookup of one
// record. Append is the unscreened path (derived streams, location
// updates, replay and tests); both share one append step. A stream's
// window survives Forget, as its unwrap state does.
//
// # Fences
//
// Ingest, AppendFenced and RangeFenced take a fence: a callback that runs
// under the stream's shard lock, after the StoreSeq is assigned or before
// the backlog is read. A deployment resolves a delivery's Exact and
// BySensor destinations in the first and installs a late joiner's
// subscription in the second, so an append and a join on one stream are
// ordered by this lock: every delivery is either in the joiner's backlog
// or on its live route, never both and never neither. A fence takes a
// Dispatching Service shard lock inside the store's, the one lock order
// the two keep: store shard → dispatch shard. It must not call back into
// the Store.
//
// # Sharding and retention
//
// State partitions into N shards keyed by wire.SensorID.Shard — the same
// Fibonacci partition the Dispatching and control-plane services use — so
// a stream's screen and retention state live behind one lock that only
// that sensor's traffic contends on, and its dispatch state behind one
// more, taken inside it by a fence. That lock is also what Range,
// RangeFunc, WindowStats and a replay hold across every archive read and
// block decode, so a late joiner's archive read delays screening, not
// only appends, on 1/N of the streams until it returns.
//
// Each stream owns a power-of-two ring of retained deliveries indexed by
// extended sequence (slot = seq mod ring size), grown on demand up to the
// count bound. Retention is bounded per stream by count, payload bytes and
// age; every bound evicts from the oldest end at append time, advancing a
// window low-water mark one slot at a time, so eviction is O(1) amortised.
//
// A ring is pointer-free memory the garbage collector never walks: an
// array of slot records, one 64-byte cache line each, and a payload arena.
// A delivery is packed into its slot field by field; a payload of up to 16
// bytes is kept in the slot itself, a longer one is appended to the arena.
// Either way the bytes are copied, which keeps borrowed radio frames
// zero-copy upstream: the store never retains a reference to caller
// memory. Evicted arena payloads leave dead bytes behind; a full arena is
// compacted into the same array, so a ring at its bound allocates nothing
// per append whatever its payloads' size, at the price of moving each
// arena payload once more than a slot payload is. Reads unpack a Delivery
// per hot entry, its payload lent from the ring under the shard lock.
//
// # Sealed history
//
// With a codec configured (Options.Codec), an entry the hot bounds push out
// of the ring is not dropped: it moves to the seal stage, and a full stage
// is encoded into one immutable block appended to the stream's one list of
// sealed blocks. The stage is slots like the ring, BlockSize of them, and
// an entry moves there as its slot, a payload in the arena staying where
// it was until the block seals; only then is the stage unpacked, into the
// pooled scratch reads decode into, for the codec to encode from. Where a
// block goes from there depends on the archive:
//
//   - With no archive it joins the stream's list of sealed blocks, the cold
//     tier, bounded per stream by Options.ColdBudget: past it the oldest
//     block is dropped (Stats.EvictedCold).
//   - With an archive (Options.Archive) the appender that sealed it files it
//     in the backend at once, under the same shard lock, and the list stays
//     empty. The block lives on as a durable ref, 48 bytes in memory, whose
//     bytes a read fetches back from the backend.
//
// A stream's history is therefore, oldest first: durable refs or the cold
// list, the seal stage, the hot ring. All of it hangs off the stream's one
// record — the ring header and, behind one pointer, its tail — and every
// read walks it in that order (walkLocked).
package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/store/codec"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Defaults for Options.
const (
	// DefaultMaxMessages bounds the per-stream retained backlog. It is
	// deliberately larger than the Orphanage's default per-stream
	// capacity (128) so the orphan backlog view never outruns the store
	// that backs it.
	DefaultMaxMessages = 256

	// extBase is the first extended sequence a stream can be assigned.
	// Starting one full wire-sequence space up keeps 0 free to mean
	// "never retained" and makes backwards serial distances (late
	// out-of-order fills) mathematically incapable of underflowing.
	extBase = uint64(wire.SeqCount)

	// minRingSize is the initial ring allocation; rings double as the
	// retained window grows. One slot, not a batch: at a million mostly
	// idle sensors the dominant store cost is the per-stream ring, and a
	// stream that only ever reported once should pay for exactly one
	// retained delivery, not eight.
	minRingSize = 1

	// inlinePayload is the longest payload a hot slot holds itself. It
	// rounds the slot up to one 64-byte cache line, so a reading of one or
	// two 8-byte values is retained by writing that line and nothing
	// else; longer payloads go to the ring's arena.
	inlinePayload = 16
	// arenaSlack is how far a ring's payload arena may exceed twice its
	// live bytes plus its largest payload before it is cut back down.
	arenaSlack = 64
)

// Defaults for sealed history (Options.Codec != "").
const (
	// DefaultColdBudget bounds the compressed bytes of sealed blocks kept
	// in memory per stream when no archive is attached.
	DefaultColdBudget = int64(1) << 16
	// DefaultBlockSize is the number of deliveries sealed per block.
	DefaultBlockSize = 64
	// maxFreeBufs bounds the per-shard free list of recycled block
	// buffers.
	maxFreeBufs = 64
)

// Options configures a Store. The zero value selects the defaults above
// with no byte or age bound.
type Options struct {
	// shards overrides wire.Shards, the number of partitions of the
	// per-stream state, each with its own lock, table and counters. Only
	// in-package tests set it, to hold one table against many.
	shards int
	// MaxMessages bounds retained deliveries per stream; <= 0 selects
	// DefaultMaxMessages. The ring is sized to the next power of two.
	MaxMessages int
	// MaxBytes bounds retained payload bytes per stream; <= 0 means
	// unbounded. The newest delivery is always retained, even when it
	// alone exceeds the bound.
	MaxBytes int64
	// MaxAge evicts deliveries older than this relative to the delivery
	// being appended (append-side eviction needs no timer and stays
	// deterministic on virtual clocks); <= 0 means unbounded.
	MaxAge time.Duration

	// Codec enables sealed history: deliveries evicted from the hot ring
	// by the count/byte/age bounds pass through the seal stage into
	// immutable compressed blocks instead of being dropped, and the read
	// path stitches them back transparently. A stream that has sealed
	// keeps its stage, BlockSize pointer-free 64-byte slots, until Forget.
	// "" disables it (evictions drop, the pre-compression behaviour).
	// Valid names are "auto", "gorilla", "rle", "lz" and "raw"; New panics
	// on anything else: a config typo should not silently disable
	// retention.
	Codec string
	// ColdBudget bounds the sealed blocks kept in memory per stream, in
	// compressed bytes, when no archive is attached; the oldest blocks
	// are dropped (Stats.EvictedCold) past it. <= 0 selects
	// DefaultColdBudget. The newest block always survives. With an
	// archive no block is kept in memory and no budget applies.
	ColdBudget int64
	// BlockSize is the number of deliveries sealed per block; <= 0
	// selects DefaultBlockSize.
	BlockSize int

	// Archive enables the durable archive tier: every block is filed in
	// this backend by the append that seals it, under the stream's shard
	// lock, so appends pay the backend's write latency; the read path
	// stitches archived blocks back transparently — archive → stage →
	// hot, one ascending sequence. Archiving requires sealing; when Codec
	// is empty it defaults to "auto". nil disables the tier. At
	// construction the store recovers the backend's manifest and serves
	// archived history for streams it has never seen live.
	Archive archive.Backend
	// ArchiveMaxAge drops archived blocks whose newest entry is older
	// than this relative to the newest archived entry (append-side
	// eviction, deterministic on virtual clocks); <= 0 means unbounded.
	ArchiveMaxAge time.Duration
	// ArchiveMaxBytes bounds the archived compressed bytes per stream;
	// the oldest blocks are dropped (Stats.EvictedArchive) past it.
	// <= 0 means unbounded. The newest block always survives.
	ArchiveMaxBytes int64
}

// Stats is an aggregate snapshot summed across shards. Its counters obey
// the conservation identity on Check on every snapshot. With compression
// enabled the Evicted{Count,Bytes,Age} counters stay at zero — those
// evictions seal instead — and EvictedCold takes over as the only
// capacity-driven loss; with an archive backend attached EvictedCold
// stays at zero too — every sealed block spills — leaving EvictedArchive
// (retention policy) and ArchiveFailed (backend write errors) as the only
// capacity losses.
type Stats struct {
	Appended      int64 // deliveries handed to Append
	Duplicates    int64 // re-appends of an already retained sequence (replaced in place)
	DroppedBehind int64 // arrived below the retained window; address assigned, not stored
	EvictedCount  int64 // evicted by the count/ring bound
	EvictedBytes  int64 // evicted by the byte bound
	EvictedAge    int64 // evicted by the age bound
	EvictedCold   int64 // dropped from the cold tier by the compressed-bytes budget
	Forgotten     int64 // dropped by policy (Forget / EvictTo)

	// Sealing counters, zero when compression is off.
	SealedBlocks   int64 // compressed blocks sealed since start
	SealedMessages int64 // deliveries sealed into those blocks

	// RetainedMessages/RetainedBytes are gauge values: what the store
	// holds in memory right now — hot ring, seal stage and cold list —
	// summed across the shards. RetainedBytes counts payload bytes as
	// appended, regardless of how densely sealed blocks store them.
	RetainedMessages int64
	RetainedBytes    int64

	// Cold-tier gauges: compressed blocks held in memory, the compressed
	// bytes they occupy, and the live payload bytes they represent. With
	// an archive attached every block is filed as it seals and these
	// read 0.
	ColdBlocks   int
	ColdBytes    int64
	ColdRawBytes int64

	// Archive-tier counters, zero when no backend is attached.
	EvictedArchive      int64 // dropped from the archive by WithArchiveRetention bounds
	ArchiveFailed       int64 // lost to backend append errors
	ArchiveRecovered    int64 // recovered from the backend's manifest at construction
	ArchiveSyncSpills   int64 // always 0: every block is filed by the append that seals it
	ArchiveReadMessages int64 // entries decoded from archived blocks by reads (read amplification numerator)

	// Archive-tier gauges: durable blocks live right now and their
	// encoded/raw bytes (RawBytes/Bytes is the archived compression
	// ratio).
	ArchivedBlocks   int64
	ArchivedMessages int64
	ArchivedBytes    int64
	ArchivedRawBytes int64
	// ArchivePendingBlocks and ArchiveQueueDepth always read 0: no
	// sealed block waits to be filed. They and ArchiveSyncSpills remain
	// for the benchmark, which reads them.
	ArchivePendingBlocks int64
	ArchiveQueueDepth    int

	// Archive backend latency percentiles in milliseconds over every
	// spill write / block read so far, from a fixed-bucket histogram:
	// never above the exact order statistic and less than 3.2 % below it
	// (metrics.HistogramRelativeError); zero when nothing has been
	// observed.
	ArchiveWriteP50Ms float64
	ArchiveWriteP99Ms float64
	ArchiveReadP50Ms  float64
	ArchiveReadP99Ms  float64

	Codec   string // configured codec name, "" when compression is off
	Streams int    // streams holding at least one delivery in any tier, archive included
	Shards  int
}

// Check verifies the store's conservation identity
//
//	RetainedMessages + ArchivedMessages − ArchiveRecovered ==
//	    Appended − Duplicates − DroppedBehind −
//	    EvictedCount − EvictedBytes − EvictedAge − EvictedCold −
//	    EvictedArchive − ArchiveFailed − Forgotten
//
// each appended delivery is either still held (in memory or durably
// archived) or accounted to exactly one of the loss reasons;
// ArchiveRecovered discounts history inherited from a previous process's
// manifest, which was never appended in this one.
func (s Stats) Check() error {
	held := s.RetainedMessages + s.ArchivedMessages - s.ArchiveRecovered
	kept := s.Appended - s.Duplicates - s.DroppedBehind -
		s.EvictedCount - s.EvictedBytes - s.EvictedAge - s.EvictedCold -
		s.EvictedArchive - s.ArchiveFailed - s.Forgotten
	if held != kept {
		return fmt.Errorf("retained %d + archived %d − recovered %d = %d held, but appended %d less losses leaves %d: %+v",
			s.RetainedMessages, s.ArchivedMessages, s.ArchiveRecovered, held, s.Appended, kept, s)
	}
	return nil
}

// StreamStats describes one stream's retained window across every tier.
type StreamStats struct {
	Stream   wire.StreamID
	FirstSeq uint64 // lowest retained extended sequence (0 when empty)
	LastSeq  uint64 // highest retained extended sequence (0 when empty)
	NextWire wire.Seq
	Count    int   // retained deliveries in memory: hot + stage + cold list
	Bytes    int64 // their payload bytes as appended

	// ResidentBytes estimates the stream's resident heap: the ring
	// header and the hot slot array at capacity and, once the stream
	// owns one, the tail record with its payload arena — every hot and
	// staged payload longer than a slot — and its stage's slots at
	// capacity, the sealed blocks' headers plus compressed data, and the
	// archived refs' index.
	// Receiver names live in the store's name table and allocator
	// rounding is not counted, so this is an estimate — but one that is
	// comparable across streams and honest about lazy allocation (a
	// forgotten or idle stream shows only its header).
	ResidentBytes int64

	// Cold-tier view, zero when compression is off, an archive is
	// attached or no block is held in memory. ColdRawBytes/ColdBytes is
	// the stream's compression ratio.
	Codec        string // codec of the newest sealed block, held or archived
	ColdBlocks   int
	ColdMessages int
	ColdBytes    int64 // compressed bytes held
	ColdRawBytes int64 // payload bytes those blocks represent

	// Archive-tier view, zero when no backend is attached or nothing
	// has spilled. Archived entries are durable, not resident: they are
	// excluded from Count/Bytes/ResidentBytes but included in the
	// FirstSeq..LastSeq replayable window. ArchivedRawBytes divided by
	// ArchivedBytes is the stream's archived compression ratio.
	ArchivedBlocks   int
	ArchivedMessages int
	ArchivedBytes    int64 // encoded bytes in the backend
	ArchivedRawBytes int64 // payload bytes those blocks represent
	ArchiveFloor     uint64
}

// Store is the Stream Store.
type Store struct {
	opts    Options
	ringMax int
	shards  []*shard

	// Sealing configuration; picker is nil when compression is off.
	picker     codec.Picker
	codecName  string
	coldBudget int64
	blockSize  int

	// Archive tier; nil when no backend is attached.
	arch *archiveState

	// names numbers every receiver name the store retains or decodes;
	// decodeName is its bytes method, bound once for codec.Scratch.
	names      names
	decodeName func([]byte) string
}

type shard struct {
	mu sync.Mutex

	// screen is Ingest's share of the duplicate screen for this shard's
	// streams: the window size and the counters, mutated under mu.
	screen filtering.Screen

	// rings holds every stream's ring header in place. The store deletes
	// none (Forget keeps the unwrap state and append history), so a *ring
	// stays valid under mu for the life of the store.
	rings table[ring]
	// names is the store's receiver-name table. Receivers get the
	// single-entry cache the table keeps for streams: consecutive
	// deliveries mostly share one, and its index is then a comparison of
	// the caller's string pointer away.
	names     *names
	lastRx    string
	lastRxIdx uint32

	// Counters are plain ints under mu, read by Stats under it too.
	appended         int64
	duplicates       int64
	droppedBehind    int64
	evictedCount     int64
	evictedBytes     int64
	evictedAge       int64
	evictedCold      int64
	forgotten        int64
	sealedBlocks     int64
	sealedMsgs       int64
	retainedMessages int64
	retainedBytes    int64

	// Archive-tier counters, plain ints under mu like the rest; the
	// per-stream archive state lives on each ring's tail.
	archivedBlocks   int64
	archivedMsgs     int64
	archivedBytes    int64
	archivedRaw      int64
	evictedArchive   int64
	archiveFailed    int64
	archiveRecovered int64
	archiveReadMsgs  int64

	// freeBufs recycles encoded-block buffers across streams so sealing
	// allocates nothing at steady state.
	freeBufs [][]byte

	// packOrder is scratch for compacting a ring's arena: the slots that
	// name arena bytes, in the order they lie there (see packLocked).
	packOrder []int32
}

// blockBufLocked pops a recycled block buffer. Caller holds mu.
func (sh *shard) blockBufLocked() []byte {
	if n := len(sh.freeBufs); n > 0 {
		b := sh.freeBufs[n-1]
		sh.freeBufs[n-1] = nil
		sh.freeBufs = sh.freeBufs[:n-1]
		return b
	}
	return nil
}

// recycleBufLocked parks a block buffer for reuse. Caller holds mu.
func (sh *shard) recycleBufLocked(b []byte) {
	if b != nil && len(sh.freeBufs) < maxFreeBufs {
		sh.freeBufs = append(sh.freeBufs, b[:0])
	}
}

// ring is one stream's record: its duplicate screen, and its retention
// state — a power-of-two circular buffer of slots indexed by extended
// sequence, plus the unwrap state and append history that survive even
// when every entry has been evicted.
//
// There is one ring per stream the store has ever seen, so its layout is
// the store's idle footprint. The header holds what every stream uses —
// the screen, the slots, the window, the unwrap state and the append
// history — in the order a reception touches it, so it comes first and
// alone: it is all an idle stream pays for. The arena and the sealed
// history, which only a stream with payloads longer than a slot's or with
// a codec needs, sit in the tail behind one pointer. The slot mask is
// derived from len(slots) (see slotMask) instead of stored, and the wire
// sequence of lastExt is its low 16 bits. The footprint test pins header
// and one slot together.
type ring struct {
	// The stream's duplicate screen (Ingest), first so that a duplicate
	// copy reads the record's first cache line only: the in-order window
	// fills the four bytes beside count, and the bitmap sits behind rest,
	// nil until the stream first leaves the in-order regime. Append
	// bypasses both, and Forget keeps them, so a stream that resumes is
	// screened against what it sent before.
	win   filtering.Window
	count int32 // occupied hot slots
	rest  *filtering.Rest

	slots []slot
	// tail is noTail until the stream first needs an arena, stages an
	// entry or is recovered from the archive (ownTail); Forget hands it
	// back.
	tail *tail

	// Retained window [minExt, maxExt], both present when count > 0.
	// Entries inside the window may be holes (sequence gaps the radio
	// lost); a slot is occupied iff its ext is the probed extended
	// sequence, and every unoccupied slot's ext is 0.
	minExt, maxExt uint64
	bytes          int64

	// lastExt is the highest extended sequence ever assigned (unwrap
	// state). Kept across Forget so a stream's addresses never move
	// backwards.
	lastExt uint64

	// The stream's append history, whatever the window kept of it: how
	// many deliveries were appended and the At of the first and the
	// latest, as a slot keeps At. Forget keeps it; Appended reads it.
	appended              int64
	firstSec, latestSec   int64
	firstNsec, latestNsec int32
}

// tail is the part of a ring most streams never use: the payload arena
// and the sealed history. A ring that has needed neither points at noTail,
// the shared zero tail, so every read goes through the pointer unguarded;
// only ownTail's caller may write through it.
type tail struct {
	// arena holds the hot and staged payloads too long for their slots,
	// each such slot naming its own range; held counts the bytes still
	// named, the rest of len(arena) is dead (evicted, sealed or replaced)
	// until the next compaction.
	arena []byte
	held  int64
	// largest is the longest payload put in the arena since the tail was
	// allocated: appending it beside a full window needs that much arena
	// beyond the window's own bytes. sealedArena is what the stage named
	// in the arena when it last sealed: the next stage will likely need as
	// much, so trimming leaves room for it.
	largest     uint32
	sealedArena uint32

	// Sealed history, oldest first: every sequence in refs or blocks
	// precedes every one in stage, which precede the hot ring's, so reads
	// stitch them in that order. Entries leave the hot ring oldest first
	// into stage by a copy of their slot — a longer payload stays where it
	// was, in the arena — and a full stage seals into one immutable
	// compressed block, filed in the archive or, without one, appended to
	// blocks, the cold tier. Staged and cold entries are still retained:
	// the shard's retained counts do not move when an entry is sealed,
	// only when a block is dropped or archived.
	stage      []slot // capacity BlockSize, allocated once
	blocks     []block
	blockBytes int64 // compressed bytes across blocks

	// The archive tier (Options.Archive). refs are the blocks the backend
	// holds, ascending; floor mirrors the retention cut the backend
	// persisted.
	refs  []archive.Ref
	floor uint64
}

// noTail is the tail of every ring that owns none. It is shared, so it
// must stay the zero value: nothing writes through r.tail without calling
// ownTail first.
var noTail = new(tail)

// ownTail gives the ring a tail of its own, allocating it on first use,
// and returns it for writing.
func (r *ring) ownTail() *tail {
	if r.tail == noTail {
		r.tail = new(tail)
	}
	return r.tail
}

// slot is one hot-ring entry: a delivery packed with no pointer in it, so
// a slot array is memory the collector never scans, and sized to one cache
// line, which a slot array's allocation aligns it to. What a Delivery
// holds by reference lives elsewhere — the receiver name in the store's
// name table, a payload longer than inlinePayload in the ring's arena — and
// what the ring already knows is not stored: the stream is the ring's
// key, and the wire sequence is the low 16 bits of ext (the unwrap keeps
// ext ≡ seq mod 2¹⁶). At is kept as an instant, Unix seconds and
// nanoseconds — the whole time.Time range, without location or monotonic
// reading.
type slot struct {
	ext   uint64 // extended sequence; 0 marks the slot empty
	sec   int64
	rssi  float64
	nsec  int32
	size  uint32 // payload length
	rx    uint32 // the receiver name's index in the store's names
	ack   uint16
	flags wire.Flags
	hop   uint8
	fused uint8
	// small is the payload itself when it fits; a longer one lies in the
	// ring's arena, at the offset the first eight bytes here hold.
	small [inlinePayload]byte
}

func (e *slot) at() time.Time { return time.Unix(e.sec, int64(e.nsec)) }

func (e *slot) off() int { return int(binary.LittleEndian.Uint64(e.small[:])) }

func (e *slot) setOff(off int) { binary.LittleEndian.PutUint64(e.small[:], uint64(off)) }

// payloadLocked returns e's payload bytes where the ring keeps them,
// capped so an append to the result cannot run into a neighbour.
func (r *ring) payloadLocked(e *slot) []byte {
	if e.size <= inlinePayload {
		return e.small[:e.size:e.size]
	}
	end := e.off() + int(e.size)
	return r.tail.arena[e.off():end:end]
}

// vacateLocked empties an occupied hot slot and returns its payload's
// length: the bytes leave the ring's count and, if they lay in the arena,
// go dead there until the next compaction.
func (r *ring) vacateLocked(e *slot) int64 {
	n := r.tail.release(e)
	r.bytes -= n
	e.ext = 0
	r.count--
	return n
}

// release lets go of the arena bytes a hot or staged slot names, if it
// names any, and returns its payload's length.
func (t *tail) release(e *slot) int64 {
	n := int64(e.size)
	if n > inlinePayload {
		t.held -= n // an arena payload: the ring owns its tail
	}
	return n
}

// deliveryLocked unpacks r's hot or staged entry e. Its payload is lent
// from the ring: valid under the shard lock, until the stream is next
// appended to.
func (sh *shard) deliveryLocked(r *ring, id wire.StreamID, e *slot) filtering.Delivery {
	return filtering.Delivery{
		Msg: wire.Message{Flags: e.flags, Stream: id, Seq: wire.Seq(e.ext), AckID: e.ack,
			HopCount: e.hop, FusedCount: e.fused, Payload: r.payloadLocked(e)},
		At: e.at(), Receiver: sh.names.lookup(e.rx), RSSI: e.rssi, StoreSeq: e.ext,
	}
}

// slotMask converts an extended sequence into a slot index; len(slots)
// is a power of two. Deriving the mask from the length the indexing
// already loads keeps it off every ring's footprint. Caller must know
// slots is non-empty (count > 0, or appendLocked after re-materialise).
func (r *ring) slotMask() uint64 { return uint64(len(r.slots)) - 1 }

// block is one sealed block held in memory: the header it is filed under
// in the archive, and its encoded bytes. FirstSeq, Count and RawBytes are
// live bookkeeping: an EvictTo cut advances them past a dead prefix that
// the immutable bytes still hold, and reads skip it (liveWithin). Bytes is
// len(data).
type block struct {
	archive.Ref
	data []byte
}

// New creates a Store. It panics when Options.Codec names an unknown
// codec or when the archive backend's manifest cannot be recovered — a
// deployment must not come up silently blind to its own history.
func New(opts Options) *Store {
	if opts.MaxMessages <= 0 {
		opts.MaxMessages = DefaultMaxMessages
	}
	if opts.Archive != nil && opts.Codec == "" {
		// The archive files sealed compressed blocks; attaching a
		// backend implies sealing.
		opts.Codec = "auto"
	}
	s := &Store{
		opts:    opts,
		ringMax: ceilPow2(opts.MaxMessages),
	}
	if opts.Codec != "" {
		picker, err := codec.PickerFor(opts.Codec)
		if err != nil {
			panic("store: " + err.Error())
		}
		s.picker = picker
		s.codecName = opts.Codec
		s.coldBudget = opts.ColdBudget
		if s.coldBudget <= 0 {
			s.coldBudget = DefaultColdBudget
		}
		s.blockSize = opts.BlockSize
		if s.blockSize <= 0 {
			s.blockSize = DefaultBlockSize
		}
	}
	s.names.init()
	s.decodeName = s.names.bytes
	s.shards = make([]*shard, cmp.Or(opts.shards, wire.Shards))
	for i := range s.shards {
		s.shards[i] = &shard{names: &s.names}
		s.shards[i].screen.Init(filtering.Options{})
	}
	if opts.Archive != nil {
		s.initArchive(opts)
	}
	return s
}

// ceilPow2 rounds n up to a power of two ≥ minRingSize.
func ceilPow2(n int) int {
	p := minRingSize
	for p < n {
		p <<= 1
	}
	return p
}

func (s *Store) shardFor(id wire.StreamID) *shard {
	return s.shards[id.Sensor().Shard(len(s.shards))]
}

// presentLocked reports whether ext is occupied in r.
func (r *ring) presentLocked(ext uint64) bool {
	return r.count > 0 && ext >= r.minExt && ext <= r.maxExt &&
		r.slots[ext&r.slotMask()].ext == ext
}

// Append retains one delivery and returns its extended sequence. The
// payload is copied into store-owned memory; d and its payload may be
// reused by the caller immediately. A delivery whose extended sequence
// falls below the stream's retained window is stored only while it opens
// the stream: every earlier append is still in the hot ring and the ring
// can span it. Any other (a late fill racing eviction) is assigned its
// address but not stored.
//
// d.Receiver is retained as its index in the store's name table, which
// forgets no string while the store lives: it must name one of a bounded
// set of identities (the deployment's receivers), never carry free-form
// data.
//
// Append is the unscreened write path: it neither consults nor moves the
// stream's duplicate window. Ingest is the screened one.
func (s *Store) Append(d filtering.Delivery) uint64 { return s.AppendFenced(d, nil) }

// AppendFenced is Append with a fence (see Fences) that runs, when
// non-nil, under the stream's shard lock once the StoreSeq is assigned.
func (s *Store) AppendFenced(d filtering.Delivery, fence func()) uint64 {
	sh := s.shardFor(d.Msg.Stream)
	sh.mu.Lock()
	ext := s.appendLocked(sh, sh.recordLocked(d.Msg.Stream), &d)
	if fence != nil {
		fence()
	}
	sh.mu.Unlock()
	return ext
}

// Ingest is the screened write path. It screens one reception against its
// stream's duplicate window and appends what the screen accepts, in one
// critical section under the stream's shard lock with one record lookup,
// and returns the accepted delivery stamped with its StoreSeq. ok is false
// for a duplicate or a stale copy. A borrowed payload is copied only when
// accepted. The fence (see Fences), when non-nil, runs in the same
// critical section, for an accepted copy only; the caller forwards what
// Ingest returns after it returns, with no lock held.
func (s *Store) Ingest(rc receiver.Reception, fence func()) (d filtering.Delivery, ok bool) {
	sh := s.shardFor(rc.Msg.Stream)
	sh.mu.Lock()
	r := sh.recordLocked(rc.Msg.Stream)
	if d, ok = sh.screen.IngestLocked(&r.win, &r.rest, &rc); ok {
		d.StoreSeq = s.appendLocked(sh, r, &d)
		if fence != nil {
			fence()
		}
	}
	sh.mu.Unlock()
	return d, ok
}

// ScreenStats returns Ingest's screening counters summed across shards, in
// the standalone filter's terms: ActiveStreams counts the streams Ingest
// has screened (Forget keeps their windows), Shards the store's shards.
func (s *Store) ScreenStats() filtering.Stats {
	st := filtering.Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.screen.AddStatsLocked(&st)
		sh.mu.Unlock()
	}
	return st
}

// recordLocked returns id's record, creating it on first sight. Caller
// holds sh.mu.
func (sh *shard) recordLocked(id wire.StreamID) *ring {
	r := sh.rings.get(id)
	if r == nil {
		r = sh.rings.add(id)
		r.tail = noTail
	}
	return r
}

// appendLocked is the one retention step both write paths share: it
// appends d, which it only reads, to the stream's record r. Caller holds
// sh.mu.
func (s *Store) appendLocked(sh *shard, r *ring, d *filtering.Delivery) uint64 {
	sh.appended++
	if r.slots == nil {
		// A new stream, or Forget released the ring's backing and the
		// stream resumed.
		r.slots = make([]slot, minRingSize)
	}
	sec, nsec := d.At.Unix(), int32(d.At.Nanosecond())
	if r.appended == 0 {
		r.firstSec, r.firstNsec = sec, nsec
	}
	r.latestSec, r.latestNsec = sec, nsec
	r.appended++

	// Unwrap the 16-bit wire sequence into the 64-bit address space. A
	// stream first seen through recovered archived history resumes
	// addressing where that history ends: recovery sets lastExt to the
	// archived last sequence, which the unwrap construction (ext ≡ wire
	// seq mod 2¹⁶) makes valid unwrap state.
	var ext uint64
	if r.lastExt == 0 {
		ext = extBase + uint64(d.Msg.Seq)
	} else {
		ext = uint64(int64(r.lastExt) + int64(wire.Seq(r.lastExt).Distance(d.Msg.Seq)))
	}
	r.lastExt = max(r.lastExt, ext)

	if r.count > 0 && ext < r.minExt {
		// Behind the window. A late fill that opens the stream — every
		// earlier append is still hot, none evicted, sealed, replaced,
		// dropped or forgotten — is retained while the ring can grow to
		// span it and it lies above any history recovered from the
		// archive; anything else arrived too late to keep.
		size := len(r.slots)
		for r.maxExt-ext >= uint64(size) && size < s.ringMax {
			size <<= 1
		}
		if int64(r.count) != r.appended-1 || r.maxExt-ext >= uint64(size) || ext <= r.tail.lastSealed() {
			sh.droppedBehind++
			return ext
		}
		if size > len(r.slots) {
			r.growLocked(size)
		}
		r.minExt = ext
	}

	if r.count == 0 {
		// With the hot window empty the sealed history is the window:
		// addresses at or below its end arrived behind it.
		if ext <= r.tail.lastSealed() {
			sh.droppedBehind++
			return ext
		}
		r.minExt, r.maxExt = ext, ext
	} else if ext > r.maxExt {
		// Advancing the window high end may push old entries out of the
		// ring span; grow the ring first — once, to the power of two the
		// new span needs — while the count bound allows, then evict
		// whatever still falls below the new span.
		size := len(r.slots)
		for ext-r.minExt >= uint64(size) && size < s.ringMax {
			size <<= 1
		}
		if size > len(r.slots) {
			r.growLocked(size)
		}
		if span := uint64(len(r.slots)); ext-r.minExt >= span {
			target := ext - span + 1
			for r.count > 0 && r.oldestLocked() < target {
				s.retireLowestLocked(sh, r, d.Msg.Stream, &sh.evictedCount)
			}
			if r.count > 0 && r.minExt < target {
				r.minExt = target
			}
		}
		if r.count == 0 {
			r.minExt = ext
		}
		r.maxExt = ext
	} else if e := &r.slots[ext&r.slotMask()]; e.ext == ext {
		// Inside the window the address may be a gap to fill or, here,
		// one already retained (the filter screens duplicates out
		// upstream; be idempotent anyway): replace it — the slot is
		// emptied here and refilled below — and credit Duplicates so
		// Appended − losses still reconciles with the retained gauge.
		sh.duplicates++
		sh.retainedBytes -= r.vacateLocked(e)
		sh.retainedMessages--
	}

	// The slot is packed field by field, and marked occupied last: making
	// room in the arena may compact it, which must not take this slot for
	// a payload it does not yet name.
	if d.Receiver != sh.lastRx {
		sh.lastRxIdx = sh.names.index(d.Receiver)
		sh.lastRx = d.Receiver // the caller's copy: its next hit compares pointers
	}
	p := d.Msg.Payload
	e := &r.slots[ext&r.slotMask()]
	*e = slot{
		sec: sec, nsec: nsec, rssi: d.RSSI,
		size: uint32(len(p)), rx: sh.lastRxIdx, ack: d.Msg.AckID,
		flags: d.Msg.Flags, hop: d.Msg.HopCount, fused: d.Msg.FusedCount,
	}
	if len(p) <= inlinePayload {
		copy(e.small[:], p)
	} else {
		t := r.reserveLocked(sh, len(p))
		e.setOff(len(t.arena))
		t.arena = append(t.arena, p...)
		t.held += int64(len(p))
	}
	e.ext = ext
	r.count++
	r.bytes += int64(len(p))
	sh.retainedMessages++
	sh.retainedBytes += int64(len(p))

	// Retention bounds, oldest-first. The newest entry always survives.
	// With compression enabled these retirements seal instead of
	// dropping, so the hot bounds govern only the uncompressed working
	// set.
	for int(r.count) > s.opts.MaxMessages {
		s.retireLowestLocked(sh, r, d.Msg.Stream, &sh.evictedCount)
	}
	if s.opts.MaxBytes > 0 {
		for r.bytes > s.opts.MaxBytes && r.count > 1 {
			s.retireLowestLocked(sh, r, d.Msg.Stream, &sh.evictedBytes)
		}
	}
	if s.opts.MaxAge > 0 {
		cutoff := d.At.Add(-s.opts.MaxAge)
		for r.count > 1 {
			old := &r.slots[r.oldestLocked()&r.slotMask()]
			if !old.at().Before(cutoff) {
				break
			}
			s.retireLowestLocked(sh, r, d.Msg.Stream, &sh.evictedAge)
		}
	}
	r.trimArenaLocked(sh)
	return ext
}

// growLocked widens the ring to size slots and re-homes retained entries
// (extended sequences are stable; only the slot mapping changes). Caller
// holds mu.
func (r *ring) growLocked(size int) {
	old := r.slots
	r.slots = make([]slot, size)
	for i := range old {
		if e := &old[i]; e.ext != 0 {
			r.slots[e.ext&r.slotMask()] = *e
		}
	}
}

// reserveLocked makes room for n more payload bytes at the end of the
// arena, in the ring's own tail, which it returns. A full arena is
// compacted — into the same array while that leaves a quarter of it free,
// so a ring at its bound recycles one array for ever, whatever its
// payloads' size; else into a new one with room for the live bytes twice
// over. Caller holds mu.
func (r *ring) reserveLocked(sh *shard, n int) *tail {
	t := r.ownTail()
	t.largest = max(t.largest, uint32(n))
	switch live := int(t.held); {
	case len(t.arena)+n <= cap(t.arena):
	case 4*(live+n) > 3*cap(t.arena):
		r.packLocked(sh, make([]byte, 2*live+n))
	default:
		r.packLocked(sh, t.arena[:cap(t.arena)])
	}
	return t
}

// trimArenaLocked gives back arena capacity the window and the stage have
// shrunk away from, which bounds it on every path: cap(arena) ≤
// 2·(held + sealedArena) + largest + arenaSlack once an append or
// eviction returns. noTail never trims: its arena has no capacity. Caller
// holds mu.
func (r *ring) trimArenaLocked(sh *shard) {
	t := r.tail
	if want := 2 * (int(t.held) + int(t.sealedArena)); cap(t.arena) > want+int(t.largest)+arenaSlack {
		r.packLocked(sh, make([]byte, want))
	}
}

// packLocked moves the payloads the ring holds in its arena — the staged
// ones, which are the oldest, then the hot ones — to the front of dst,
// which becomes the arena and may be the arena's own array: each payload
// is moved once, lowest offset first, so a move never lands on bytes
// still to be moved. Payloads lie in arrival order, which is stage order
// then slot order from the window's low end unless a late fill or a
// replacement arrived out of sequence; only then is there anything to
// sort. The order lists hot slot i as i and staged slot k as ^k. The ring
// owns its tail. Caller holds mu.
func (r *ring) packLocked(sh *shard, dst []byte) {
	t := r.tail
	at := func(i int32) *slot {
		if i < 0 {
			return &t.stage[^i]
		}
		return &r.slots[i]
	}
	order, mask := sh.packOrder[:0], r.slotMask()
	last, sorted := 0, true
	for k := range t.stage {
		if e := &t.stage[k]; e.size > inlinePayload {
			order = append(order, ^int32(k))
			sorted = sorted && e.off() >= last
			last = e.off()
		}
	}
	for k := range r.slots {
		i := (r.minExt + uint64(k)) & mask
		if e := &r.slots[i]; e.ext != 0 && e.size > inlinePayload {
			order = append(order, int32(i))
			sorted = sorted && e.off() >= last
			last = e.off()
		}
	}
	if !sorted {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(at(a).off(), at(b).off()) })
	}
	n := 0
	for _, i := range order {
		e := at(i)
		p := r.payloadLocked(e)
		e.setOff(n)
		n += copy(dst[n:], p)
	}
	sh.packOrder, t.arena = order, dst[:n]
}

// oldestLocked returns the lowest occupied extended sequence. It never
// mutates the window: minExt moves only on eviction and on a fill that
// opens the stream, so read queries can never change a later append's
// behind-window decision. Caller holds mu; r.count must be > 0.
func (r *ring) oldestLocked() uint64 {
	ext := r.minExt
	for !r.presentLocked(ext) {
		ext++
	}
	return ext
}

// retireLowestLocked removes the oldest entry from the hot ring: with
// compression off it is evicted outright and credited to *reason; with
// compression on it is sealed and stays retained, so no eviction counter
// moves. Caller holds mu.
func (s *Store) retireLowestLocked(sh *shard, r *ring, id wire.StreamID, reason *int64) {
	if s.picker == nil {
		sh.dropLowestLocked(r, reason)
		return
	}
	s.sealLowestLocked(sh, r, id)
}

// dropLowestLocked removes the oldest retained hot entry, crediting the
// eviction to *reason. Caller holds mu.
func (sh *shard) dropLowestLocked(r *ring, reason *int64) {
	ext := r.oldestLocked()
	sh.retainedBytes -= r.vacateLocked(&r.slots[ext&r.slotMask()])
	sh.retainedMessages--
	*reason++
	r.minExt = ext + 1
	if r.count == 0 {
		r.minExt, r.maxExt = 0, 0
	}
}

// sealLowestLocked moves the oldest hot entry into the seal stage by
// copying its slot; a payload in the arena stays there, still held. A
// full stage seals into one compressed block. The entry stays retained
// throughout — the shard's retained counts do not move. Caller holds mu.
func (s *Store) sealLowestLocked(sh *shard, r *ring, id wire.StreamID) {
	t := r.ownTail()
	if t.stage == nil {
		t.stage = make([]slot, 0, s.blockSize)
	}
	ext := r.oldestLocked()
	e := &r.slots[ext&r.slotMask()]
	t.stage = append(t.stage, *e)
	r.bytes -= int64(e.size)
	e.ext = 0
	r.count--
	r.minExt = ext + 1
	if r.count == 0 {
		r.minExt, r.maxExt = 0, 0
	}
	if len(t.stage) == cap(t.stage) {
		s.sealStageLocked(sh, r, id)
	}
}

// sealStageLocked encodes the staged entries into one immutable block
// (into a recycled buffer when one is parked), unpacking them for the
// codec into pooled scratch, which it clears after so the pool holds no
// payload. Their arena bytes go dead. With an archive the block is filed
// in the backend at once; without one it joins the cold list, whose
// per-stream budget drops the oldest blocks past it. Caller holds mu.
func (s *Store) sealStageLocked(sh *shard, r *ring, id wire.StreamID) {
	t := r.tail
	ds := decodePool.Get().(*decodeScratch)
	entries, held := ds.entries[:0], t.held
	var raw int64
	for i := range t.stage {
		entries = append(entries, sh.deliveryLocked(r, id, &t.stage[i]))
		raw += t.release(&t.stage[i])
	}
	t.sealedArena = uint32(held - t.held)
	c := s.picker(entries)
	data := c.Encode(sh.blockBufLocked(), entries)
	last := &entries[len(entries)-1]
	b := block{
		Ref: archive.Ref{
			Codec: c.ID(), FirstSeq: entries[0].StoreSeq, LastSeq: last.StoreSeq,
			Count: int32(len(entries)), RawBytes: raw, Bytes: int64(len(data)),
			LastUnix: last.At.UnixNano(),
		},
		data: data,
	}
	clear(entries)
	ds.entries = entries[:0]
	decodePool.Put(ds)
	sh.sealedBlocks++
	sh.sealedMsgs += int64(len(t.stage))
	t.stage = t.stage[:0]
	if s.arch != nil {
		s.spillLocked(sh, t, id, b)
		return
	}
	t.blocks = append(t.blocks, b)
	t.blockBytes += b.Bytes
	for len(t.blocks) > 1 && t.blockBytes > s.coldBudget {
		sh.dropBlockLocked(t, &sh.evictedCold)
	}
}

// popHead removes and returns the first element of *list, keeping the
// capacity for reuse.
func popHead[T any](list *[]T) T {
	l := *list
	head := l[0]
	n := copy(l, l[1:])
	var zero T
	l[n] = zero
	*list = l[:n]
	return head
}

// dropBlockLocked drops the oldest cold block, crediting its live entries
// to *reason and recycling its buffer. Caller holds mu.
func (sh *shard) dropBlockLocked(t *tail, reason *int64) {
	b := popHead(&t.blocks)
	t.blockBytes -= b.Bytes
	sh.retainedMessages -= int64(b.Count)
	sh.retainedBytes -= b.RawBytes
	*reason += int64(b.Count)
	sh.recycleBufLocked(b.data)
}

// dropStagePrefixLocked drops the first k staged entries, crediting
// *reason per entry; their arena bytes go dead. Caller holds mu.
func (sh *shard) dropStagePrefixLocked(t *tail, k int, reason *int64) {
	if k <= 0 {
		return
	}
	var freed int64
	for i := range t.stage[:k] {
		freed += t.release(&t.stage[i])
	}
	sh.retainedMessages -= int64(k)
	sh.retainedBytes -= freed
	*reason += int64(k)
	t.stage = t.stage[:copy(t.stage, t.stage[k:])]
}

// evictToLocked drops every retained entry below upto, oldest first down
// all four tiers, crediting *reason per entry. A block that straddles
// upto, archived or cold, keeps its bytes: only its live bookkeeping
// advances past the dead prefix (cutHeadLocked). Caller holds mu.
func (s *Store) evictToLocked(sh *shard, r *ring, id wire.StreamID, upto uint64, reason *int64) {
	t := r.tail
	for len(t.refs) > 0 && t.refs[0].FirstSeq < upto {
		if t.refs[0].LastSeq >= upto {
			if cut, raw, ok := s.cutHeadLocked(id, &t.refs[0], nil, upto); ok {
				sh.archivedMsgs -= int64(cut)
				sh.archivedRaw -= raw
				*reason += int64(cut)
				break
			}
		}
		sh.dropRefLocked(t, reason)
	}
	for len(t.blocks) > 0 && t.blocks[0].FirstSeq < upto {
		if b := &t.blocks[0]; b.LastSeq >= upto {
			if cut, raw, ok := s.cutHeadLocked(id, &b.Ref, b.data, upto); ok {
				sh.retainedMessages -= int64(cut)
				sh.retainedBytes -= raw
				*reason += int64(cut)
				break
			}
		}
		sh.dropBlockLocked(t, reason)
	}
	k := 0
	for k < len(t.stage) && t.stage[k].ext < upto {
		k++
	}
	sh.dropStagePrefixLocked(t, k, reason)
	for r.count > 0 && r.oldestLocked() < upto {
		sh.dropLowestLocked(r, reason)
	}
}

// cutHeadLocked advances a sealed block's live bookkeeping past its
// entries below upto and returns how many live entries and payload bytes
// the cut took. The block is decoded once — from data, or from the
// backend when data is nil — to count them exactly; its bytes are
// immutable and stay as they are. ok is false when the block fails to
// decode or nothing in it survives: the caller drops it whole. Caller
// holds mu, or owns the store (recovery).
func (s *Store) cutHeadLocked(id wire.StreamID, ref *archive.Ref, data []byte, upto uint64) (cut int, raw int64, ok bool) {
	ds := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(ds)
	ds.entries, ok = s.decodeLocked(id, ref, data, ds.entries[:0], ds)
	if !ok {
		return 0, 0, false
	}
	for i := range ds.entries {
		seq := ds.entries[i].StoreSeq
		if seq < ref.FirstSeq {
			continue
		}
		if seq >= upto {
			ref.FirstSeq = seq
			ref.Count -= int32(cut)
			ref.RawBytes -= raw
			return cut, raw, true
		}
		cut++
		raw += int64(len(ds.entries[i].Msg.Payload))
	}
	return 0, 0, false
}

// lastSealed returns the highest sealed sequence — on the cold list, else
// archived — or 0 when the stream has none.
func (t *tail) lastSealed() uint64 {
	if n := len(t.blocks); n > 0 {
		return t.blocks[n-1].LastSeq
	}
	if n := len(t.refs); n > 0 {
		return t.refs[n-1].LastSeq
	}
	return 0
}

// firstLocked returns the lowest retained sequence in any tier, 0 when
// the stream holds nothing. Caller holds mu.
func (r *ring) firstLocked() uint64 {
	switch t := r.tail; {
	case len(t.refs) > 0:
		return t.refs[0].FirstSeq
	case len(t.blocks) > 0:
		return t.blocks[0].FirstSeq
	case len(t.stage) > 0:
		return t.stage[0].ext
	case r.count > 0:
		return r.oldestLocked()
	}
	return 0
}

// holds reports whether the stream retains anything in any tier.
func (r *ring) holds() bool {
	t := r.tail
	return r.count > 0 || len(t.stage) > 0 || len(t.blocks) > 0 || len(t.refs) > 0
}

// LastSeq returns the highest extended sequence ever assigned on the
// stream (retained or not); ok is false when the store has never seen it.
// A stream known only through recovered archived history answers from
// the archive's end.
func (s *Store) LastSeq(id wire.StreamID) (uint64, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rings.get(id)
	if r == nil || r.lastExt == 0 {
		return 0, false
	}
	return r.lastExt, true
}

// OldestSince returns the extended sequence and payload size of the first
// retained entry at or after from, in any tier.
func (s *Store) OldestSince(id wire.StreamID, from uint64) (seq uint64, size int, ok bool) {
	s.RangeFunc(id, from, ^uint64(0), func(d filtering.Delivery) bool {
		seq, size, ok = d.StoreSeq, len(d.Msg.Payload), true
		return false
	})
	return seq, size, ok
}

// decodeScratch is the pooled working memory for decompressing one
// sealed block on the read path; sealing borrows its entries to unpack a
// stage into.
type decodeScratch struct {
	sc      codec.Scratch
	entries []filtering.Delivery
	buf     []byte // archive block read buffer
}

var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// walkLocked presents the stream's retained history that intersects
// [from, to] in ascending sequence order: the sealed blocks — archived
// or cold — then the stage and hot-ring entries one by one. It is the
// one place that knows the tier order; every range read drives it. A
// block is handed over whole, its header and its bytes (nil for an
// archived block, whose bytes the backend holds under ref.LastSeq): the
// header says it intersects, not which entries do. An entry's payload is
// borrowed store memory (a staged or hot slot is unpacked for the call).
// Either callback returning false stops the walk. Caller holds mu.
func (sh *shard) walkLocked(id wire.StreamID, from, to uint64, blockFn func(ref *archive.Ref, data []byte) bool, entry func(d filtering.Delivery) bool) {
	r := sh.rings.get(id)
	if r == nil {
		return
	}
	t := r.tail
	// A long-lived stream holds many archived blocks and a read walks
	// them twice (size, then decode): skip to the window by search.
	first := sort.Search(len(t.refs), func(i int) bool { return t.refs[i].LastSeq >= from })
	for i := first; i < len(t.refs); i++ {
		if t.refs[i].FirstSeq > to || !blockFn(&t.refs[i], nil) {
			return
		}
	}
	for i := range t.blocks {
		b := &t.blocks[i]
		if b.LastSeq < from {
			continue
		}
		if b.FirstSeq > to || !blockFn(&b.Ref, b.data) {
			return
		}
	}
	for i := range t.stage {
		e := &t.stage[i]
		if e.ext < from {
			continue
		}
		if e.ext > to || !entry(sh.deliveryLocked(r, id, e)) {
			return
		}
	}
	if r.count == 0 {
		return
	}
	lo, hi := max(from, r.oldestLocked()), min(to, r.maxExt)
	for ext := lo; ext <= hi; ext++ {
		if r.presentLocked(ext) && !entry(sh.deliveryLocked(r, id, &r.slots[ext&r.slotMask()])) {
			return
		}
	}
}

// decodeLocked appends a sealed block's physical entries to dst, payload
// bytes going to ds.sc; an archived block (data nil) is first read from
// the backend into ds.buf. A block that fails to open or decode — which
// would take corruption: the store sealed it and recovery already dropped
// torn tails — leaves dst as it was and reports false.
func (s *Store) decodeLocked(id wire.StreamID, ref *archive.Ref, data []byte, dst []filtering.Delivery, ds *decodeScratch) ([]filtering.Delivery, bool) {
	c, ok := codec.ByID(ref.Codec)
	if !ok {
		return dst, false
	}
	n := len(dst)
	var err error
	if data == nil {
		ds.buf, err = s.arch.backend.Open(ds.buf[:0], id, ref.LastSeq)
		data = ds.buf
	}
	if err == nil {
		ds.sc.Receiver = s.decodeName
		dst, err = c.Decode(dst, id, data, &ds.sc)
		ds.sc.Receiver = nil // a pooled scratch must not keep this store's table alive
	}
	if err != nil {
		clear(dst[n:])
		return dst[:n], false
	}
	return dst, true
}

// readLocked is decodeLocked for a read, which skips a block that fails
// rather than fail: an archived block's fetch is timed and its entries
// counted as read amplification. Caller holds mu.
func (s *Store) readLocked(sh *shard, id wire.StreamID, ref *archive.Ref, data []byte, dst []filtering.Delivery, ds *decodeScratch) []filtering.Delivery {
	if data != nil {
		dst, _ = s.decodeLocked(id, ref, data, dst, ds)
		return dst
	}
	n, start := len(dst), time.Now()
	dst, ok := s.decodeLocked(id, ref, nil, dst, ds)
	s.arch.readLat.ObserveDuration(time.Since(start))
	if ok {
		sh.archiveReadMsgs += int64(len(dst) - n)
	}
	return dst
}

// liveWithin returns the sub-slice of a decoded block's entries that are
// live (at or above its header's firstSeq) and inside [from, to].
func liveWithin(entries []filtering.Delivery, firstSeq, from, to uint64) []filtering.Delivery {
	from = max(from, firstSeq)
	i, j := 0, len(entries)
	for i < j && entries[i].StoreSeq < from {
		i++
	}
	for j > i && entries[j-1].StoreSeq > to {
		j--
	}
	return entries[i:j]
}

// visitBlockLocked decodes one block into pooled scratch and visits its
// live entries within [from, to], returning false when fn stopped the
// walk. The visited deliveries borrow the scratch, valid only during fn
// — the borrow contract RangeFunc imposes. Caller holds mu.
func (s *Store) visitBlockLocked(sh *shard, id wire.StreamID, ref *archive.Ref, data []byte, from, to uint64, fn func(d filtering.Delivery) bool) bool {
	ds := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(ds)
	ds.entries = s.readLocked(sh, id, ref, data, ds.entries[:0], ds)
	for _, d := range liveWithin(ds.entries, ref.FirstSeq, from, to) {
		if !fn(d) {
			return false
		}
	}
	return true
}

// Range returns the retained deliveries with extended sequences in
// [from, to], ascending. The result is the caller's: no delivery or
// payload in it aliases store or pooled memory, so it is safe to hold
// indefinitely, to mutate, and to hand on (SubscribeWithReplay's port
// adopts it). All its payloads share one allocation, so keeping one
// payload alive keeps the read's payload bytes alive.
//
// Replayed history — from Range or any other read — carries At as the
// instant of reception: Equal to what was appended, in the local
// location, without the monotonic reading. The hot ring keeps every
// instant a time.Time can hold; sealed and archived blocks keep those
// UnixNano can (years 1678 to 2262).
//
// A read is one pass with one allocation of each kind. Every sealed
// block's header carries its entry count and payload bytes, so the walk
// first sums what intersects [from, to] — headers only, plus the stage
// and hot entries themselves — sizes the result once and allocates one
// payload slab; then each block decodes straight into its tail with its
// payload bytes appended to the slab, and the stage and hot entries are
// copied in behind them. A block is decoded whole and the entries
// outside the window trimmed in place, so the backing array may be grown
// by up to two blocks more than the result holds. Should a header understate (a
// retention cut leaves a block's dead prefix in its bytes), append
// moves the overflow to a private array; nothing is lost.
func (s *Store) Range(id wire.StreamID, from, to uint64) []filtering.Delivery {
	return s.RangeFenced(id, from, to, nil)
}

// RangeFenced is Range with a fence (see Fences) that runs, when non-nil,
// under the stream's shard lock before the read, in the same critical
// section: no append on the stream falls between the two.
func (s *Store) RangeFenced(id wire.StreamID, from, to uint64, fence func()) []filtering.Delivery {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fence != nil {
		fence()
	}

	var count int
	var raw int64
	sh.walkLocked(id, from, to,
		func(ref *archive.Ref, _ []byte) bool {
			count += int(ref.Count)
			raw += ref.RawBytes
			return true
		},
		func(d filtering.Delivery) bool {
			count++
			raw += int64(len(d.Msg.Payload))
			return true
		})
	if count == 0 {
		return nil
	}
	dst := slices.Grow([]filtering.Delivery(nil), count)
	slab := make([]byte, 0, raw)

	ds := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(ds)
	sh.walkLocked(id, from, to,
		func(ref *archive.Ref, data []byte) bool {
			n := len(dst)
			ds.sc.Attach(slab)
			dst = s.readLocked(sh, id, ref, data, dst, ds)
			slab = ds.sc.Detach()
			block := dst[n:]
			kept := copy(block, liveWithin(block, ref.FirstSeq, from, to))
			clear(block[kept:])
			dst = dst[:n+kept]
			return true
		},
		func(d filtering.Delivery) bool {
			p := d.Msg.Payload
			d.Msg.Payload = nil
			if len(p) > 0 {
				slab = append(slab, p...)
				d.Msg.Payload = slab[len(slab)-len(p) : len(slab) : len(slab)]
			}
			dst = append(dst, d)
			return true
		})
	return dst
}

// RangeFunc visits retained deliveries with extended sequences in
// [from, to] ascending, stopping early when fn returns false. Sealed
// blocks are stitched in transparently, decompressed lazily into pooled
// scratch one block at a time. The visited deliveries borrow store
// memory: they are valid only during the fn call, which runs under the
// stream's shard lock — fn must not call back into the Store and must
// copy anything it keeps.
func (s *Store) RangeFunc(id wire.StreamID, from, to uint64, fn func(d filtering.Delivery) bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.walkLocked(id, from, to,
		func(ref *archive.Ref, data []byte) bool { return s.visitBlockLocked(sh, id, ref, data, from, to, fn) },
		fn)
}

// WindowStats returns the number of retained deliveries and their total
// payload bytes with extended sequences in [from, to] — what a replay of
// that window would materialise. Policy views (the Orphanage) report
// their backlog from this truth so byte/age eviction inside a window can
// never make the view overstate what a claim will return. Sealed blocks
// wholly inside the window are summed from their headers without
// decompressing; only the boundary blocks decode.
func (s *Store) WindowStats(id wire.StreamID, from, to uint64) (count int, bytes int64) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	acc := func(d filtering.Delivery) bool {
		count++
		bytes += int64(len(d.Msg.Payload))
		return true
	}
	sh.walkLocked(id, from, to,
		func(ref *archive.Ref, data []byte) bool {
			if ref.FirstSeq >= from && ref.LastSeq <= to {
				count += int(ref.Count)
				bytes += ref.RawBytes
				return true
			}
			return s.visitBlockLocked(sh, id, ref, data, from, to, acc)
		},
		acc)
	return count, bytes
}

// Latest returns a copy of the newest retained delivery on the stream.
func (s *Store) Latest(id wire.StreamID) (filtering.Delivery, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rings.get(id)
	if r == nil || r.count == 0 {
		return filtering.Delivery{}, false
	}
	d := sh.deliveryLocked(r, id, &r.slots[r.maxExt&r.slotMask()])
	d.Msg.Payload = append([]byte(nil), d.Msg.Payload...)
	return d, true
}

// EvictTo drops retained deliveries with extended sequences below upto,
// returning how many were dropped (credited to Stats.Forgotten). No
// production path calls it yet: the Orphanage moves a cursor instead, and
// the idle-age retirement policy (ROADMAP item 6) is to be its first
// caller. Sealed blocks wholly below upto are dropped by header; a block
// straddling the boundary keeps its immutable bytes and has its live
// bookkeeping advanced past the dead prefix, which reads skip.
func (s *Store) EvictTo(id wire.StreamID, upto uint64) int {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rings.get(id)
	if r == nil {
		return 0
	}
	before := sh.forgotten
	t := r.tail
	durable := len(t.refs) > 0
	s.evictToLocked(sh, r, id, upto, &sh.forgotten)
	if durable && upto > t.floor {
		// Persist the cut: the backend deletes the blocks wholly below
		// it, and recovery hides the dead prefix of a block it cuts into.
		t.floor = upto
		s.arch.backend.DeleteBefore(id, upto)
	}
	r.trimArenaLocked(sh)
	return int(sh.forgotten - before)
}

// Forget drops every retained delivery on the stream — every tier,
// credited to Stats.Forgotten, and the backend's state for it — while
// keeping its sequence-unwrap state, so addresses never move backwards if
// the stream resumes. The Orphanage calls this when it evicts an
// unclaimed stream, so Forget is the moment a dead stream's memory must
// actually return to the heap: the slot ring and the tail — payload
// arena, seal stage, cold list and archived refs — are released, not
// just emptied, leaving only the ring header behind the unwrap state and
// the duplicate window, which a deployment has never reset either. A
// resumed stream re-materialises its ring in appendLocked and is screened
// against what it sent before.
func (s *Store) Forget(id wire.StreamID) int {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rings.get(id)
	if r == nil {
		return 0
	}
	before := sh.forgotten
	durable := len(r.tail.refs) > 0 || r.tail.floor > 0
	s.evictToLocked(sh, r, id, ^uint64(0), &sh.forgotten)
	if durable {
		s.arch.backend.Forget(id)
	}
	r.slots, r.tail = nil, noTail
	return int(sh.forgotten - before)
}

// Streams lists the ids of every stream holding at least one delivery in
// any tier, archive included, sorted.
func (s *Store) Streams() []wire.StreamID {
	var out []wire.StreamID
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, r := range sh.rings.all() {
			if r.holds() {
				out = append(out, id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StreamAppends is one stream's append history: how many deliveries were
// appended to it and the At of the first and the latest, counted whether
// or not the retained window kept them — behind-window fills included —
// and kept across Forget. The times are the appended instants (Equal, not
// ==) without location or monotonic reading, as reads return them.
type StreamAppends struct {
	Stream        wire.StreamID
	Count         int64
	First, Latest time.Time
}

// Appended lists the append history of every stream appended to since
// the store was created, sorted by stream. Streams known only from a
// recovered archive have none and are not listed.
func (s *Store) Appended() []StreamAppends {
	var out []StreamAppends
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, r := range sh.rings.all() {
			if r.appended == 0 {
				continue
			}
			out = append(out, StreamAppends{
				Stream: id, Count: r.appended,
				First:  time.Unix(r.firstSec, int64(r.firstNsec)),
				Latest: time.Unix(r.latestSec, int64(r.latestNsec)),
			})
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b StreamAppends) int { return cmp.Compare(a.Stream, b.Stream) })
	return out
}

// StreamStats returns the retained-window description for one stream; ok
// is false when the store has never seen it.
func (s *Store) StreamStats(id wire.StreamID) (StreamStats, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rings.get(id)
	if r == nil {
		return StreamStats{}, false
	}
	t := r.tail
	st := StreamStats{
		Stream:         id,
		FirstSeq:       r.firstLocked(),
		NextWire:       wire.Seq(r.lastExt) + 1,
		Count:          int(r.count) + len(t.stage),
		Bytes:          r.bytes,
		ColdBlocks:     len(t.blocks),
		ColdBytes:      t.blockBytes,
		ArchivedBlocks: len(t.refs),
		ArchiveFloor:   t.floor,
	}
	for i := range t.stage {
		st.Bytes += int64(t.stage[i].size)
	}
	for i := range t.blocks {
		st.ColdMessages += int(t.blocks[i].Count)
		st.ColdRawBytes += t.blocks[i].RawBytes
	}
	st.Count += st.ColdMessages
	st.Bytes += st.ColdRawBytes
	for i := range t.refs {
		st.ArchivedMessages += int(t.refs[i].Count)
		st.ArchivedBytes += t.refs[i].Bytes
		st.ArchivedRawBytes += t.refs[i].RawBytes
	}
	if r.count > 0 {
		st.LastSeq = r.maxExt
	} else {
		st.LastSeq = t.lastSealed()
	}
	var newest *archive.Ref
	if n := len(t.blocks); n > 0 {
		newest = &t.blocks[n-1].Ref
	} else if n := len(t.refs); n > 0 {
		newest = &t.refs[n-1]
	}
	if newest != nil {
		if c, ok := codec.ByID(newest.Codec); ok {
			st.Codec = c.Name()
		}
	}
	const (
		headerSize = int64(unsafe.Sizeof(ring{}))
		slotSize   = int64(unsafe.Sizeof(slot{}))
		tailSize   = int64(unsafe.Sizeof(tail{}))
		blockSize  = int64(unsafe.Sizeof(block{}))
		refSize    = int64(unsafe.Sizeof(archive.Ref{}))
	)
	st.ResidentBytes = headerSize + int64(cap(r.slots))*slotSize
	if t != noTail {
		st.ResidentBytes += tailSize + int64(cap(t.arena)) +
			int64(cap(t.stage))*slotSize +
			int64(cap(t.blocks))*blockSize + t.blockBytes +
			int64(cap(t.refs))*refSize
	}
	return st, true
}

// Stats returns an aggregate snapshot summed across shards. Counters and
// gauges for one shard are read under its lock together, so a snapshot
// taken while appenders run still satisfies Stats.Check — gauges
// read after the lock drops could have moved past the counters they must
// reconcile with.
func (s *Store) Stats() Stats {
	st := Stats{Shards: len(s.shards), Codec: s.codecName}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Appended += sh.appended
		st.Duplicates += sh.duplicates
		st.DroppedBehind += sh.droppedBehind
		st.EvictedCount += sh.evictedCount
		st.EvictedBytes += sh.evictedBytes
		st.EvictedAge += sh.evictedAge
		st.EvictedCold += sh.evictedCold
		st.Forgotten += sh.forgotten
		st.SealedBlocks += sh.sealedBlocks
		st.SealedMessages += sh.sealedMsgs
		for _, r := range sh.rings.all() {
			if r.holds() {
				st.Streams++
			}
			st.ColdBlocks += len(r.tail.blocks)
			st.ColdBytes += r.tail.blockBytes
			for i := range r.tail.blocks {
				st.ColdRawBytes += r.tail.blocks[i].RawBytes
			}
		}
		st.RetainedMessages += sh.retainedMessages
		st.RetainedBytes += sh.retainedBytes
		st.EvictedArchive += sh.evictedArchive
		st.ArchiveFailed += sh.archiveFailed
		st.ArchiveRecovered += sh.archiveRecovered
		st.ArchiveReadMessages += sh.archiveReadMsgs
		st.ArchivedBlocks += sh.archivedBlocks
		st.ArchivedMessages += sh.archivedMsgs
		st.ArchivedBytes += sh.archivedBytes
		st.ArchivedRawBytes += sh.archivedRaw
		sh.mu.Unlock()
	}
	if s.arch != nil {
		if s.arch.writeLat.Count() > 0 {
			st.ArchiveWriteP50Ms = s.arch.writeLat.Percentile(50)
			st.ArchiveWriteP99Ms = s.arch.writeLat.Percentile(99)
		}
		if s.arch.readLat.Count() > 0 {
			st.ArchiveReadP50Ms = s.arch.readLat.Percentile(50)
			st.ArchiveReadP99Ms = s.arch.readLat.Percentile(99)
		}
	}
	return st
}
