package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"github.com/garnet-middleware/garnet/internal/store/codec"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Errors the package's backends return. ErrCorrupt wraps every
// integrity failure (manifest or block bytes that fail their CRC or
// frame bounds), mirroring the codec package's corruption contract:
// arbitrary on-disk bytes must surface as an error, never a panic.
var (
	ErrNotFound = errors.New("archive: block not found")
	ErrCorrupt  = errors.New("archive: corrupt")
)

var errClosed = errors.New("archive: backend closed")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// FSShards is the filesystem backend's fixed shard count: streams hash
// onto FSShards segment/manifest file pairs with the same Fibonacci
// partition the store uses. It is a property of the on-disk layout, not
// of the store reading it — a deployment may restart with a different
// store shard count and still recover every stream.
const FSShards = 16

// Manifest record kinds. Persisted on disk — never renumber.
const (
	recAdd    = 1 // one block appended: ref + segment extent + data CRC
	recFloor  = 2 // retention floor advanced (DeleteBefore)
	recForget = 3 // stream dropped entirely
)

// Manifest record sizes by kind, including the 4-byte CRC frame.
const (
	recHeader    = 4 + 1 + 4 // crc32 | kind | stream
	recAddLen    = recHeader + 1 + 8 + 8 + 4 + 8 + 8 + 8 + 4 + 4
	recFloorLen  = recHeader + 8
	recForgetLen = recHeader
)

// manifestRec is one decoded manifest record.
type manifestRec struct {
	kind   uint8
	stream wire.StreamID

	// recAdd fields.
	ref     Ref
	off     int64
	dataCRC uint32

	// recFloor field.
	floor uint64
}

// appendManifestRec encodes rec onto dst, CRC-framed.
func appendManifestRec(dst []byte, rec *manifestRec) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, rec.kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.stream))
	switch rec.kind {
	case recAdd:
		dst = append(dst, byte(rec.ref.Codec))
		dst = binary.LittleEndian.AppendUint64(dst, rec.ref.FirstSeq)
		dst = binary.LittleEndian.AppendUint64(dst, rec.ref.LastSeq)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.ref.Count))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.ref.RawBytes))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.ref.LastUnix))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.off))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.ref.Bytes))
		dst = binary.LittleEndian.AppendUint32(dst, rec.dataCRC)
	case recFloor:
		dst = binary.LittleEndian.AppendUint64(dst, rec.floor)
	}
	crc := crc32.ChecksumIEEE(dst[start+4:])
	binary.LittleEndian.PutUint32(dst[start:], crc)
	return dst
}

// decodeManifestRec decodes the record at the head of b, returning the
// bytes it consumed. Errors mean the tail of the manifest is torn or
// corrupt; the caller stops there. It never panics on arbitrary input —
// the fuzz target pins this.
func decodeManifestRec(b []byte) (rec manifestRec, n int, err error) {
	if len(b) < recHeader {
		return rec, 0, corruptf("manifest: %d trailing bytes, need %d for a record header", len(b), recHeader)
	}
	rec.kind = b[4]
	switch rec.kind {
	case recAdd:
		n = recAddLen
	case recFloor:
		n = recFloorLen
	case recForget:
		n = recForgetLen
	default:
		return rec, 0, corruptf("manifest: unknown record kind %d", rec.kind)
	}
	if len(b) < n {
		return rec, 0, corruptf("manifest: torn record: have %d bytes of %d", len(b), n)
	}
	if got, want := crc32.ChecksumIEEE(b[4:n]), binary.LittleEndian.Uint32(b); got != want {
		return rec, 0, corruptf("manifest: record crc mismatch: %08x != %08x", got, want)
	}
	rec.stream = wire.StreamID(binary.LittleEndian.Uint32(b[5:]))
	switch rec.kind {
	case recAdd:
		rec.ref.Codec = codec.ID(b[9])
		rec.ref.FirstSeq = binary.LittleEndian.Uint64(b[10:])
		rec.ref.LastSeq = binary.LittleEndian.Uint64(b[18:])
		rec.ref.Count = int32(binary.LittleEndian.Uint32(b[26:]))
		rec.ref.RawBytes = int64(binary.LittleEndian.Uint64(b[30:]))
		rec.ref.LastUnix = int64(binary.LittleEndian.Uint64(b[38:]))
		rec.off = int64(binary.LittleEndian.Uint64(b[46:]))
		rec.ref.Bytes = int64(binary.LittleEndian.Uint32(b[54:]))
		rec.dataCRC = binary.LittleEndian.Uint32(b[58:])
		if rec.ref.Count < 0 || rec.ref.RawBytes < 0 || rec.off < 0 ||
			rec.ref.LastSeq < rec.ref.FirstSeq {
			return rec, 0, corruptf("manifest: add record fields out of range")
		}
	case recFloor:
		rec.floor = binary.LittleEndian.Uint64(b[9:])
	}
	return rec, n, nil
}

// FS is the filesystem reference backend: sealed blocks land verbatim
// (the codec package's block wire format) in per-shard append-only
// segment files, and every mutation appends a CRC-framed record to the
// shard's manifest. The manifest is the single source of truth: a block
// exists iff its add-record is intact and its segment extent is whole,
// so recovery after a crash mid-spill truncates to the last complete
// block — a torn segment or manifest tail can only lose the newest
// blocks, never tear a hole in the middle of history.
//
// Writes go to the OS page cache (no fsync per block): the archive
// tier's durability is crash-of-process, not power-loss, which matches
// its role as spill space for a live middleware. Deletions are logical
// (manifest tombstones); segment space is reclaimed only by removing
// the directory. Compaction is future work.
//
// In memory FS keeps, per block, only what Open and DeleteBefore need —
// its extent (fsExtent). The full Ref lives in the block's add-record:
// List and Streams, the recovery and tooling paths, replay the manifests
// from disk, with the code OpenFS recovers by.
type FS struct {
	dir string

	mu      sync.Mutex
	shards  [FSShards]fsShard
	streams map[wire.StreamID]*fsStream
}

type fsShard struct {
	log     *os.File
	seg     *os.File
	segOff  int64  // committed append offset
	scratch []byte // manifest record build buffer, reused per append
}

// fsStream is one stream's in-memory index: its floor and its blocks'
// extents.
type fsStream struct {
	floor   uint64
	extents []fsExtent // ascending by lastSeq
}

// fsExtent is one archived block as the index keeps it: the last sequence
// it is filed under, where its bytes lie in the shard's segment, and their
// CRC.
type fsExtent struct {
	lastSeq uint64
	off     int64
	n       uint32
	dataCRC uint32
}

// fsState is one stream as a manifest replay rebuilds it, every add-record
// whole.
type fsState struct {
	floor uint64
	refs  []fsRef // ascending by LastSeq
}

// fsRef is one add-record as a replay keeps it: the block's Ref and where
// its bytes lie.
type fsRef struct {
	Ref
	off     int64
	dataCRC uint32
}

// streamState returns the stream's refs and floor; st may be nil.
func (st *fsState) streamState(id wire.StreamID) StreamState {
	ss := StreamState{Stream: id}
	if st != nil {
		ss.Floor = st.floor
		for i := range st.refs {
			ss.Refs = append(ss.Refs, st.refs[i].Ref)
		}
	}
	return ss
}

func fsShardOf(stream wire.StreamID) int { return stream.Sensor().Shard(FSShards) }

func segName(i int) string { return fmt.Sprintf("shard-%02d.seg", i) }
func logName(i int) string { return fmt.Sprintf("shard-%02d.log", i) }

// OpenFS opens (creating if needed) the archive directory and rebuilds
// the block index from the manifests, dropping any torn tail. The same
// directory must not be opened by two FS values at once.
func OpenFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	f := &FS{dir: dir, streams: make(map[wire.StreamID]*fsStream)}
	for i := 0; i < FSShards; i++ {
		seg, err := os.OpenFile(filepath.Join(dir, segName(i)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("archive: %w", err)
		}
		log, err := os.OpenFile(filepath.Join(dir, logName(i)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			seg.Close()
			f.Close()
			return nil, fmt.Errorf("archive: %w", err)
		}
		sh := &f.shards[i]
		sh.seg, sh.log = seg, log
		st, err := seg.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("archive: %w", err)
		}
		segSize := st.Size()
		raw, err := os.ReadFile(filepath.Join(dir, logName(i)))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("archive: %w", err)
		}
		states := make(map[wire.StreamID]*fsState)
		applied, _, tornRefs := replayManifest(raw, segSize, states)
		// Future appends continue after the manifest's committed extent;
		// bytes past it (a torn block write) are dead and overwritten.
		sh.segOff = applied
		// A torn tail must be healed now, not just skipped: later appends
		// reuse the dead segment extent, and a torn add-record left in the
		// manifest would resurrect at the next replay once new bytes land
		// under its extent. Rewrite the shard's manifest from the
		// recovered state (torn records compacted away, torn trailing
		// bytes truncated) so recovery is idempotent.
		if torn := tornRefs > 0 || intactPrefix(raw) < len(raw); torn {
			if err := rewriteLog(log, states); err != nil {
				f.Close()
				return nil, err
			}
		}
		for id, st := range states {
			fs := &fsStream{floor: st.floor, extents: make([]fsExtent, len(st.refs))}
			for j := range st.refs {
				r := &st.refs[j]
				fs.extents[j] = fsExtent{lastSeq: r.LastSeq, off: r.off, n: uint32(r.Bytes), dataCRC: r.dataCRC}
			}
			f.streams[id] = fs
		}
		if _, err := log.Seek(0, 2); err != nil {
			f.Close()
			return nil, fmt.Errorf("archive: %w", err)
		}
	}
	return f, nil
}

// intactPrefix returns how many leading bytes of a manifest decode as
// complete records; anything past that is a torn or corrupt tail.
func intactPrefix(raw []byte) int {
	consumed := 0
	for consumed < len(raw) {
		_, n, err := decodeManifestRec(raw[consumed:])
		if err != nil {
			break
		}
		consumed += n
	}
	return consumed
}

// rewriteLog replaces a shard's manifest with a compact re-encoding of
// the state its replay recovered: one floor record per stream holding a
// floor, then its surviving add-records. Called during OpenFS recovery,
// before the FS is shared.
func rewriteLog(log *os.File, states map[wire.StreamID]*fsState) error {
	var buf []byte
	for _, id := range sortedIDs(states) {
		st := states[id]
		if st.floor > 0 {
			rec := manifestRec{kind: recFloor, stream: id, floor: st.floor}
			buf = appendManifestRec(buf, &rec)
		}
		for j := range st.refs {
			rec := manifestRec{
				kind:    recAdd,
				stream:  id,
				ref:     st.refs[j].Ref,
				off:     st.refs[j].off,
				dataCRC: st.refs[j].dataCRC,
			}
			buf = appendManifestRec(buf, &rec)
		}
	}
	if err := log.Truncate(0); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if len(buf) > 0 {
		if _, err := log.WriteAt(buf, 0); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	return nil
}

// sortedIDs returns the map's keys in ascending order.
func sortedIDs[V any](m map[wire.StreamID]V) []wire.StreamID {
	ids := make([]wire.StreamID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// replayManifest applies one shard's manifest bytes onto streams,
// validating each add-record's extent against segSize. It returns the
// committed segment extent (the end of the last intact block), the
// number of records applied, and the number of refs dropped for torn
// segment extents. A record that fails to decode ends the replay — the
// tail is torn.
func replayManifest(raw []byte, segSize int64, streams map[wire.StreamID]*fsState) (committed int64, records, tornRefs int) {
	for len(raw) > 0 {
		rec, n, err := decodeManifestRec(raw)
		if err != nil {
			break
		}
		raw = raw[n:]
		records++
		switch rec.kind {
		case recAdd:
			if rec.off+rec.ref.Bytes > segSize {
				tornRefs++
				continue
			}
			fs, ok := streams[rec.stream]
			if !ok {
				fs = &fsState{}
				streams[rec.stream] = fs
			}
			if rec.ref.LastSeq < fs.floor {
				continue // resurrected write racing a delete; logically dead
			}
			fs.refs = append(fs.refs, fsRef{Ref: rec.ref, off: rec.off, dataCRC: rec.dataCRC})
			if end := rec.off + rec.ref.Bytes; end > committed {
				committed = end
			}
		case recFloor:
			fs, ok := streams[rec.stream]
			if !ok {
				fs = &fsState{}
				streams[rec.stream] = fs
			}
			if rec.floor > fs.floor {
				fs.floor = rec.floor
			}
			k := sort.Search(len(fs.refs), func(j int) bool { return fs.refs[j].LastSeq >= fs.floor })
			fs.refs = append(fs.refs[:0], fs.refs[k:]...)
		case recForget:
			delete(streams, rec.stream)
		}
	}
	return committed, records, tornRefs
}

// Close releases the backend's file handles. A Store using this backend
// must be closed first.
func (f *FS) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for i := range f.shards {
		sh := &f.shards[i]
		for _, c := range []*os.File{sh.seg, sh.log} {
			if c != nil {
				if err := c.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		sh.seg, sh.log = nil, nil
	}
	return first
}

func (f *FS) stream(id wire.StreamID) *fsStream {
	fs, ok := f.streams[id]
	if !ok {
		fs = &fsStream{}
		f.streams[id] = fs
	}
	return fs
}

// Append implements Backend: block bytes first (so a crash between the
// two writes leaves an unreferenced extent, not a dangling ref), then
// the CRC-framed add-record.
func (f *FS) Append(stream wire.StreamID, ref Ref, data []byte) error {
	if int64(len(data)) != ref.Bytes {
		return fmt.Errorf("archive: ref says %d bytes, block has %d", ref.Bytes, len(data))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := &f.shards[fsShardOf(stream)]
	if sh.seg == nil {
		return errClosed
	}
	off := sh.segOff
	if _, err := sh.seg.WriteAt(data, off); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	rec := manifestRec{
		kind:    recAdd,
		stream:  stream,
		ref:     ref,
		off:     off,
		dataCRC: crc32.ChecksumIEEE(data),
	}
	sh.scratch = appendManifestRec(sh.scratch[:0], &rec)
	if _, err := sh.log.Write(sh.scratch); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	sh.segOff = off + int64(len(data))
	fs := f.stream(stream)
	fs.extents = append(fs.extents, fsExtent{lastSeq: ref.LastSeq, off: off, n: uint32(len(data)), dataCRC: rec.dataCRC})
	return nil
}

// Open implements Backend. It looks the extent up under the mutex and
// reads and checks the bytes after releasing it: segments are append-only
// and never compacted, so an extent the index named stays whole. A read
// racing Close fails.
func (f *FS) Open(dst []byte, stream wire.StreamID, lastSeq uint64) ([]byte, error) {
	f.mu.Lock()
	var e fsExtent
	fs, ok := f.streams[stream]
	if ok {
		i := sort.Search(len(fs.extents), func(i int) bool { return fs.extents[i].lastSeq >= lastSeq })
		ok = i < len(fs.extents) && fs.extents[i].lastSeq == lastSeq
		if ok {
			e = fs.extents[i]
		}
	}
	seg := f.shards[fsShardOf(stream)].seg
	f.mu.Unlock()
	if !ok {
		return dst, ErrNotFound
	}
	if seg == nil {
		return dst, errClosed
	}
	n := len(dst)
	dst = slices.Grow(dst, int(e.n))[:n+int(e.n)]
	if _, err := seg.ReadAt(dst[n:], e.off); errors.Is(err, os.ErrClosed) {
		return dst[:n], errClosed
	} else if err != nil {
		return dst[:n], corruptf("segment read: %v", err)
	}
	if got := crc32.ChecksumIEEE(dst[n:]); got != e.dataCRC {
		return dst[:n], corruptf("block %d/%d data crc mismatch: %08x != %08x", stream, lastSeq, got, e.dataCRC)
	}
	return dst, nil
}

// replayShardLocked rebuilds shard i's streams, every ref whole, from its
// manifest on disk. Under the mutex the manifest holds exactly the
// records the index was built from and has applied since. Caller holds
// mu.
func (f *FS) replayShardLocked(i int) (map[wire.StreamID]*fsState, error) {
	raw, err := os.ReadFile(filepath.Join(f.dir, logName(i)))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	states := make(map[wire.StreamID]*fsState)
	replayManifest(raw, f.shards[i].segOff, states)
	return states, nil
}

// List implements Backend, replaying the stream's shard manifest.
func (f *FS) List(stream wire.StreamID) (StreamState, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.streams[stream]; !ok {
		return StreamState{Stream: stream}, nil
	}
	states, err := f.replayShardLocked(fsShardOf(stream))
	if err != nil {
		return StreamState{Stream: stream}, err
	}
	return states[stream].streamState(stream), nil
}

// Streams implements Backend, visiting in stream-id order. It replays
// every shard's manifest.
func (f *FS) Streams(fn func(StreamState) error) error {
	f.mu.Lock()
	all := make(map[wire.StreamID]*fsState, len(f.streams))
	for i := range f.shards {
		states, err := f.replayShardLocked(i)
		if err != nil {
			f.mu.Unlock()
			return err
		}
		for id, st := range states {
			all[id] = st
		}
	}
	f.mu.Unlock()
	for _, id := range sortedIDs(all) {
		if err := fn(all[id].streamState(id)); err != nil {
			return err
		}
	}
	return nil
}

// DeleteBefore implements Backend.
func (f *FS) DeleteBefore(stream wire.StreamID, upto uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := &f.shards[fsShardOf(stream)]
	if sh.log == nil {
		return errClosed
	}
	rec := manifestRec{kind: recFloor, stream: stream, floor: upto}
	sh.scratch = appendManifestRec(sh.scratch[:0], &rec)
	if _, err := sh.log.Write(sh.scratch); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	fs := f.stream(stream)
	if upto > fs.floor {
		fs.floor = upto
	}
	k := sort.Search(len(fs.extents), func(i int) bool { return fs.extents[i].lastSeq >= fs.floor })
	fs.extents = append(fs.extents[:0], fs.extents[k:]...)
	return nil
}

// Forget implements Backend.
func (f *FS) Forget(stream wire.StreamID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := &f.shards[fsShardOf(stream)]
	if sh.log == nil {
		return errClosed
	}
	rec := manifestRec{kind: recForget, stream: stream}
	sh.scratch = appendManifestRec(sh.scratch[:0], &rec)
	if _, err := sh.log.Write(sh.scratch); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	delete(f.streams, stream)
	return nil
}

// ShardReport describes one on-disk shard for inspection tooling.
type ShardReport struct {
	Index        int
	Records      int   // manifest records that decoded intact
	TornManifest bool  // manifest ends mid-record (crash during a manifest write)
	TornRefs     int   // intact add-records whose block extent runs past the segment end
	SegBytes     int64 // segment file size on disk
	Committed    int64 // extent covered by intact blocks
}

// StreamReport summarises one stream's archived state for inspection.
type StreamReport struct {
	Stream   wire.StreamID
	Floor    uint64
	Blocks   int
	FirstSeq uint64
	LastSeq  uint64
	Count    int64
	RawBytes int64
	Bytes    int64
}

// Report is a read-only scan of an archive directory.
type Report struct {
	Shards  []ShardReport
	Streams []StreamReport
}

// ScanFS reads an archive directory without opening it for writing:
// the manifest/segment structure per shard (including torn tails) and
// the per-stream archived ranges. Missing files scan as empty shards.
func ScanFS(dir string) (Report, error) {
	var rep Report
	streams := make(map[wire.StreamID]*fsState)
	for i := 0; i < FSShards; i++ {
		sr := ShardReport{Index: i}
		var segSize int64
		if st, err := os.Stat(filepath.Join(dir, segName(i))); err == nil {
			segSize = st.Size()
		} else if !errors.Is(err, os.ErrNotExist) {
			return rep, fmt.Errorf("archive: %w", err)
		}
		sr.SegBytes = segSize
		raw, err := os.ReadFile(filepath.Join(dir, logName(i)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return rep, fmt.Errorf("archive: %w", err)
		}
		consumed := 0
		for consumed < len(raw) {
			if _, n, err := decodeManifestRec(raw[consumed:]); err == nil {
				consumed += n
			} else {
				sr.TornManifest = true
				break
			}
		}
		sr.Committed, sr.Records, sr.TornRefs = replayManifest(raw, segSize, streams)
		rep.Shards = append(rep.Shards, sr)
	}
	for _, id := range sortedIDs(streams) {
		fs := streams[id]
		sr := StreamReport{Stream: id, Floor: fs.floor, Blocks: len(fs.refs)}
		if len(fs.refs) > 0 {
			sr.FirstSeq = fs.refs[0].FirstSeq
			sr.LastSeq = fs.refs[len(fs.refs)-1].LastSeq
		}
		for i := range fs.refs {
			sr.Count += int64(fs.refs[i].Count)
			sr.RawBytes += fs.refs[i].RawBytes
			sr.Bytes += fs.refs[i].Bytes
		}
		rep.Streams = append(rep.Streams, sr)
	}
	return rep, nil
}
