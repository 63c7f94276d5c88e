// Package archive defines the Stream Store's sealed tier: a pluggable
// block backend that receives every compressed block the store seals, as
// it seals it, and serves them back to the store's read path, so replay
// stitches archive → hot → live transparently. FS is the durable backend;
// Mem keeps blocks in memory, and a store with a codec and no archive
// attached files its blocks in a Mem of its own.
//
// The unit of exchange is the store's sealed block exactly as the codec
// package encoded it — a self-contained byte string tagged with its
// codec ID — so a backend never inspects payloads: it files opaque
// blocks under (stream, sequence range) and hands them back. Blocks on
// one stream arrive in ascending, non-overlapping sequence order (the
// store spills its sealed blocks oldest-first), which backends may rely
// on.
//
// # Contract
//
// Backends are safe for concurrent use: the store calls Append from the
// appender that sealed the block, under that stream's shard lock, so
// appenders on different shards call it at once and pay its latency, and
// readers call Open under shard locks. FS has one mutex for all its
// shards, so its Open holds it only to look the block's extent up, and
// reads and checks the bytes after releasing it: a block read never waits
// behind another shard's segment or manifest write. Mem has one mutex per
// wire.Shards partition. Append must copy data before returning — the
// store reuses the buffer for its next seal. Blocks are addressed by their last
// extended sequence, which is immutable for the life of the block (the
// first sequence is logical bookkeeping the store may advance as
// retention policy trims a block's prefix; see DeleteBefore's floor).
//
// DeleteBefore(stream, upto) is the retention primitive: blocks whose
// last sequence falls below upto are removed, and upto is persisted as
// the stream's floor — entries below the floor inside a surviving
// (straddling) block are logically dead, and both the store and a
// recovering process filter them out on decode. The floor only ever
// advances.
package archive

import (
	"cmp"
	"slices"
	"sync"

	"github.com/garnet-middleware/garnet/internal/store/codec"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Ref describes one archived block: the codec that encoded it, the
// extended-sequence span it covers, and its size in entries, payload
// bytes and encoded bytes. LastUnix is the reception time (unix
// nanoseconds) of the newest entry sealed inside, the timestamp
// age-based archive retention keys on.
//
// The store keeps one Ref per archived block in memory, so the fields are
// ordered widest first: Count and Codec share the last word, 48 bytes in
// all.
type Ref struct {
	FirstSeq uint64
	LastSeq  uint64
	RawBytes int64
	Bytes    int64
	LastUnix int64
	Count    int32
	Codec    codec.ID
}

// StreamState is one stream's archived state as a backend reports it:
// the surviving block refs ascending by sequence, and the retention
// floor (entries below it are logically deleted even when a straddling
// block still physically holds them).
type StreamState struct {
	Stream wire.StreamID
	Floor  uint64
	Refs   []Ref
}

// Backend is the durable block store the Stream Store spills to.
type Backend interface {
	// Append durably files one sealed block. data must be copied before
	// returning; the caller recycles the buffer. Blocks per stream
	// arrive in ascending, non-overlapping sequence order.
	Append(stream wire.StreamID, ref Ref, data []byte) error
	// Open appends the encoded bytes of the block whose last sequence
	// is lastSeq to dst and returns the extended slice. It fails when
	// the block is unknown or its stored bytes fail integrity checks.
	Open(dst []byte, stream wire.StreamID, lastSeq uint64) ([]byte, error)
	// List returns the stream's surviving refs (ascending) and floor.
	// A stream with no archived blocks returns an empty state, not an
	// error.
	List(stream wire.StreamID) (StreamState, error)
	// Streams visits every stream holding archived blocks (or a bare
	// floor), in unspecified order, stopping on the first error fn
	// returns. The store's recovery path rebuilds its in-memory index
	// from this.
	Streams(fn func(StreamState) error) error
	// DeleteBefore removes the stream's blocks with LastSeq < upto and
	// persists floor = max(floor, upto). Unknown streams record the
	// floor alone.
	DeleteBefore(stream wire.StreamID, upto uint64) error
	// Forget removes every archived block and the floor for the stream.
	Forget(stream wire.StreamID) error
}

// Mem is the in-memory backend: the Backend contract with no durability.
// A store configured with a codec and no archive files its sealed blocks
// in one of its own, so Mem is where that store's sealed history lives; a
// Mem passed in as the archive serves tests and experiments, and one
// shared between two stores stands in for a restart — the second store
// recovers the first one's spilled history from it.
//
// Streams are split over wire.Shards partitions by the store's own
// partition, id.Sensor().Shard(wire.Shards), each with its own mutex, so
// appenders on different store shards never share a lock. A partition
// keeps up to memFreeBufs of the buffers DeleteBefore and Forget drop and
// Append copies into them, so a stream held at its byte budget files a
// block into the buffer its oldest one left and allocates nothing.
type Mem struct {
	parts [wire.Shards]memPart
}

// memFreeBufs bounds each partition's list of dropped block buffers.
const memFreeBufs = 64

type memPart struct {
	mu      sync.Mutex
	streams map[wire.StreamID]*memStream
	free    [][]byte
}

type memStream struct {
	floor uint64
	refs  []Ref
	data  [][]byte // parallel to refs
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return new(Mem) }

func (m *Mem) part(id wire.StreamID) *memPart {
	return &m.parts[id.Sensor().Shard(wire.Shards)]
}

// stream returns id's state, creating it. Caller holds p.mu.
func (p *memPart) stream(id wire.StreamID) *memStream {
	ms, ok := p.streams[id]
	if !ok {
		if p.streams == nil {
			p.streams = make(map[wire.StreamID]*memStream)
		}
		ms = &memStream{}
		p.streams[id] = ms
	}
	return ms
}

// release parks dropped block buffers for Append to reuse, up to
// memFreeBufs. Caller holds p.mu.
func (p *memPart) release(bufs [][]byte) {
	for _, b := range bufs {
		if len(p.free) == memFreeBufs {
			return
		}
		p.free = append(p.free, b[:0])
	}
}

// Append implements Backend.
func (m *Mem) Append(stream wire.StreamID, ref Ref, data []byte) error {
	p := m.part(stream)
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf []byte
	if n := len(p.free); n > 0 {
		buf, p.free[n-1] = p.free[n-1], nil
		p.free = p.free[:n-1]
	}
	ms := p.stream(stream)
	ms.refs = append(ms.refs, ref)
	ms.data = append(ms.data, append(buf, data...))
	return nil
}

// Open implements Backend. Blocks arrive in ascending order, so the
// block is found by binary search on its last sequence.
func (m *Mem) Open(dst []byte, stream wire.StreamID, lastSeq uint64) ([]byte, error) {
	p := m.part(stream)
	p.mu.Lock()
	defer p.mu.Unlock()
	if ms, ok := p.streams[stream]; ok {
		if i, found := ms.find(lastSeq); found {
			return append(dst, ms.data[i]...), nil
		}
	}
	return dst, ErrNotFound
}

// find returns the index of the first block whose last sequence is at
// least seq, and whether it is seq. Caller holds the partition's mu.
func (ms *memStream) find(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(ms.refs, seq, func(r Ref, seq uint64) int {
		return cmp.Compare(r.LastSeq, seq)
	})
}

// state copies ms out as a StreamState. Caller holds the partition's mu.
func (ms *memStream) state(id wire.StreamID) StreamState {
	return StreamState{Stream: id, Floor: ms.floor, Refs: slices.Clone(ms.refs)}
}

// List implements Backend.
func (m *Mem) List(stream wire.StreamID) (StreamState, error) {
	p := m.part(stream)
	p.mu.Lock()
	defer p.mu.Unlock()
	if ms, ok := p.streams[stream]; ok {
		return ms.state(stream), nil
	}
	return StreamState{Stream: stream}, nil
}

// Streams implements Backend. Streams are visited in id order so Mem
// behaves deterministically under tests.
func (m *Mem) Streams(fn func(StreamState) error) error {
	var states []StreamState
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		for id, ms := range p.streams {
			states = append(states, ms.state(id))
		}
		p.mu.Unlock()
	}
	slices.SortFunc(states, func(a, b StreamState) int { return cmp.Compare(a.Stream, b.Stream) })
	for _, st := range states {
		if err := fn(st); err != nil {
			return err
		}
	}
	return nil
}

// DeleteBefore implements Backend.
func (m *Mem) DeleteBefore(stream wire.StreamID, upto uint64) error {
	p := m.part(stream)
	p.mu.Lock()
	defer p.mu.Unlock()
	ms := p.stream(stream)
	ms.floor = max(ms.floor, upto)
	if k, _ := ms.find(upto); k > 0 {
		p.release(ms.data[:k])
		n := copy(ms.refs, ms.refs[k:])
		copy(ms.data, ms.data[k:])
		clear(ms.data[n:])
		ms.refs, ms.data = ms.refs[:n], ms.data[:n]
	}
	return nil
}

// Forget implements Backend.
func (m *Mem) Forget(stream wire.StreamID) error {
	p := m.part(stream)
	p.mu.Lock()
	defer p.mu.Unlock()
	if ms, ok := p.streams[stream]; ok {
		p.release(ms.data)
		delete(p.streams, stream)
	}
	return nil
}
