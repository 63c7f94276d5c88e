// Package archive defines the Stream Store's durable retention tier: a
// pluggable block backend that receives every compressed block the store
// seals, as it seals it, and serves them back to the store's read path, so
// replay stitches archive → hot → live transparently.
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
// behind another shard's segment or manifest write. Append must copy data
// before returning — the store recycles the buffer immediately. Blocks are addressed by their last
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
	"sort"
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

// Mem is the in-memory reference backend: the Backend contract with no
// durability, for tests and experiments. A Mem shared between two
// stores also stands in for a restart — the second store recovers the
// first one's spilled history from it.
type Mem struct {
	mu      sync.Mutex
	streams map[wire.StreamID]*memStream
}

type memStream struct {
	floor uint64
	refs  []Ref
	data  [][]byte // parallel to refs
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{streams: make(map[wire.StreamID]*memStream)}
}

func (m *Mem) stream(id wire.StreamID) *memStream {
	ms, ok := m.streams[id]
	if !ok {
		ms = &memStream{}
		m.streams[id] = ms
	}
	return ms
}

// Append implements Backend.
func (m *Mem) Append(stream wire.StreamID, ref Ref, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.stream(stream)
	ms.refs = append(ms.refs, ref)
	ms.data = append(ms.data, append([]byte(nil), data...))
	return nil
}

// Open implements Backend.
func (m *Mem) Open(dst []byte, stream wire.StreamID, lastSeq uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.streams[stream]
	if ok {
		for i := range ms.refs {
			if ms.refs[i].LastSeq == lastSeq {
				return append(dst, ms.data[i]...), nil
			}
		}
	}
	return dst, ErrNotFound
}

// List implements Backend.
func (m *Mem) List(stream wire.StreamID) (StreamState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.streams[stream]
	if !ok {
		return StreamState{Stream: stream}, nil
	}
	return StreamState{
		Stream: stream,
		Floor:  ms.floor,
		Refs:   append([]Ref(nil), ms.refs...),
	}, nil
}

// Streams implements Backend. Streams are visited in id order so Mem
// behaves deterministically under tests.
func (m *Mem) Streams(fn func(StreamState) error) error {
	m.mu.Lock()
	ids := make([]wire.StreamID, 0, len(m.streams))
	for id := range m.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	states := make([]StreamState, 0, len(ids))
	for _, id := range ids {
		ms := m.streams[id]
		states = append(states, StreamState{
			Stream: id,
			Floor:  ms.floor,
			Refs:   append([]Ref(nil), ms.refs...),
		})
	}
	m.mu.Unlock()
	for _, st := range states {
		if err := fn(st); err != nil {
			return err
		}
	}
	return nil
}

// DeleteBefore implements Backend.
func (m *Mem) DeleteBefore(stream wire.StreamID, upto uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.stream(stream)
	if upto > ms.floor {
		ms.floor = upto
	}
	k := 0
	for k < len(ms.refs) && ms.refs[k].LastSeq < upto {
		k++
	}
	if k > 0 {
		ms.refs = append(ms.refs[:0], ms.refs[k:]...)
		ms.data = append(ms.data[:0], ms.data[k:]...)
	}
	return nil
}

// Forget implements Backend.
func (m *Mem) Forget(stream wire.StreamID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.streams, stream)
	return nil
}
