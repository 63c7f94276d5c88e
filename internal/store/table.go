package store

import (
	"iter"
	"math/bits"

	"github.com/garnet-middleware/garnet/internal/wire"
)

const (
	// minChunk is the first chunk's length, a power of two; chunk k <
	// capChunk holds minChunk·2^k records, so the geometric chunks hold
	// capStart records in all, and every chunk from capChunk on holds
	// fullChunk.
	minChunk = 8
	capChunk = 5
	capStart = minChunk * (1<<capChunk - 1)

	// fullChunk is one record short of 256. An allocation of more than
	// 512 bytes whose type holds pointers carries an 8-byte header, so 256
	// records that fill a size class exactly — 16 bytes each, or a ring's
	// 112 — would spill into the next class, 12.5 % larger for
	// 112-byte records. 255 leaves the header its room.
	fullChunk = 255
)

// table is the per-stream record table the store keeps one of per shard:
// every stream it has ever heard owns one record — its duplicate window
// and its retention ring — so in a large, mostly idle field what the
// table costs per record is the deployment's memory bound.
//
// A Go map from stream id to a pointer costs the pointer's own allocation
// (rounded up to its size class) plus about 24 bytes of map entry, and the
// collector walks every one. table instead keeps records in place in
// chunks and indexes them with a map from stream id to a uint32 position,
// which holds no pointer, so the collector skips it and an entry costs
// about 12 bytes. Chunks grow geometrically from minChunk records up to
// fullChunk, so a table with a handful of streams holds a handful of
// records, and records never move: a *T stays valid until its id is
// deleted.
//
// A table is not safe for concurrent use; its shard's lock guards it.
//
// The zero value is an empty table; it allocates nothing until the first
// add.
type table[T any] struct {
	index  map[wire.StreamID]uint32
	chunks [][]T
	used   uint32   // positions handed out, freed ones included
	free   []uint32 // positions delete zeroed, reused last in first out

	// Single-entry last-hit cache: sensors emit runs of messages on one
	// stream, so the common lookup skips the map hash. last is nil when
	// the cache is empty.
	lastID wire.StreamID
	last   *T
}

// locate splits a position into its chunk and the offset within it.
func locate(pos uint32) (chunk, off uint32) {
	if pos < capStart {
		// Chunk k starts at minChunk·(2^k − 1).
		k := uint32(bits.Len32(pos/minChunk+1)) - 1
		return k, pos - minChunk*(1<<k-1)
	}
	pos -= capStart
	return capChunk + pos/fullChunk, pos % fullChunk
}

// chunkLen is the length of chunk k.
func chunkLen(k int) int {
	if k >= capChunk {
		return fullChunk
	}
	return minChunk << k
}

func (t *table[T]) at(pos uint32) *T {
	c, off := locate(pos)
	return &t.chunks[c][off]
}

// get returns id's record, or nil when the table has none. A hit on the
// last id looked up is inlined into the caller.
func (t *table[T]) get(id wire.StreamID) *T {
	if t.last != nil && t.lastID == id {
		return t.last
	}
	return t.lookup(id)
}

// add returns id's record, creating a zero one when the table has none.
// Callers on a hot path try get first, whose cache hit is inlined.
func (t *table[T]) add(id wire.StreamID) *T {
	if r := t.get(id); r != nil {
		return r
	}
	return t.insert(id)
}

// lookup finds id through the index and caches the hit.
func (t *table[T]) lookup(id wire.StreamID) *T {
	pos, ok := t.index[id]
	if !ok {
		return nil
	}
	r := t.at(pos)
	t.lastID, t.last = id, r
	return r
}

// insert gives id a zero record, reusing a freed position first.
func (t *table[T]) insert(id wire.StreamID) *T {
	if t.index == nil {
		t.index = make(map[wire.StreamID]uint32)
	}
	var pos uint32
	if n := len(t.free); n > 0 {
		pos = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		pos = t.used
		if c, _ := locate(pos); int(c) == len(t.chunks) {
			t.chunks = append(t.chunks, make([]T, chunkLen(len(t.chunks))))
		}
		t.used++
	}
	t.index[id] = pos
	r := t.at(pos)
	t.lastID, t.last = id, r
	return r
}

// delete zeroes id's record and frees its position for the next add. A
// *T taken for id before the call must not be used after it: the next
// stream added may own the same memory. It reports whether id had a
// record. Nothing deletes yet: ROADMAP item 6's Retire is its first caller.
func (t *table[T]) delete(id wire.StreamID) bool {
	pos, ok := t.index[id]
	if !ok {
		return false
	}
	delete(t.index, id)
	var zero T
	*t.at(pos) = zero
	t.free = append(t.free, pos)
	if t.lastID == id {
		t.last = nil
	}
	return true
}

// all yields each id and its record once, in no particular order. As
// with a map, the loop body may delete records, and a record added during
// the loop may or may not be yielded.
func (t *table[T]) all() iter.Seq2[wire.StreamID, *T] {
	return func(yield func(wire.StreamID, *T) bool) {
		for id, pos := range t.index {
			if !yield(id, t.at(pos)) {
				return
			}
		}
	}
}
