// Package intern provides a process-wide append-only string intern
// table so identity strings that recur per message — receiver names,
// above all — are stored once and shared by every plane that holds
// them.
//
// At a million sensors every retained Delivery carries a receiver-name
// string header; without interning, decode paths that rebuild those
// names from bytes (the store's cold-block codec) would give each copy
// its own backing array. The table maps any spelling of a name to one
// canonical string, so a deployment's small fixed receiver set costs
// its bytes exactly once no matter how many deliveries reference it.
//
// The deployment's identity vocabulary is tiny and stops growing after
// start-up, which picks the design: a copy-on-write map behind an
// atomic pointer. Readers are lock-free — one atomic load and one map
// index, no allocation for the []byte form — and only the first
// occurrence of a new name takes the writer lock to publish a fresh
// copy of the table. The table is append-only and process-lived;
// nothing is ever evicted, which is exactly right for identities and
// exactly wrong for payloads, so callers must not feed it unbounded
// data.
//
// Every canonical string also has an index (Index, Lookup): the same
// identity in four bytes and no pointer, for records the garbage
// collector should not have to walk.
package intern

import (
	"sync"
	"sync/atomic"
)

// snapshot is one published state of the table: every spelling seen so
// far mapped to its index in names, the canonical strings in first-seen
// order. names[0] is the empty string, so index 0 always means "no name".
type snapshot struct {
	idx   map[string]uint32
	names []string
}

// table is the current snapshot. It is immutable once published:
// internSlow replaces the map under mu rather than mutating it, and only
// ever appends to names past the length readers hold, so readers need no
// lock and no happens-before beyond the atomic load.
var table atomic.Pointer[snapshot]

// mu serialises writers (first occurrence of a new string only).
var mu sync.Mutex

func init() {
	table.Store(&snapshot{idx: map[string]uint32{}, names: []string{""}})
}

// String returns the canonical copy of s, installing s itself if it is
// the first spelling seen. The fast path is one atomic load and one map
// lookup.
func String(s string) string {
	return Lookup(Index(s))
}

// Bytes returns the canonical string for b. When b is already interned
// the lookup allocates nothing: the compiler recognises the
// map-index-by-converted-bytes form and skips the string copy.
func Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	t := table.Load()
	if i, ok := t.idx[string(b)]; ok {
		return t.names[i]
	}
	return Lookup(internSlow(string(b)))
}

// Index returns a small stable integer naming s — the pointer-free form
// of String, for records that must not carry a string header (the Stream
// Store's hot slots). Equal strings always get equal indexes; the empty
// string is 0. Lookup turns an index back into the canonical string.
func Index(s string) uint32 {
	if s == "" {
		return 0
	}
	if i, ok := table.Load().idx[s]; ok {
		return i
	}
	return internSlow(s)
}

// Lookup returns the canonical string Index numbered i. It panics on an
// index Index never returned.
func Lookup(i uint32) string {
	return table.Load().names[i]
}

// internSlow publishes s under the writer lock, re-checking first: two
// racing writers must converge on a single canonical pointer.
func internSlow(s string) uint32 {
	mu.Lock()
	defer mu.Unlock()
	cur := table.Load()
	if i, ok := cur.idx[s]; ok {
		return i
	}
	i := uint32(len(cur.names))
	next := make(map[string]uint32, len(cur.idx)+1)
	for k, v := range cur.idx {
		next[k] = v
	}
	next[s] = i
	table.Store(&snapshot{idx: next, names: append(cur.names, s)})
	return i
}

// Len reports how many distinct strings are interned. Diagnostic only.
func Len() int {
	return len(table.Load().idx)
}
