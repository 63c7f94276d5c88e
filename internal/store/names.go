package store

import (
	"sync"
	"sync/atomic"
)

// names is a store's receiver-name table: every receiver name the store
// has retained or decoded, each stored once and numbered, so a hot slot
// keeps a four-byte index instead of a string header and a decoded block
// shares the strings its live entries carry.
//
// At a million sensors every retained delivery names a receiver; without
// the table, the codec's decode path would rebuild each name from bytes
// and give every copy its own backing array. The table maps any spelling
// of a name to one string, so a deployment's small fixed receiver set
// costs its bytes once per store, however many deliveries name it.
//
// The vocabulary is tiny and stops growing after start-up, which picks
// the design: a copy-on-write map behind an atomic pointer. Readers are
// lock-free — one atomic load and one map index, no allocation for the
// []byte form — and only the first occurrence of a new name takes the
// writer lock to publish a fresh copy. Nothing is evicted before the
// store goes, so only receiver names may be fed to it, never payloads.
type names struct {
	// cur is the current snapshot. It is immutable once published: add
	// replaces the map under mu rather than mutating it, and only ever
	// appends to the names past the length readers hold, so readers need
	// no lock and no happens-before beyond the atomic load.
	cur atomic.Pointer[nameSnapshot]
	mu  sync.Mutex // serialises writers (first occurrence of a name only)
}

// nameSnapshot is one published state of the table: every spelling seen
// so far mapped to its index in names, the strings in first-seen order.
// names[0] is the empty string, so index 0 always means "no name".
type nameSnapshot struct {
	idx   map[string]uint32
	names []string
}

// init publishes the empty table; a store calls it once, in New.
func (n *names) init() {
	n.cur.Store(&nameSnapshot{idx: map[string]uint32{}, names: []string{""}})
}

// bytes returns the table's string for b. When b is already in the table
// the lookup allocates nothing: the compiler recognises the
// map-index-by-converted-bytes form and skips the string copy.
func (n *names) bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	t := n.cur.Load()
	if i, ok := t.idx[string(b)]; ok {
		return t.names[i]
	}
	return n.lookup(n.add(string(b)))
}

// index returns a small stable integer naming s — the pointer-free form a
// hot slot keeps. Equal strings always get equal indexes; the empty
// string is 0. lookup turns an index back into the table's string.
func (n *names) index(s string) uint32 {
	if s == "" {
		return 0
	}
	if i, ok := n.cur.Load().idx[s]; ok {
		return i
	}
	return n.add(s)
}

// lookup returns the string index numbered i. It panics on an index
// index never returned.
func (n *names) lookup(i uint32) string {
	return n.cur.Load().names[i]
}

// add publishes s under the writer lock, re-checking first: two racing
// writers must converge on a single string.
func (n *names) add(s string) uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.cur.Load()
	if i, ok := cur.idx[s]; ok {
		return i
	}
	i := uint32(len(cur.names))
	next := make(map[string]uint32, len(cur.idx)+1)
	for k, v := range cur.idx {
		next[k] = v
	}
	next[s] = i
	n.cur.Store(&nameSnapshot{idx: next, names: append(cur.names, s)})
	return i
}
