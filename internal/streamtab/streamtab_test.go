package streamtab

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/garnet-middleware/garnet/internal/wire"
)

// rec is a 16-byte record, the filter's per-stream size.
type rec struct {
	a uint64
	b uint32
	c uint16
	d bool
}

func sid(i int) wire.StreamID { return wire.StreamID(i) }

func TestGetAddDelete(t *testing.T) {
	var tab Table[rec]
	if tab.Get(sid(1)) != nil || tab.Delete(sid(1)) || tab.Len() != 0 {
		t.Fatal("empty table claims a record")
	}
	r := tab.Add(sid(1))
	if *r != (rec{}) {
		t.Fatalf("new record is %+v, want zero", *r)
	}
	r.a = 7
	if got := tab.Add(sid(1)); got != r {
		t.Fatal("Add of an existing id made a second record")
	}
	if got := tab.Get(sid(1)); got != r || got.a != 7 {
		t.Fatal("Get does not return the added record")
	}
	tab.Add(sid(2)).a = 9
	if tab.Len() != 2 || tab.Get(sid(1)).a != 7 || tab.Get(sid(2)).a != 9 {
		t.Fatal("two ids do not keep two records")
	}
	if !tab.Delete(sid(1)) || tab.Delete(sid(1)) {
		t.Fatal("Delete reports the wrong presence")
	}
	if tab.Get(sid(1)) != nil || tab.Len() != 1 || tab.Get(sid(2)).a != 9 {
		t.Fatal("Delete removed the wrong record")
	}
}

// TestReusedSlotIsZeroed: a deleted position goes to the next Add, which
// must see a zero record, not the deleted stream's state.
func TestReusedSlotIsZeroed(t *testing.T) {
	var tab Table[rec]
	a := tab.Add(sid(1))
	*a = rec{a: 1, b: 2, c: 3, d: true}
	tab.Add(sid(2)).a = 5
	tab.Delete(sid(1))
	b := tab.Add(sid(3))
	if b != a {
		t.Fatal("the freed position was not reused")
	}
	if *b != (rec{}) {
		t.Fatalf("reused record is %+v, want zero", *b)
	}
	if tab.Get(sid(2)).a != 5 {
		t.Fatal("reuse disturbed a live record")
	}
}

// TestDeleteInvalidatesLastHit: the single-entry cache must not hand out
// a deleted record, or the record of the stream that reused its memory.
func TestDeleteInvalidatesLastHit(t *testing.T) {
	var tab Table[rec]
	tab.Add(sid(1)).a = 1
	if tab.Get(sid(1)) == nil { // primes the cache
		t.Fatal("missing record")
	}
	tab.Delete(sid(1))
	if tab.Get(sid(1)) != nil {
		t.Fatal("Get served a deleted id from its cache")
	}
	tab.Add(sid(2)).a = 2 // reuses id 1's position
	if tab.Get(sid(1)) != nil {
		t.Fatal("Get served a deleted id through its reused position")
	}
	// Deleting another id keeps the cached one valid.
	tab.Add(sid(3))
	tab.Get(sid(2))
	tab.Delete(sid(3))
	if r := tab.Get(sid(2)); r == nil || r.a != 2 {
		t.Fatal("deleting one id invalidated another's record")
	}
}

func TestAllVisitsEachLiveIDOnce(t *testing.T) {
	var tab Table[rec]
	const n = 1000
	for i := 1; i <= n; i++ {
		tab.Add(sid(i)).a = uint64(i)
	}
	for i := 1; i <= n; i += 3 {
		tab.Delete(sid(i))
	}
	seen := make(map[wire.StreamID]int)
	for id, r := range tab.All() {
		if r.a != uint64(id) {
			t.Fatalf("id %d yielded record %d", id, r.a)
		}
		seen[id]++
	}
	for i := 1; i <= n; i++ {
		want := 1
		if (i-1)%3 == 0 {
			want = 0
		}
		if seen[sid(i)] != want {
			t.Fatalf("id %d yielded %d times, want %d", i, seen[sid(i)], want)
		}
	}
	if len(seen) != tab.Len() {
		t.Fatalf("yielded %d ids, Len %d", len(seen), tab.Len())
	}
	stopped := 0
	for range tab.All() {
		stopped++
		break
	}
	if stopped != 1 {
		t.Fatal("break did not stop the walk")
	}
}

// TestLocateAcrossChunkCap checks the position arithmetic against a
// direct walk of the chunk lengths, past the point where chunks stop
// doubling, and that records keep their addresses as chunks are added.
func TestLocateAcrossChunkCap(t *testing.T) {
	chunk, off := uint32(0), uint32(0)
	for pos := uint32(0); pos < capStart+5*fullChunk; pos++ {
		if c, o := locate(pos); c != chunk || o != off {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", pos, c, o, chunk, off)
		}
		if off++; int(off) == chunkLen(int(chunk)) {
			chunk, off = chunk+1, 0
		}
	}
	if chunkLen(0) != minChunk || chunkLen(capChunk-1) != minChunk<<(capChunk-1) || chunkLen(capChunk) != fullChunk {
		t.Fatal("chunk lengths do not double from minChunk and then stay at fullChunk")
	}

	var tab Table[rec]
	const n = capStart + 3*fullChunk + 7
	ptrs := make([]*rec, n)
	for i := range ptrs {
		ptrs[i] = tab.Add(sid(i))
		ptrs[i].a = uint64(i)
	}
	for i, p := range ptrs {
		if tab.Get(sid(i)) != p || p.a != uint64(i) {
			t.Fatalf("record %d moved or changed as the table grew", i)
		}
	}
	if got, want := len(tab.chunks), capChunk+4; got != want {
		t.Fatalf("%d records in %d chunks, want %d", n, got, want)
	}
}

// TestTableFootprint pins what the table costs per record beyond the
// record itself: about 12 bytes of pointer-free index, where a map of
// pointers costs 24 and rounds each record up to its size class. A small
// table stays small because the first chunk holds minChunk records.
func TestTableFootprint(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	if size := unsafe.Sizeof(rec{}); size != 16 {
		t.Fatalf("rec is %d bytes, want 16", size)
	}
	const n = 100_000
	before := heap()
	big := new(Table[rec])
	for i := 0; i < n; i++ {
		big.Add(sid(i))
	}
	perEntry := float64(heap()-before) / n
	runtime.KeepAlive(big)
	t.Logf("%d entries of a 16-byte record: %.1f B/entry", n, perEntry)
	if perEntry > 30 {
		t.Fatalf("%.1f B/entry, budget 30", perEntry)
	}

	// Too small for the live heap to resolve: count every byte its
	// construction allocates instead, an upper bound on what it holds.
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	before = allocated()
	small := new(Table[rec])
	for i := 0; i < 4; i++ {
		small.Add(sid(i))
	}
	held := allocated() - before
	runtime.KeepAlive(small)
	t.Logf("a 4-entry table holds at most %d B", held)
	if held > 1024 {
		t.Fatalf("a 4-entry table holds %d B, budget 1024", held)
	}
}
