package store

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"
	"unsafe"

	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestMain checks, after every test in the package has run — the
// property tests and the concurrent storms included — that noTail is
// still the zero value: it is every idle ring's tail, so one write
// through it without ownTail would corrupt all of them at once.
func TestMain(m *testing.M) {
	code := m.Run()
	if !reflect.ValueOf(*noTail).IsZero() {
		fmt.Fprintln(os.Stderr, "FAIL: noTail is no longer the zero value: a write went through a shared tail without ownTail")
		code = 1
	}
	os.Exit(code)
}

// sizeClass rounds n up to the Go allocator's small size class.
func sizeClass(n uintptr) uintptr {
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256} {
		if n <= c {
			return c
		}
	}
	return n
}

// TestRingFootprint pins what one idle stream costs the heap: the record
// — duplicate screen and ring header — and a one-entry slot array holding
// a 16-byte payload. One of each exists for every stream the store has
// ever seen, so a field added carelessly (or a reorder that reopens
// padding holes) taxes every sensor in a million-sensor deployment. The
// record sits in place in its shard's table, so it costs its own size, not
// its allocator size class; the slot array is an allocation of its own and
// costs its class. The budget is 176: a 112-byte record and a 64-byte
// slot. The record's screen is the four-byte window, in the hole beside
// count, and the pointer to its bitmap and reorder hold (8 bytes more than
// the ring header alone, where a window of its own in a filter table cost
// 16 bytes and an index entry). The record holds the stream's append
// history (a count and two instants, 32 bytes) that Discover reads, which
// no other layer keeps; the arena and the cold tier, which an idle stream
// with short payloads and no codec never uses, live in the tail behind one
// pointer and are not counted here. The slot itself is pinned to one cache
// line, which is what a 64-byte size class aligns it to.
func TestRingFootprint(t *testing.T) {
	header, entry := unsafe.Sizeof(ring{}), sizeClass(unsafe.Sizeof(slot{}))
	if got := header + entry; got > 176 || inlinePayload < 16 {
		t.Fatalf("idle stream is %d + %d = %d bytes (payloads to %d bytes included), budget 176 with 16 — repack before growing it",
			header, entry, got, inlinePayload)
	}
	if off := unsafe.Offsetof(ring{}.rest) + unsafe.Sizeof(ring{}.rest); off > 64 {
		t.Fatalf("the screen ends at byte %d of the record: a duplicate copy would read a second cache line", off)
	}
	if got := unsafe.Sizeof(slot{}); got != 64 {
		t.Fatalf("slot is %d bytes, want one 64-byte cache line", got)
	}
}

// TestSlotIsPointerFree keeps the hot tier out of the garbage collector's
// way: a slot array is allocated noscan only while no field of the record
// holds a pointer, so a later string, slice or time.Time field would bring
// back a mark-phase walk over every retained delivery without failing
// anything else.
func TestSlotIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(slot{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		k := f.Type.Kind()
		if k == reflect.Array { // the inline payload: judged by its element
			k = f.Type.Elem().Kind()
		}
		switch k {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("slot.%s is a %v: only fixed-size numeric fields keep the slot array noscan", f.Name, k)
		}
	}
}

// TestIdleStreamOwnsNoTail holds the split between header and tail: a
// stream whose payloads fit its slots and that has no codec never owns a
// tail, one longer payload gives it one, Forget takes it back, and a
// stream with a codec keeps its tail while it holds sealed or staged
// entries.
func TestIdleStreamOwnsNoTail(t *testing.T) {
	s := New(Options{})
	owns := func(s *Store, id wire.StreamID) bool {
		sh := s.shardFor(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.rings.Get(id).tail != noTail
	}
	for sensor := 1; sensor <= 1000; sensor++ {
		id := wire.MustStreamID(wire.SensorID(sensor), 0)
		s.Append(del(id, 1, epoch, bytes.Repeat([]byte{byte(sensor)}, inlinePayload)))
		s.Append(del(id, 2, epoch, bytes.Repeat([]byte{byte(sensor)}, inlinePayload)))
	}
	for sensor := 1; sensor <= 1000; sensor++ {
		if id := wire.MustStreamID(wire.SensorID(sensor), 0); owns(s, id) {
			t.Fatalf("stream %v owns a tail with only %d-byte payloads", id, inlinePayload)
		}
	}
	long := wire.MustStreamID(7, 0)
	s.Append(del(long, 3, epoch, bytes.Repeat([]byte{7}, 40)))
	if !owns(s, long) {
		t.Fatal("a 40-byte payload was retained without a tail to hold it")
	}
	if st, _ := s.StreamStats(long); st.ResidentBytes < int64(unsafe.Sizeof(ring{})+unsafe.Sizeof(tail{})) {
		t.Fatalf("resident %d B does not count the tail", st.ResidentBytes)
	}
	if other := wire.MustStreamID(8, 0); owns(s, other) {
		t.Fatal("a neighbour's long payload gave this stream a tail")
	}
	s.Forget(long)
	if owns(s, long) {
		t.Fatal("Forget kept the tail")
	}

	c := New(Options{Codec: "raw", MaxMessages: 4, BlockSize: 4})
	id := wire.MustStreamID(1, 0)
	for seq := 0; seq < 4; seq++ {
		c.Append(del(id, wire.Seq(seq), epoch, []byte{byte(seq)}))
	}
	if owns(c, id) {
		t.Fatal("a codec stream owns a tail before anything left its hot window")
	}
	for seq := 4; seq < 64; seq++ { // each append moves one entry past the 4 hot slots
		c.Append(del(id, wire.Seq(seq), epoch, []byte{byte(seq)}))
		if st, _ := c.StreamStats(id); !owns(c, id) {
			t.Fatalf("seq %d: %d cold or staged entries without a tail", seq, st.Count-4)
		}
	}
	if st, _ := c.StreamStats(id); st.ColdBlocks == 0 {
		t.Fatalf("nothing sealed: %+v", st)
	}
	c.Forget(id)
	if owns(c, id) {
		t.Fatal("Forget kept the codec stream's tail")
	}
}
