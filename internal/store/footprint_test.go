package store

import (
	"reflect"
	"testing"
	"unsafe"
)

// sizeClass rounds n up to the Go allocator's small size class.
func sizeClass(n uintptr) uintptr {
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256} {
		if n <= c {
			return c
		}
	}
	return n
}

// TestRingFootprint pins what one idle stream costs the heap: the ring
// header and a one-entry slot array holding a 16-byte payload, each in its
// allocator size class. One of each exists for every stream the store has
// ever seen, so a field added carelessly (or a reorder that reopens
// padding holes) taxes every sensor in a million-sensor deployment. The
// budget is 272: a 208-byte header and a 64-byte slot. The header holds
// the stream's append history (a count and two instants, 32 bytes) that
// Discover reads, which no other layer keeps, and which moves it from the
// 176 class to 208. The slot itself is pinned to one cache line, which is
// what a 64-byte size class aligns it to.
func TestRingFootprint(t *testing.T) {
	header, entry := sizeClass(unsafe.Sizeof(ring{})), sizeClass(unsafe.Sizeof(slot{}))
	if got := header + entry; got > 272 || inlinePayload < 16 {
		t.Fatalf("idle stream is %d + %d = %d bytes (payloads to %d bytes included), budget 272 with 16 — repack before growing it",
			header, entry, got, inlinePayload)
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
