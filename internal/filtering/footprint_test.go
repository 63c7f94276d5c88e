package filtering

import (
	"testing"
	"unsafe"
)

// TestStreamFilterFootprint pins the per-stream screen state size. Every
// stream ever heard holds one window and one pointer to its rest, in place
// in its owner's record, so every byte added here is paid by every idle
// sensor. The window is the contiguous seen range in four bytes, which is
// what lets the Stream Store's record take it in the hole beside its
// count; with the pointer, the standalone filter's record is 16 bytes.
func TestStreamFilterFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Window{}); got > 4 {
		t.Fatalf("Window is %d bytes, budget 4 — repack before growing it", got)
	}
	if got := unsafe.Sizeof(streamFilter{}); got > 16 {
		t.Fatalf("streamFilter is %d bytes, budget 16 — repack before growing it", got)
	}
}
