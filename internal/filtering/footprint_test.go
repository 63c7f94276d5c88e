package filtering

import (
	"testing"
	"unsafe"
)

// TestStreamFilterFootprint pins the per-stream filter state size. The
// filter holds one of these for every stream ever heard, in place in its
// shard's table, so every byte added here is paid by every idle sensor:
// the contiguous seen range and one pointer to the rest fill 16 bytes.
func TestStreamFilterFootprint(t *testing.T) {
	if got := unsafe.Sizeof(streamFilter{}); got > 16 {
		t.Fatalf("streamFilter is %d bytes, budget 16 — repack before growing it", got)
	}
}
