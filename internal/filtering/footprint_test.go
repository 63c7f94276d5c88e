package filtering

import (
	"testing"
	"unsafe"
)

// TestStreamFilterFootprint pins the per-stream filter state size. The
// filter holds one of these for every stream ever heard; 48 bytes is a Go
// allocator size class, so crossing it costs every idle sensor a further
// invisible 16 bytes.
func TestStreamFilterFootprint(t *testing.T) {
	if got := unsafe.Sizeof(streamFilter{}); got > 48 {
		t.Fatalf("streamFilter is %d bytes, budget 48 — repack before growing it", got)
	}
}
