package archive

import (
	"testing"
	"unsafe"
)

// TestRefFootprint pins Ref at 48 bytes. The store keeps one Ref in
// memory for every block an archive holds, so a field added or reordered
// carelessly (Count and Codec share the last word) taxes every archived
// block of every stream.
func TestRefFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Ref{}); got != 48 {
		t.Fatalf("archive.Ref is %d bytes, want 48 — repack before growing it", got)
	}
}

// TestFSExtentFootprint pins what FS keeps in memory per archived block:
// the extent Open and DeleteBefore need, at most 32 bytes. The block's
// full Ref lives in its manifest record, which List and Streams replay.
func TestFSExtentFootprint(t *testing.T) {
	if got := unsafe.Sizeof(fsExtent{}); got > 32 {
		t.Fatalf("the FS index keeps %d bytes per block, budget 32", got)
	}
}
