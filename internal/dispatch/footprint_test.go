package dispatch

import (
	"testing"
	"unsafe"
)

// TestRecordFootprints pins the dispatcher's long-lived record sizes. None
// of them is per stream — the dispatcher keeps no record of a stream it has
// routed — but subscription records ride the wildcard snapshot slice, so
// they stay pinned.
func TestRecordFootprints(t *testing.T) {
	for _, c := range []struct {
		name   string
		got    uintptr
		budget uintptr
	}{
		{"subscription", unsafe.Sizeof(subscription{}), 40},
		{"Pattern", unsafe.Sizeof(Pattern{}), 24},
	} {
		if c.got > c.budget {
			t.Errorf("%s is %d bytes, budget %d — repack before growing it", c.name, c.got, c.budget)
		}
	}
}
