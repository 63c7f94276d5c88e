package dispatch

import (
	"runtime"
	"testing"
	"time"
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

// TestIdleAsyncPortFootprint pins that an async port costs what its
// backlog needs, not what its capacity allows: 64 started, parked ports
// of capacity 4096 must hold at most 16 KB of heap each — the ring's first
// 64-slot segment, the drainer's batch buffer and the port's own records.
// A ring that preallocated its capacity held 4096 × 112 B ≈ 458 KB each.
func TestIdleAsyncPortFootprint(t *testing.T) {
	const ports, budget = 64, 16 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := New(Options{Mode: ModeAsync, QueueCapacity: 4096})
	for i := 0; i < ports; i++ {
		if _, err := d.Subscribe(&recorder{name: "idle"}, All()); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()
	time.Sleep(20 * time.Millisecond) // let every drainer take its batch buffer and park
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPort := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / ports
	d.Stop()
	if perPort > budget {
		t.Fatalf("an idle async port of capacity 4096 holds %d B of heap, budget %d", perPort, budget)
	}
	t.Logf("%d B of heap per idle async port", perPort)
}
