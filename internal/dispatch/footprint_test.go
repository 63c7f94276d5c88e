package dispatch

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestRecordFootprints pins the dispatcher's long-lived record sizes. None
// of them is per stream — the dispatcher keeps no record of a stream it has
// routed. There is one subscription record per subscription, and the Where
// ones ride the wildcard snapshot; the shard lists and the snapshot's All
// list hold a port pointer per subscription instead.
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
// Each parked drainer is a goroutine too, and its stack is counted apart
// from the heap (StackInuse): at most 4 KB a port, the runtime's 2 KB
// starting stack and one doubling of it (twice that under the race
// detector, whose goroutines start larger). Stacks of goroutines that
// exited earlier in the process are reused and were already in use
// before, so the figure reads low after other tests and is exact alone:
// go test -run Footprint -v ./internal/dispatch.
func TestIdleAsyncPortFootprint(t *testing.T) {
	const ports, heapBudget = 64, 16 << 10
	stackBudget := int64(4 << 10)
	if raceEnabled {
		stackBudget *= 2
	}
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
	heapPerPort := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / ports
	stackPerPort := (int64(after.StackInuse) - int64(before.StackInuse)) / ports
	d.Stop()
	if heapPerPort > heapBudget {
		t.Errorf("an idle async port of capacity 4096 holds %d B of heap, budget %d", heapPerPort, heapBudget)
	}
	if stackPerPort > stackBudget {
		t.Errorf("an idle async port's drainer holds %d B of stack, budget %d", stackPerPort, stackBudget)
	}
	t.Logf("%d B of heap and %d B of stack per idle async port", heapPerPort, stackPerPort)
}
