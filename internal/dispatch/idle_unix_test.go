//go:build unix

package dispatch

import (
	"syscall"
	"testing"
	"time"
)

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdlePortsAreParked: the yield is taken once per empty look, not in
// a loop. 64 started ports with no traffic must cost (next to) no CPU: a
// drainer that kept yielding instead of parking would burn a whole core,
// 200 ms of it here.
func TestIdlePortsAreParked(t *testing.T) {
	d := New(Options{Mode: ModeAsync})
	for i := 0; i < 64; i++ {
		if _, err := d.Subscribe(&recorder{name: "idle"}, All()); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()
	defer d.Stop()
	time.Sleep(50 * time.Millisecond) // let every drainer look twice and park
	before := processCPU(t)
	time.Sleep(200 * time.Millisecond)
	if burned := processCPU(t) - before; burned > 20*time.Millisecond {
		t.Fatalf("64 idle ports burned %v of CPU in 200 ms: drainers are not parked", burned)
	}
}
