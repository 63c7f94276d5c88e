package main

import (
	"encoding/binary"
	"sort"
	"sync/atomic"
	"time"

	"github.com/garnet-middleware/garnet"
)

// payloadSize is the size of every bench payload: the sample id and the
// time the sample was due, in nanoseconds since the run's base time.
const payloadSize = 16

func putPayload(b []byte, id uint64, due int64) {
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[8:], uint64(due))
}

// samples is a fixed-capacity, concurrently appendable set of timings in
// nanoseconds. Observations past the capacity are counted and dropped.
type samples struct {
	n atomic.Int64
	v []int64
}

func newSamples(capacity int) *samples { return &samples{v: make([]int64, capacity)} }

func (s *samples) add(ns int64) {
	if s == nil {
		return
	}
	if i := s.n.Add(1) - 1; i < int64(len(s.v)) {
		s.v[i] = ns
	}
}

// values returns the timings in the order they were observed.
func (s *samples) values() []int64 {
	if s == nil {
		return nil
	}
	return append([]int64(nil), s.v[:min(s.n.Load(), int64(len(s.v)))]...)
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rankUs is the p-th percentile (0..100) of sorted timings in
// microseconds, by nearest rank; 0 when there are none.
func rankUs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100 + 0.5)
	i = min(max(i, 1), len(sorted))
	return float64(sorted[i-1]) / 1e3
}

// percentileUs is the p-th percentile of timings in any order.
func percentileUs(v []int64, p float64) float64 { return rankUs(sortedCopy(v), p) }

// slot is the tracker's record of one in-flight sample.
type slot struct {
	id        uint64
	expect    uint32 // consumers that must consume the sample, one bit each
	due       int64
	seen      atomic.Uint32
	remaining atomic.Int32
	// dispatched is when the generator's call into the system returned, 0
	// until then; only the chain pass records it.
	dispatched atomic.Int64
}

// mark records that consumer bit has consumed the sample and reports
// whether this was its first time.
func (s *slot) mark(bit uint32) bool {
	for {
		old := s.seen.Load()
		if old&bit != 0 {
			return false
		}
		if s.seen.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// tracker follows every sample from the generator to its consumers. It is
// the closed loop (a completion returns a token to the generator), the
// latency probe, and half of the output checker: it counts any delivery
// that is not the first of an expected (sample, consumer) pair.
type tracker struct {
	base   time.Time
	slots  []slot
	tokens chan struct{}

	completed atomic.Int64
	strays    atomic.Int64 // deliveries of an unknown sample, a repeat, or to a consumer not matched

	lat  *samples // due → last matched Consume, while recording
	air  *samples // due → Delivery.At of the completing copy
	wait *samples // generator's call returned → last matched Consume
}

// trackerSlots bounds how many samples may be in flight; a power of two.
const trackerSlots = 1 << 16

func newTracker() *tracker {
	return &tracker{base: time.Now(), slots: make([]slot, trackerSlots)}
}

func (t *tracker) now() int64 { return int64(time.Since(t.base)) }

// open starts a phase with the given window, all tokens available.
func (t *tracker) open(window int) {
	t.tokens = make(chan struct{}, window)
	for i := 0; i < window; i++ {
		t.tokens <- struct{}{}
	}
}

// launch records a sample the generator is about to emit.
func (t *tracker) launch(id uint64, expect uint32, n int32, due int64) *slot {
	s := &t.slots[id&(trackerSlots-1)]
	s.id, s.expect, s.due = id, expect, due
	s.seen.Store(0)
	s.dispatched.Store(0)
	s.remaining.Store(n)
	return s
}

// consumed is called by consumer bit for every delivery it receives.
func (t *tracker) consumed(bit uint32, d *garnet.Delivery) {
	if len(d.Msg.Payload) != payloadSize {
		t.strays.Add(1)
		return
	}
	id := binary.LittleEndian.Uint64(d.Msg.Payload)
	s := &t.slots[id&(trackerSlots-1)]
	if s.id != id || s.expect&bit == 0 || !s.mark(bit) {
		t.strays.Add(1)
		return
	}
	if s.remaining.Add(-1) != 0 {
		return
	}
	if t.lat != nil {
		now := t.now()
		t.lat.add(now - s.due)
		t.air.add(int64(d.At.Sub(t.base)) - s.due)
		if at := s.dispatched.Load(); at != 0 {
			t.wait.add(max(now-at, 0))
		} else {
			t.wait.add(0) // consumed before the generator's call returned
		}
	}
	t.completed.Add(1)
	t.tokens <- struct{}{}
}

// drain waits until every token is back, i.e. nothing is in flight, and
// returns how many samples were still missing at the deadline.
func (t *tracker) drain(timeout time.Duration) int {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for got := 0; got < cap(t.tokens); got++ {
		select {
		case <-t.tokens:
		case <-deadline.C:
			return cap(t.tokens) - got
		}
	}
	return 0
}

// trackConsumer is a bench consumer: it reports every delivery to the
// tracker and checks its own view of each stream's StoreSeq order.
type trackConsumer struct {
	name string
	bit  uint32
	trk  *tracker
	// last is the last StoreSeq seen per sensor, indexed by sensor id; the
	// bench gives each sensor one stream.
	last  []uint64
	count int64
	// inversions counts deliveries whose StoreSeq is not above the previous
	// one on the same stream: each is a late copy the filter accepted into a
	// gap, and the checker holds the count to the filter's own.
	inversions int64
}

func newTrackConsumer(name string, index int, trk *tracker, sensors int) *trackConsumer {
	return &trackConsumer{name: name, bit: 1 << index, trk: trk, last: make([]uint64, sensors+1)}
}

func (c *trackConsumer) Name() string { return c.name }

func (c *trackConsumer) Consume(d garnet.Delivery) {
	i := d.Msg.Stream.Sensor()
	if d.StoreSeq <= c.last[i] {
		c.inversions++
	}
	c.last[i] = d.StoreSeq
	c.count++
	c.trk.consumed(c.bit, &d)
}

// batchTrackConsumer is a trackConsumer that takes the drainer's batches
// whole.
type batchTrackConsumer struct{ *trackConsumer }

func (c batchTrackConsumer) ConsumeBatch(ds []garnet.Delivery) {
	for i := range ds {
		c.Consume(ds[i])
	}
}
