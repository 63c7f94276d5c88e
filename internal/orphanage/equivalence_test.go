package orphanage

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// legacyOrphanage is the pre-store implementation — per-stream FIFO
// backlog slices plus the silence heap — kept verbatim as the behavioural
// reference: the store-backed Orphanage must produce the same claims,
// the same infos and the same eviction order.
type legacyOrphanage struct {
	opts    Options
	streams map[wire.StreamID]*legacyStream
	silence legacyHeap
	stats   Stats
}

type legacyStream struct {
	id        wire.StreamID
	buf       []filtering.Delivery
	bytes     int64
	seen      int64
	firstSeen time.Time
	lastSeen  time.Time
	heapIdx   int
}

type legacyHeap []*legacyStream

func (h legacyHeap) Len() int           { return len(h) }
func (h legacyHeap) Less(i, j int) bool { return h[i].lastSeen.Before(h[j].lastSeen) }
func (h legacyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *legacyHeap) Push(x any) {
	st := x.(*legacyStream)
	st.heapIdx = len(*h)
	*h = append(*h, st)
}
func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old)
	st := old[n-1]
	old[n-1] = nil
	st.heapIdx = -1
	*h = old[:n-1]
	return st
}

func newLegacy(opts Options) *legacyOrphanage {
	return &legacyOrphanage{
		opts:    withDefaults(opts),
		streams: make(map[wire.StreamID]*legacyStream),
	}
}

func (o *legacyOrphanage) consume(d filtering.Delivery) {
	o.stats.TotalSeen++
	st, ok := o.streams[d.Msg.Stream]
	if !ok {
		if len(o.streams) >= o.opts.maxStreams {
			o.evictStalest()
		}
		st = &legacyStream{id: d.Msg.Stream, firstSeen: d.At, lastSeen: d.At}
		o.streams[d.Msg.Stream] = st
		heap.Push(&o.silence, st)
	}
	st.seen++
	st.lastSeen = d.At
	heap.Fix(&o.silence, st.heapIdx)
	if len(st.buf) >= o.opts.PerStreamCapacity {
		o.stats.MessagesDropped++
		st.bytes -= int64(len(st.buf[0].Msg.Payload))
		st.buf = st.buf[1:]
	}
	st.buf = append(st.buf, d)
	st.bytes += int64(len(d.Msg.Payload))
}

func (o *legacyOrphanage) evictStalest() {
	if len(o.silence) == 0 {
		return
	}
	st := heap.Pop(&o.silence).(*legacyStream)
	delete(o.streams, st.id)
	o.stats.StreamsEvicted++
}

func (o *legacyOrphanage) claim(id wire.StreamID) ([]filtering.Delivery, bool) {
	st, ok := o.streams[id]
	if !ok {
		return nil, false
	}
	delete(o.streams, id)
	heap.Remove(&o.silence, st.heapIdx)
	o.stats.Claims++
	return st.buf, true
}

func (o *legacyOrphanage) evictBefore(cutoff time.Time) int {
	n := 0
	for len(o.silence) > 0 && o.silence[0].lastSeen.Before(cutoff) {
		o.evictStalest()
		n++
	}
	return n
}

func (o *legacyOrphanage) info(id wire.StreamID) (Info, bool) {
	st, ok := o.streams[id]
	if !ok {
		return Info{}, false
	}
	info := Info{
		Stream: id, Seen: st.seen, Buffered: len(st.buf), Bytes: st.bytes,
		FirstSeen: st.firstSeen, LastSeen: st.lastSeen,
	}
	if st.seen >= 2 {
		if span := st.lastSeen.Sub(st.firstSeen).Seconds(); span > 0 {
			info.Rate = float64(st.seen-1) / span
		}
	}
	return info, true
}

func (o *legacyOrphanage) snapshot() Stats {
	s := o.stats
	s.StreamsHeld = len(o.streams)
	for _, st := range o.streams {
		s.MessagesHeld += len(st.buf)
	}
	return s
}

// TestStoreBackedOrphanageMatchesLegacyProperty drives the store-backed
// Orphanage and the legacy buffer-based implementation with identical
// randomized workloads — consumes across many streams (ascending
// per-stream wire seqs, random payloads and timestamps), claims of held
// and unheld streams, and age sweeps — and demands identical claims
// (message-for-message), infos, stats and eviction victims throughout.
func TestStoreBackedOrphanageMatchesLegacyProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		opts := Options{
			PerStreamCapacity: []int{3, 8, 40}[trial%3],
			maxStreams:        []int{4, 12}[trial%2],
		}
		o := newOrphanage(opts)
		ref := newLegacy(opts)

		nextSeq := map[wire.StreamID]int{}
		now := epoch
		for step := 0; step < 600; step++ {
			now = now.Add(time.Duration(rng.Intn(900)+1) * time.Millisecond)
			id := wire.MustStreamID(wire.SensorID(rng.Intn(20)+1), 0)
			switch k := rng.Intn(12); {
			case k < 8:
				payload := make([]byte, rng.Intn(16))
				for i := range payload {
					payload[i] = byte(rng.Intn(256))
				}
				d := del(id, wire.Seq(nextSeq[id]), now, payload)
				nextSeq[id]++
				o.Consume(d)
				ref.consume(d)
			case k < 10:
				got, gotOK := o.Claim(id)
				want, wantOK := ref.claim(id)
				if gotOK != wantOK {
					t.Fatalf("trial %d step %d: Claim(%v) ok=%v, legacy %v", trial, step, id, gotOK, wantOK)
				}
				if err := sameBacklog(got, want); err != nil {
					t.Fatalf("trial %d step %d: Claim(%v): %v", trial, step, id, err)
				}
			default:
				cutoff := now.Add(-time.Duration(rng.Intn(5000)) * time.Millisecond)
				if got, want := o.EvictBefore(cutoff), ref.evictBefore(cutoff); got != want {
					t.Fatalf("trial %d step %d: EvictBefore evicted %d, legacy %d", trial, step, got, want)
				}
			}

			// Every step: aggregate stats and per-stream infos must agree.
			got, want := o.Stats(), ref.snapshot()
			if got != want {
				t.Fatalf("trial %d step %d: stats %+v, legacy %+v", trial, step, got, want)
			}
			gotInfo, gotOK := o.StreamInfo(id)
			wantInfo, wantOK := ref.info(id)
			if gotOK != wantOK || gotInfo != wantInfo {
				t.Fatalf("trial %d step %d: info(%v) %+v/%v, legacy %+v/%v",
					trial, step, id, gotInfo, gotOK, wantInfo, wantOK)
			}
		}

		// Drain: every remaining stream claims identically.
		for _, info := range o.Streams() {
			got, _ := o.Claim(info.Stream)
			want, _ := ref.claim(info.Stream)
			if err := sameBacklog(got, want); err != nil {
				t.Fatalf("trial %d drain %v: %v", trial, info.Stream, err)
			}
		}
	}
}

func sameBacklog(got, want []filtering.Delivery) error {
	if len(got) != len(want) {
		return fmt.Errorf("backlog length %d, legacy %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Msg.Stream != w.Msg.Stream || g.Msg.Seq != w.Msg.Seq ||
			!g.At.Equal(w.At) || !bytes.Equal(g.Msg.Payload, w.Msg.Payload) {
			return fmt.Errorf("entry %d: got seq %d at %v, legacy seq %d at %v",
				i, g.Msg.Seq, g.At, w.Msg.Seq, w.At)
		}
	}
	return nil
}
