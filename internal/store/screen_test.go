package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// screenStep is one step of a screening script: a batch of copies of one
// message, a Forget of one stream, or time passing.
type screenStep struct {
	copies  []receiver.Reception
	forget  wire.StreamID
	advance time.Duration
}

// screenScript is a seeded script over a dozen streams in four shards.
// Each message is heard 1–6 times, by different receivers, some copies
// with a borrowed payload the caller overwrites once Ingest returns. It
// mixes in-order runs, adjacent swaps, gaps, jumps of at least the window,
// copies of recent sequences and stale ones a window or more behind, with
// a third of the streams starting just below the 16-bit wrap, and now and
// then forgets a stream in the store and has it resume by resending part
// of what it sent before.
func screenScript(seed int64, steps int) []screenStep {
	const window = filtering.DefaultWindowSize
	rng := rand.New(rand.NewSource(seed))
	ids := make([]wire.StreamID, 12)
	heads := make([]int, len(ids))
	for i := range ids {
		ids[i] = wire.MustStreamID(wire.SensorID(i/2+1), wire.StreamIndex(i%2))
		if i%3 == 0 {
			heads[i] = wire.SeqCount - 40 - rng.Intn(40)
		}
	}
	payload := func(seq int) []byte {
		seq &= wire.SeqCount - 1
		return []byte(fmt.Sprintf("m%023d", seq)[:1+seq%24])
	}
	var script []screenStep
	send := func(i, seq int) {
		n := 1 + rng.Intn(6)
		var copies []receiver.Reception
		for c := 0; c < n; c++ {
			copies = append(copies, receiver.Reception{
				Msg: wire.Message{Stream: ids[i], Seq: wire.Seq(seq), Payload: payload(seq),
					Flags: wire.Flags(seq % 2)},
				Receiver: fmt.Sprintf("rx-%d", c), RSSI: 1 / float64(c+1),
				Borrowed: rng.Intn(2) == 0,
			})
		}
		script = append(script, screenStep{copies: copies})
	}
	for len(script) < steps {
		i := rng.Intn(len(ids))
		h := heads[i]
		switch r := rng.Intn(100); {
		case r < 40: // in order
			heads[i]++
			send(i, heads[i])
		case r < 50: // adjacent swap
			heads[i] += 2
			send(i, heads[i])
			send(i, heads[i]-1)
		case r < 60: // gap, some filled later by the copies below
			heads[i] += 2 + rng.Intn(20)
			send(i, heads[i])
		case r < 64: // jump of at least the window
			heads[i] += window + rng.Intn(3*window)
			send(i, heads[i])
		case r < 80: // a copy of something recent: duplicate or late fill
			send(i, h-rng.Intn(40))
		case r < 88: // stale: a window or more behind
			send(i, h-window-rng.Intn(window))
		case r < 91: // forget in the store, then resume with old traffic
			script = append(script, screenStep{forget: ids[i]})
			for k := 3; k > 0; k-- {
				send(i, h-k*rng.Intn(3))
			}
		default:
			script = append(script, screenStep{advance: time.Duration(rng.Intn(3000)) * time.Microsecond})
		}
	}
	return script
}

// screenRun is what one side of the equivalence test produced.
type screenRun struct {
	held, flushed []filtering.Delivery // before and by the closing flush
	filter        filtering.Stats
	store         Stats
}

// runScreenScript drives one side: merged (Store.Ingest) or the
// two-layer reference (a standalone Filter whose sink appends to a Store,
// as a deployment was wired before the screen moved into the store). Both
// forget in the store only, as a deployment does.
func runScreenScript(script []screenStep, merged bool, hold time.Duration, sopts Options) screenRun {
	clock := sim.NewVirtualClock(epoch)
	s := New(sopts)
	var run screenRun
	out := &run.held
	collect := func(d filtering.Delivery) { *out = append(*out, d) }
	fopts := filtering.Options{Shards: sopts.Shards}
	if hold > 0 {
		fopts.ReorderWindow, fopts.Clock = hold, clock
	}
	var ingest func(rc receiver.Reception)
	var f *filtering.Filter
	if merged {
		s.ScreenWith(fopts, collect)
		ingest = func(rc receiver.Reception) {
			if d, ok := s.Ingest(rc); ok {
				collect(d)
			}
		}
	} else {
		f = filtering.New(func(d filtering.Delivery) {
			d.StoreSeq = s.Append(d)
			collect(d)
		}, fopts)
		ingest = f.Ingest
	}
	for _, st := range script {
		switch {
		case st.copies != nil:
			for _, rc := range st.copies {
				rc.At = clock.Now()
				if rc.Borrowed {
					rc.Msg.Payload = slices.Clone(rc.Msg.Payload)
				}
				ingest(rc)
				if rc.Borrowed {
					clear(rc.Msg.Payload) // the frame buffer moves on
				}
			}
		case st.forget != 0:
			s.Forget(st.forget)
		default:
			clock.Advance(st.advance)
		}
	}
	clock.Advance(hold / 2)
	out = &run.flushed
	if merged {
		s.Flush()
		run.filter = s.ScreenStats()
	} else {
		f.Flush()
		run.filter = f.Stats()
	}
	run.store = s.Stats()
	return run
}

// perStreamOrder groups deliveries by stream, keeping each stream's order.
func perStreamOrder(ds []filtering.Delivery) map[wire.StreamID][]filtering.Delivery {
	m := make(map[wire.StreamID][]filtering.Delivery)
	for _, d := range ds {
		m[d.Msg.Stream] = append(m[d.Msg.Stream], d)
	}
	return m
}

// TestIngestMatchesFilterThenAppend holds the merged screen to the
// two-layer pipeline it replaced: for one seeded script, Store.Ingest must
// deliver exactly what a standalone Filter appending to a Store delivers —
// Msg, At, Receiver, RSSI and StoreSeq, in the same order — and end with
// identical filtering.Stats and store Stats, with and without a reorder
// window on a virtual clock, over the default store and a small sealing
// one. A closing flush releases what is still held; across streams its
// order is a table walk's, so only each stream's order must match there.
func TestIngestMatchesFilterThenAppend(t *testing.T) {
	stores := map[string]Options{
		"default": {Shards: 4},
		"sealing": {Shards: 4, MaxMessages: 8, Codec: "auto", BlockSize: 4},
	}
	seeds := int64(8)
	if raceEnabled {
		// One goroutine drives both sides, virtual timers included: the
		// race detector has little to find here and much time to spend.
		seeds = 2
	}
	for name, sopts := range stores {
		for _, hold := range []time.Duration{0, 5 * time.Millisecond} {
			for seed := int64(1); seed <= seeds; seed++ {
				script := screenScript(seed, 3000)
				ref := runScreenScript(script, false, hold, sopts)
				got := runScreenScript(script, true, hold, sopts)
				where := fmt.Sprintf("store %s, reorder %v, seed %d", name, hold, seed)
				if ref.filter.Delivered == 0 || ref.filter.Duplicates == 0 || ref.filter.Stale == 0 ||
					ref.filter.GapsRecovered == 0 || ref.filter.Gaps <= ref.filter.GapsRecovered {
					t.Fatalf("%s: the script missed a verdict: %+v", where, ref.filter)
				}
				if hold > 0 && len(ref.flushed) == 0 {
					t.Fatalf("%s: nothing was left for the flush", where)
				}
				if len(got.held) != len(ref.held) {
					t.Fatalf("%s: merged delivered %d before the flush, reference %d", where, len(got.held), len(ref.held))
				}
				for i := range ref.held {
					if !reflect.DeepEqual(got.held[i], ref.held[i]) {
						t.Fatalf("%s: delivery %d differs\n merged    %+v\n reference %+v", where, i, got.held[i], ref.held[i])
					}
				}
				if !reflect.DeepEqual(perStreamOrder(got.flushed), perStreamOrder(ref.flushed)) {
					t.Fatalf("%s: the flush released different deliveries", where)
				}
				if got.filter != ref.filter {
					t.Fatalf("%s: screen stats differ\n merged    %+v\n reference %+v", where, got.filter, ref.filter)
				}
				if got.store != ref.store {
					t.Fatalf("%s: store stats differ\n merged    %+v\n reference %+v", where, got.store, ref.store)
				}
			}
		}
	}
}
