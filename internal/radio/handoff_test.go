package radio

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/sim"
)

// specSeeds is the fixed seed list of the hand-off spec test, printed on
// failure with the seed that failed. Seed i takes delay mode i%4, loss
// (i/4)%2 and corruption (i/8)%2, so the list covers every combination
// twice.
var specSeeds = []uint64{
	1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
	2584, 4181, 6765, 10946, 17711, 28657, 46368, 75025, 121393, 196418, 317811, 514229, 832040, 1346269, 2178309, 3524578,
}

// specCopy is one copy the spec says must be delivered.
type specCopy struct {
	at       time.Time
	listener int // listener id == attach order (the script never detaches)
	payload  string
}

// specField is a random static field plus a broadcast schedule, with the
// outcome computed from the medium's documented contract rather than from
// its code: a copy goes to every listener whose zone covers the
// transmitter within txRange; loss, then jitter, then corruption are drawn
// in that order from the (seed, broadcast, listener) stream; copies fire
// in (deadline, offer order, listener id) order.
type specField struct {
	params Params
	zones  []geo.Circle
	casts  []specCast
}

type specCast struct {
	wait    time.Duration // clock advance before the offer
	from    geo.Point
	txRange float64
	payload []byte
}

func randomSpecField(rng *rand.Rand, combo int) specField {
	f := specField{params: Params{
		LossProb:    []float64{0, 0.3}[combo/4%2],
		CorruptProb: []float64{0, 0.4}[combo/8%2],
		Seed:        rng.Uint64(),
	}}
	switch combo % 4 {
	case 1: // fixed delay
		f.params.DelayMin, f.params.DelayMax = 2*time.Millisecond, 2*time.Millisecond
	case 2: // jitter over a few values: copies collide on a delay
		f.params.DelayMin, f.params.DelayMax = time.Millisecond, time.Millisecond+3
	case 3: // jitter reaching below zero: the clock clamps those to "now"
		f.params.DelayMin, f.params.DelayMax = -2, 2
	}
	for i, n := 0, 2+rng.IntN(24); i < n; i++ {
		f.zones = append(f.zones, geo.Circle{
			Center: geo.Pt(rng.Float64()*400-200, rng.Float64()*400-200),
			R:      50 + rng.Float64()*250,
		})
	}
	for i, n := 0, 10+rng.IntN(40); i < n; i++ {
		payload := make([]byte, rng.IntN(16))
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		f.casts = append(f.casts, specCast{
			// Mostly no wait: offers pile up on one instant, and under
			// jitter their deadlines interleave.
			wait:    []time.Duration{0, 0, 1, 2, time.Millisecond}[rng.IntN(5)],
			from:    geo.Pt(rng.Float64()*400-200, rng.Float64()*400-200),
			txRange: 50 + rng.Float64()*400,
			payload: payload,
		})
	}
	return f
}

// expected computes the firing sequence and the counters from the spec.
func (f specField) expected() (copies []specCopy, lost, corrupted, outOfRange int64) {
	seed := sim.SubSeed(f.params.Seed, "radio.medium")
	jitter := f.params.DelayMax - f.params.DelayMin
	now := epoch
	for b, c := range f.casts {
		now = now.Add(c.wait)
		reached := 0
		for id, z := range f.zones {
			if d2 := c.from.DistSq(z.Center); d2 > c.txRange*c.txRange || d2 > z.R*z.R {
				continue
			}
			reached++
			rng := newDeliveryRand(seed, uint64(b+1), id)
			if f.params.LossProb > 0 && rng.float64() < f.params.LossProb {
				lost++
				continue
			}
			delay := f.params.DelayMin
			if jitter > 0 {
				delay += time.Duration(rng.int64n(int64(jitter) + 1))
			}
			payload := slices.Clone(c.payload)
			if f.params.CorruptProb > 0 && rng.float64() < f.params.CorruptProb && len(payload) > 0 {
				pos := rng.intn(len(payload))
				payload[pos] ^= 1 << rng.intn(8)
				corrupted++
			}
			copies = append(copies, specCopy{at: now.Add(max(delay, 0)), listener: id, payload: string(payload)})
		}
		if reached == 0 {
			outOfRange++
		}
	}
	// Generated in (offer order, listener id) order; a stable sort by
	// deadline leaves exactly that order among equal deadlines.
	slices.SortStableFunc(copies, func(a, b specCopy) int { return a.at.Compare(b.at) })
	return copies, lost, corrupted, outOfRange
}

// play runs the field on a real medium and returns what the listeners saw,
// in the order they saw it.
func (f specField) play() ([]specCopy, *Metrics) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, f.params)
	var saw []specCopy
	for id, z := range f.zones {
		m.Attach(BandUplink, &Listener{
			Name:     fmt.Sprintf("l%d", id),
			Position: fixed(z.Center),
			Radius:   z.R,
			Static:   id%2 == 0,
			Borrows:  id%3 != 0, // the payload is copied out either way: hand-offs of both kinds, same sequence
			Deliver: func(fr Frame) {
				saw = append(saw, specCopy{at: fr.At, listener: id, payload: string(fr.Data)})
			},
		})
	}
	for _, c := range f.casts {
		clock.Advance(c.wait)
		m.Broadcast(BandUplink, c.from, c.txRange, c.payload)
	}
	clock.RunAll()
	return saw, m.Metrics()
}

// TestHandoffOrderAndAccountingSpec: over random fields × {zero delay,
// fixed delay, jitter} × loss × corruption, the listeners see exactly the
// sequence the spec computes — same instants, same listeners, same bytes,
// same order — and the counters count copies.
func TestHandoffOrderAndAccountingSpec(t *testing.T) {
	for i, seed := range specSeeds {
		f := randomSpecField(rand.New(rand.NewPCG(seed, 0x5EED)), i)
		want, lost, corrupted, outOfRange := f.expected()
		got, met := f.play()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d of %v, params %+v: %s", seed, specSeeds, f.params, fmt.Sprintf(format, args...))
		}
		if len(got) != len(want) {
			fail("%d copies delivered, spec says %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				fail("firing %d is %+v, spec says %+v", i, got[i], want[i])
			}
		}
		if met.Broadcasts.Value() != int64(len(f.casts)) || met.Deliveries.Value() != int64(len(want)) ||
			met.Lost.Value() != lost || met.Corrupted.Value() != corrupted || met.OutOfRange.Value() != outOfRange {
			fail("counters broadcasts=%d deliveries=%d lost=%d corrupted=%d outOfRange=%d, spec says %d %d %d %d %d",
				met.Broadcasts.Value(), met.Deliveries.Value(), met.Lost.Value(), met.Corrupted.Value(), met.OutOfRange.Value(),
				len(f.casts), len(want), lost, corrupted, outOfRange)
		}
	}
}

// threeListeners attaches listeners 0..2 around the origin, all in range
// of a broadcast from it, each delivering through deliver(id, frame) and
// promising to be done with the frame's bytes when deliver returns.
func threeListeners(m *Medium, deliver func(id int, f Frame)) (detach []func()) {
	for id := 0; id < 3; id++ {
		detach = append(detach, m.Attach(BandUplink, &Listener{
			Name: fmt.Sprintf("l%d", id), Position: fixed(geo.Pt(float64(id), 0)), Radius: 100, Static: true,
			Borrows: true,
			Deliver: func(f Frame) { deliver(id, f) },
		}))
	}
	return detach
}

// TestRelayFromInsideHandoffFiresAfterItsSiblings: a Deliver that
// broadcasts again — a relaying sensor — sees its copies fire after the
// rest of the hand-off it ran in, at the same deadline. (Every listener
// borrows, so the hand-off is pooled whole — but only once run has
// returned: pooled any earlier, the relay's broadcast would draw it and
// rewrite the copies run is still walking.)
func TestRelayFromInsideHandoffFiresAfterItsSiblings(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var saw []string
	threeListeners(m, func(id int, f Frame) {
		saw = append(saw, fmt.Sprintf("l%d:%s@%d", id, f.Data, f.At.Sub(epoch)))
		if id == 0 && string(f.Data) == "orig" {
			m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("relay"))
		}
	})
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("orig"))
	clock.RunAll()
	want := []string{"l0:orig@0", "l1:orig@0", "l2:orig@0", "l0:relay@0", "l1:relay@0", "l2:relay@0"}
	if !slices.Equal(saw, want) {
		t.Fatalf("firing order %v, want %v", saw, want)
	}
}

// TestDetachAfterBroadcastStillDeliversScheduledCopy pins that a copy is
// decided at Broadcast: detaching before the clock fires does not recall it.
func TestDetachAfterBroadcastStillDeliversScheduledCopy(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{DelayMin: time.Millisecond, DelayMax: time.Millisecond})
	var saw []int
	detach := threeListeners(m, func(id int, f Frame) {
		saw = append(saw, id)
	})
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("x"))
	detach[1]()
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("y"))
	clock.RunAll()
	if want := []int{0, 1, 2, 0, 2}; !slices.Equal(saw, want) {
		t.Fatalf("deliveries went to %v, want %v", saw, want)
	}
}

// TestRetainedFrameKeepsItsBytes: a listener that does not set Borrows may
// keep Frame.Data. Across eight later broadcasts every frame it kept still
// reads its own bytes — alone on the band, and as the one keeper among
// borrowers, where the mixed hand-off must go back to the pool without the
// buffer the keeper holds.
func TestRetainedFrameKeepsItsBytes(t *testing.T) {
	const rounds = 8
	for _, tc := range []struct {
		name    string
		borrows []bool // per listener, in attach order
	}{
		{"alone", []bool{false}},
		{"among borrowers", []bool{true, true, false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := sim.NewVirtualClock(epoch)
			m := NewMedium(clock, Params{})
			var kept []Frame
			for id, borrows := range tc.borrows {
				deliver := func(Frame) {}
				if !borrows {
					deliver = func(f Frame) { kept = append(kept, f) }
				}
				m.Attach(BandUplink, &Listener{
					Name: fmt.Sprintf("l%d", id), Position: fixed(geo.Pt(float64(id), 0)), Radius: 100, Static: true,
					Borrows: borrows, Deliver: deliver,
				})
			}
			for i := 0; i < 2*rounds; i++ {
				m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte{byte(i), byte(i)})
				clock.RunAll()
			}
			if len(kept) != 2*rounds {
				t.Fatalf("%d frames retained, want %d", len(kept), 2*rounds)
			}
			for i, f := range kept { // the first eight have at least eight broadcasts behind them
				if len(f.Data) != 2 || f.Data[0] != byte(i) || f.Data[1] != byte(i) {
					t.Fatalf("frame kept from broadcast %d reads %v after %d later broadcasts: its buffer was reused under it", i, f.Data, 2*rounds-1-i)
				}
			}
		})
	}
}

// TestPeeledHandoffCarriesItsOwnBytesAndCount: under jitter a broadcast
// is several hand-offs, one per distinct delay; each holds its own copy of
// the bytes, and a recipient that keeps its frame (no Borrows) still reads
// them after the hand-offs have been pooled and used again.
func TestPeeledHandoffCarriesItsOwnBytesAndCount(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{DelayMin: time.Millisecond, DelayMax: time.Millisecond + 2, Seed: 9})
	var kept []Frame
	for id := 0; id < 12; id++ {
		m.Attach(BandUplink, &Listener{
			Name: fmt.Sprintf("l%d", id), Position: fixed(geo.Pt(float64(id), 0)), Radius: 100, Static: true,
			Deliver: func(f Frame) { kept = append(kept, f) },
		})
	}
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("peel"))
	clock.RunAll()
	if len(kept) != 12 {
		t.Fatalf("%d copies delivered, want 12", len(kept))
	}
	bufs, instants := map[*byte]bool{}, map[time.Time]bool{}
	for _, f := range kept {
		if string(f.Data) != "peel" {
			t.Fatalf("copy carries %q", f.Data)
		}
		bufs[&f.Data[0]], instants[f.At] = true, true
	}
	if len(instants) < 2 {
		t.Fatalf("%d hand-offs for 12 jittered copies: the case is vacuous", len(instants))
	}
	if len(bufs) != len(instants) {
		t.Fatalf("%d hand-offs share %d buffers", len(instants), len(bufs))
	}
	for i := 0; i < 8; i++ {
		m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("next"))
		clock.RunAll()
	}
	for _, f := range kept[:12] {
		if string(f.Data) != "peel" {
			t.Fatalf("kept copy now reads %q", f.Data)
		}
	}
}

// TestBroadcastIsOneClockEvent: the copies of a broadcast that share a
// delay cost the clock one event, however many listeners they reach;
// Deliveries still counts copies.
func TestBroadcastIsOneClockEvent(t *testing.T) {
	const k = 40
	attach := func(m *Medium) {
		for i := 0; i < k; i++ {
			m.Attach(BandDownlink, &Listener{
				Name: fmt.Sprintf("s%d", i), Position: fixed(geo.Pt(float64(i), 0)), Radius: 100, Static: true,
				Borrows: true, Deliver: func(Frame) {},
			})
		}
	}
	t.Run("no jitter", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		m := NewMedium(clock, Params{DelayMin: time.Millisecond, DelayMax: time.Millisecond})
		attach(m)
		m.Broadcast(BandDownlink, geo.Pt(0, 0), 100, []byte("x"))
		if got := clock.Pending(); got != 1 {
			t.Fatalf("Pending = %d after one broadcast to %d listeners, want 1", got, k)
		}
		if fired := clock.Advance(time.Millisecond); fired != 1 {
			t.Fatalf("Advance fired %d callbacks, want 1", fired)
		}
		if got := m.Metrics().Deliveries.Value(); got != k {
			t.Fatalf("Deliveries = %d, want %d", got, k)
		}
	})
	t.Run("jitter", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		p := Params{DelayMin: time.Millisecond, DelayMax: time.Millisecond + 4, Seed: 9}
		m := NewMedium(clock, p)
		attach(m)
		m.Broadcast(BandDownlink, geo.Pt(0, 0), 100, []byte("x"))
		// The delays the spec draws for broadcast 1: one event per distinct one.
		distinct := map[int64]bool{}
		for id := 0; id < k; id++ {
			rng := newDeliveryRand(sim.SubSeed(p.Seed, "radio.medium"), 1, id)
			distinct[rng.int64n(5)] = true
		}
		if len(distinct) < 2 || len(distinct) == k {
			t.Fatalf("%d distinct delays among %d copies: the case is vacuous", len(distinct), k)
		}
		if got := clock.Pending(); got != len(distinct) {
			t.Fatalf("Pending = %d, want %d (distinct delays)", got, len(distinct))
		}
		if fired := clock.RunAll(); fired != len(distinct) {
			t.Fatalf("RunAll fired %d callbacks, want %d", fired, len(distinct))
		}
		if got := m.Metrics().Deliveries.Value(); got != k {
			t.Fatalf("Deliveries = %d, want %d", got, k)
		}
	})
}

// TestBroadcastSteadyStateZeroAllocs: broadcast + fire to listeners that
// borrow allocates nothing once the pools are warm — the handoff, its copy
// slice and its bytes are recycled and the clock event is a heap value — with and without
// jitter. One listener that does not borrow costs the broadcast's bytes,
// which it may be holding, and nothing else.
func TestBroadcastSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	for _, tc := range []struct {
		name    string
		p       Params
		keepers int // listeners that leave Borrows unset
		want    float64
	}{
		{"perfect channel", Params{}, 0, 0},
		{"jitter and corruption", Params{DelayMin: time.Millisecond, DelayMax: time.Millisecond + 4, CorruptProb: 0.5}, 0, 0},
		{"one non-borrower", Params{}, 1, 1},
	} {
		clock := sim.NewVirtualClock(epoch)
		m := NewMedium(clock, tc.p)
		for i := 0; i < 100; i++ {
			m.Attach(BandDownlink, &Listener{
				Name: "s", Position: fixed(geo.Pt(float64(i), 0)), Radius: 200, Static: true,
				Borrows: i >= tc.keepers, Deliver: func(Frame) {},
			})
		}
		payload := make([]byte, 24)
		round := func() {
			m.Broadcast(BandDownlink, geo.Pt(0, 0), 200, payload)
			clock.RunAll()
		}
		for i := 0; i < 32; i++ {
			round() // warm the handoff and event pools
		}
		if allocs := testing.AllocsPerRun(200, round); allocs != tc.want {
			t.Errorf("%s: %.2f allocs per broadcast to 100 listeners, want %v", tc.name, allocs, tc.want)
		}
	}
}

// TestConcurrentBroadcastsOnRealClock: on the real clock broadcasts and
// hand-offs run on many goroutines at once; every copy still arrives,
// once, intact. (Run under -race: the pooled handoffs are the shared state.)
func TestConcurrentBroadcastsOnRealClock(t *testing.T) {
	const senders, perSender, listeners = 8, 200, 5
	m := NewMedium(sim.RealClock{}, Params{DelayMax: 50 * time.Microsecond, Seed: 3})
	var arrived sync.WaitGroup
	arrived.Add(senders * perSender * listeners)
	var bad atomic.Int64
	for i := 0; i < listeners; i++ {
		m.Attach(BandUplink, &Listener{
			Name: fmt.Sprintf("l%d", i), Position: fixed(geo.Pt(float64(i), 0)), Radius: 100, Static: true,
			Borrows: true,
			Deliver: func(f Frame) {
				if len(f.Data) != 2 || f.Data[0] != f.Data[1] {
					bad.Add(1)
				}
				arrived.Done()
			},
		})
	}
	for s := 0; s < senders; s++ {
		go func() {
			for i := 0; i < perSender; i++ {
				m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte{byte(s), byte(s)})
			}
		}()
	}
	arrived.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d copies arrived with bytes from two broadcasts", bad.Load())
	}
	if got := m.Metrics().Deliveries.Value(); got != senders*perSender*listeners {
		t.Fatalf("Deliveries = %d, want %d", got, senders*perSender*listeners)
	}
}
