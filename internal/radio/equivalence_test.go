package radio

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/sim"
)

// recording is one delivered copy: per-delivery randomness is derived
// from (seed, broadcast, listener) and the candidate walk is pinned to
// ascending listener id, so two media replaying one script must agree
// on the full firing sequence, not merely the delivery set.
type recording struct {
	listener string
	at       time.Time
	payload  string
}

type recorder struct {
	mu   sync.Mutex
	recs []recording
}

func (r *recorder) listenerFor(name string) func(Frame) {
	return func(f Frame) {
		r.mu.Lock()
		r.recs = append(r.recs, recording{listener: name, at: f.At, payload: string(f.Data)})
		r.mu.Unlock()
	}
}

// raw returns the deliveries in firing order. The candidate walk is
// pinned to ascending listener id whatever the index internals do, so
// two media replaying one script must agree on the raw order too —
// including which of two equal-time copies fires first, which decides
// duplicate-filter races downstream.
func (r *recorder) raw() []recording {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recording(nil), r.recs...)
}

// fieldScript is a reproducible random field + broadcast schedule that
// can be replayed against any medium configuration.
type fieldScript struct {
	params     Params
	listeners  []scriptListener
	broadcasts []scriptBroadcast
}

type scriptListener struct {
	name   string
	pos    geo.Point
	radius float64
	static bool
	band   Band
	// moveTo, when set for a non-static listener, changes its position
	// after the first half of the broadcasts (mobility mid-run).
	moveTo *geo.Point
}

type scriptBroadcast struct {
	band    Band
	from    geo.Point
	txRange float64
	payload []byte
}

func randomScript(rng *rand.Rand) fieldScript {
	s := fieldScript{
		params: Params{
			LossProb:    []float64{0, 0.3, 0.7}[rng.IntN(3)],
			CorruptProb: []float64{0, 0.4}[rng.IntN(2)],
			Seed:        rng.Uint64(),
			GridCell:    []float64{0, 40, 250}[rng.IntN(3)],
		},
	}
	if rng.IntN(2) == 0 {
		s.params.DelayMin = time.Millisecond
		s.params.DelayMax = 9 * time.Millisecond
	}
	const fieldSize = 1500.0
	randPoint := func() geo.Point {
		return geo.Pt(rng.Float64()*fieldSize-fieldSize/2, rng.Float64()*fieldSize-fieldSize/2)
	}
	nListeners := 5 + rng.IntN(60)
	for i := 0; i < nListeners; i++ {
		l := scriptListener{
			name:   fmt.Sprintf("l%d", i),
			pos:    randPoint(),
			radius: 20 + rng.Float64()*200,
			static: rng.IntN(3) != 0,
			band:   Band(1 + rng.IntN(2)),
		}
		if !l.static && rng.IntN(2) == 0 {
			p := randPoint()
			l.moveTo = &p
		}
		s.listeners = append(s.listeners, l)
	}
	nBroadcasts := 20 + rng.IntN(80)
	for i := 0; i < nBroadcasts; i++ {
		payload := make([]byte, rng.IntN(32))
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		s.broadcasts = append(s.broadcasts, scriptBroadcast{
			band:    Band(1 + rng.IntN(2)),
			from:    randPoint(),
			txRange: 30 + rng.Float64()*400,
			payload: payload,
		})
	}
	return s
}

// play runs the script on a fresh medium and returns the sorted delivery
// record plus the metric counters.
func (s fieldScript) play(linear bool) ([]recording, [5]int64) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, s.params)
	m.linearScan = linear
	rec := &recorder{}
	moved := make([]func(), 0)
	for _, sl := range s.listeners {
		sl := sl
		pos := sl.pos
		posPtr := &pos
		m.Attach(sl.band, &Listener{
			Name:     sl.name,
			Position: func() geo.Point { return *posPtr },
			Radius:   sl.radius,
			Deliver:  rec.listenerFor(sl.name),
			Static:   sl.static,
			Borrows:  true, // the recorder copies the payload out
		})
		if sl.moveTo != nil {
			target := *sl.moveTo
			moved = append(moved, func() { *posPtr = target })
		}
	}
	half := len(s.broadcasts) / 2
	for i, b := range s.broadcasts {
		if i == half {
			for _, mv := range moved {
				mv()
			}
		}
		m.Broadcast(b.band, b.from, b.txRange, b.payload)
		clock.Advance(time.Millisecond)
	}
	clock.RunAll()
	met := m.Metrics()
	return rec.raw(), [5]int64{
		met.Broadcasts.Value(), met.Deliveries.Value(), met.Lost.Value(),
		met.Corrupted.Value(), met.OutOfRange.Value(),
	}
}

// TestGridVsLinearScanEquivalenceProperty is the differential test the
// index refactor is pinned by: over random fields (mixed bands, static
// and mid-run-moving listeners, loss/jitter/corruption on), the grid
// medium and the attach-order linear reference scan must produce
// byte-identical delivery outcomes — same listeners, same delivery
// times, same payload bytes (corruption flips included), same counters.
func TestGridVsLinearScanEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xFEED, 0xFACE))
	for trial := 0; trial < 30; trial++ {
		script := randomScript(rng)
		gridRecs, gridMet := script.play(false)
		linRecs, linMet := script.play(true)
		if gridMet != linMet {
			t.Fatalf("trial %d: metrics diverge: grid %v vs linear %v", trial, gridMet, linMet)
		}
		if len(gridRecs) != len(linRecs) {
			t.Fatalf("trial %d: %d grid deliveries vs %d linear", trial, len(gridRecs), len(linRecs))
		}
		for i := range gridRecs {
			if gridRecs[i] != linRecs[i] {
				t.Fatalf("trial %d: delivery %d diverges:\n  grid:   %+v\n  linear: %+v",
					trial, i, gridRecs[i], linRecs[i])
			}
		}
	}
}

// TestSameSeedDeterminism is the regression test for reproducibility:
// two media built with the same seed and attach sequence must produce
// identical delivery times, payloads and corruption flips.
func TestSameSeedDeterminism(t *testing.T) {
	script := randomScript(rand.New(rand.NewPCG(77, 88)))
	script.params.LossProb = 0.4
	script.params.CorruptProb = 0.5
	script.params.DelayMin = time.Millisecond
	script.params.DelayMax = 20 * time.Millisecond
	script.params.Seed = 0xDECAF

	aRecs, aMet := script.play(false)
	bRecs, bMet := script.play(false)
	if aMet != bMet {
		t.Fatalf("metrics diverge across same-seed runs: %v vs %v", aMet, bMet)
	}
	if len(aRecs) == 0 {
		t.Fatal("script delivered nothing; determinism test is vacuous")
	}
	if !slices.Equal(aRecs, bRecs) {
		t.Fatal("same seed and attach sequence produced different deliveries")
	}
	// A different seed must actually change the outcome — otherwise the
	// assertions above prove nothing about the seed wiring.
	script.params.Seed = 0xBEEF
	cRecs, _ := script.play(false)
	if slices.Equal(aRecs, cRecs) {
		t.Fatal("changing the medium seed changed nothing; seed is not wired through")
	}
}

// TestDetachedListenerLeavesGrid covers detach under the index: a
// detached listener must not be found by later broadcasts, and its slot
// must not disturb its neighbours' outcomes.
func TestDetachedListenerLeavesGrid(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var kept, gone collector
	m.Attach(BandUplink, &Listener{Name: "kept", Position: fixed(geo.Pt(1, 0)), Radius: 100, Deliver: kept.deliver, Static: true})
	detach := m.Attach(BandUplink, &Listener{Name: "gone", Position: fixed(geo.Pt(0, 1)), Radius: 100, Deliver: gone.deliver})
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("a"))
	detach()
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("b"))
	clock.RunAll()
	if kept.count() != 2 || gone.count() != 1 {
		t.Fatalf("kept=%d gone=%d, want 2 and 1", kept.count(), gone.count())
	}
}

// BenchmarkBroadcastGridVsLinear quantifies the index win: a sparse
// lattice where a broadcast reaches ~1 receiver, swept over attached
// counts, grid path vs the attach-order reference scan.
func BenchmarkBroadcastGridVsLinear(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, mode := range []string{"grid", "linear"} {
			b.Run(fmt.Sprintf("receivers=%d/mode=%s", n, mode), func(b *testing.B) {
				const radius = 100.0
				clock := sim.NewVirtualClock(epoch)
				m := NewMedium(clock, Params{Seed: 1})
				m.linearScan = mode == "linear"
				side := 1
				for side*side < n {
					side++
				}
				const spacing = 2.5 * radius
				for i := 0; i < n; i++ {
					pos := geo.Pt(float64(i%side)*spacing, float64(i/side)*spacing)
					m.Attach(BandUplink, &Listener{
						Name:     fmt.Sprintf("rx%d", i),
						Position: func() geo.Point { return pos },
						Radius:   radius,
						Static:   true,
						Borrows:  true,
						Deliver:  func(Frame) {},
					})
				}
				payload := make([]byte, 24)
				mid := float64(side/2) * spacing
				from := geo.Pt(mid+10, mid)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Broadcast(BandUplink, from, radius, payload)
					clock.RunAll()
				}
			})
		}
	}
}

// TestAttachDetachChurnBoundsIDSpace: detached listener ids are reused,
// so a long-lived medium with attach/detach churn keeps its id-indexed
// lookup bounded by the peak attachment count instead of growing one
// slot per attachment ever made.
func TestAttachDetachChurnBoundsIDSpace(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{})
	var c collector
	m.Attach(BandUplink, &Listener{Name: "anchor", Position: fixed(geo.Pt(0, 0)), Radius: 100, Deliver: c.deliver, Static: true})
	for i := 0; i < 1000; i++ {
		detach := m.Attach(BandUplink, &Listener{
			Name: "churn", Position: fixed(geo.Pt(1, 0)), Radius: 100, Deliver: func(Frame) {},
		})
		detach()
	}
	m.mu.Lock()
	ids, slots := m.nextID, len(m.byID)
	m.mu.Unlock()
	if ids > 2 || slots > 2 {
		t.Fatalf("id space grew under churn: nextID=%d len(byID)=%d, want ≤2", ids, slots)
	}
	// The medium still works after heavy reuse.
	m.Broadcast(BandUplink, geo.Pt(0, 0), 100, []byte("post-churn"))
	clock.RunAll()
	if c.count() != 1 || string(c.frames[0].Data) != "post-churn" {
		t.Fatalf("anchor heard %d frames after churn", c.count())
	}
}

// TestMobileListenerRebucketsAcrossCells drives a mobile listener far
// across grid cells and confirms every position change is honoured at
// broadcast time (the lazy re-bucketing path).
func TestMobileListenerRebucketsAcrossCells(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, Params{GridCell: 50})
	var c collector
	pos := geo.Pt(0, 0)
	m.Attach(BandDownlink, &Listener{
		Name: "roamer", Position: func() geo.Point { return pos }, Radius: 60, Deliver: c.deliver,
	})
	hops := []geo.Point{{X: 0, Y: 0}, {X: 400, Y: 0}, {X: 400, Y: 400}, {X: -300, Y: 100}, {X: 0, Y: 0}}
	for i, p := range hops {
		pos = p
		m.Broadcast(BandDownlink, p, 60, []byte{byte(i)}) // right on top of it
		m.Broadcast(BandDownlink, geo.Pt(p.X+1000, p.Y), 60, []byte{0xFF})
	}
	clock.RunAll()
	if c.count() != len(hops) {
		t.Fatalf("delivered %d, want %d (one per hop)", c.count(), len(hops))
	}
	for i := range hops {
		if c.frames[i].Data[0] != byte(i) {
			t.Fatalf("frame %d = %x", i, c.frames[i].Data)
		}
	}
	if got := m.Metrics().OutOfRange.Value(); got != int64(len(hops)) {
		t.Fatalf("OutOfRange = %d, want %d (the far broadcasts)", got, len(hops))
	}
}
