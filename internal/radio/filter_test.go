package radio

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/sim"
)

// filterCopy is one copy as its listener saw it.
type filterCopy struct {
	listener int
	at       time.Time
	distSq   float64
	payload  string
}

// filterField is a seeded field of listeners, some filtering by address,
// plus a schedule of addressed and unaddressed broadcasts. Every payload is
// its broadcast's index repeated at least three times, so a copy names its
// broadcast even after corruption flipped one of its bits.
type filterField struct {
	params    Params
	zones     []geo.Circle
	addrs     []uint32
	filters   []bool
	casts     []specCast
	addressed []bool
	dsts      []uint32
}

func randomFilterField(rng *rand.Rand, combo int) filterField {
	f := filterField{params: Params{
		LossProb:    []float64{0, 0.3}[combo/3%2],
		CorruptProb: []float64{0, 0.4}[combo/6%2],
		Seed:        rng.Uint64(),
	}}
	switch combo % 3 {
	case 1:
		f.params.DelayMin, f.params.DelayMax = 2*time.Millisecond, 2*time.Millisecond
	case 2:
		f.params.DelayMin, f.params.DelayMax = time.Millisecond, 5*time.Millisecond
	}
	for i := 6 + rng.IntN(30); i > 0; i-- {
		f.zones = append(f.zones, geo.Circle{Center: geo.Pt(rng.Float64()*400, rng.Float64()*400), R: 50 + rng.Float64()*200})
		f.addrs = append(f.addrs, uint32(rng.IntN(5)))
		f.filters = append(f.filters, rng.IntN(2) == 0)
	}
	for i := 0; i < 40+rng.IntN(60); i++ {
		payload := make([]byte, 3+rng.IntN(12))
		for j := range payload {
			payload[j] = byte(i)
		}
		f.casts = append(f.casts, specCast{
			wait:    []time.Duration{0, 0, time.Millisecond, 3 * time.Millisecond}[rng.IntN(4)],
			from:    geo.Pt(rng.Float64()*400, rng.Float64()*400),
			txRange: 50 + rng.Float64()*350,
			payload: payload,
		})
		f.addressed = append(f.addressed, rng.IntN(4) != 0)
		f.dsts = append(f.dsts, uint32(rng.IntN(6))) // 5: nobody's address
	}
	return f
}

// castOf names the broadcast a copy belongs to: its payload's majority byte.
func castOf(payload string) int {
	if payload[0] == payload[1] {
		return int(payload[0])
	}
	return int(payload[2])
}

// play offers the schedule to the field. With filtering off no listener
// declares the promise, so every copy in range is delivered.
func (f filterField) play(filtering bool) ([]filterCopy, *Metrics) {
	clock := sim.NewVirtualClock(epoch)
	m := NewMedium(clock, f.params)
	var saw []filterCopy
	for id, z := range f.zones {
		m.Attach(BandDownlink, &Listener{
			Name:          fmt.Sprintf("l%d", id),
			Position:      fixed(z.Center),
			Radius:        z.R,
			Static:        id%2 == 0,
			Borrows:       true,
			Addr:          f.addrs[id],
			FiltersByAddr: filtering && f.filters[id],
			Deliver: func(fr Frame) {
				saw = append(saw, filterCopy{listener: id, at: fr.At, distSq: fr.DistSq, payload: string(fr.Data)})
			},
		})
	}
	for i, c := range f.casts {
		clock.Advance(c.wait)
		if f.addressed[i] {
			m.BroadcastTo(BandDownlink, c.from, c.txRange, f.dsts[i], c.payload)
		} else {
			m.Broadcast(BandDownlink, c.from, c.txRange, c.payload)
		}
	}
	clock.RunAll()
	return saw, m.Metrics()
}

func counters(m *Metrics) [6]int64 {
	return [6]int64{m.Broadcasts.Value(), m.Deliveries.Value(), m.Lost.Value(),
		m.Corrupted.Value(), m.OutOfRange.Value(), m.Filtered.Value()}
}

// TestAddressFilterMatchesUnfilteredTwin: over seeded fields × {zero
// delay, fixed delay, jitter} × loss × corruption, a medium whose
// listeners filter by address delivers exactly what an unfiltered twin
// delivers minus the copies of addressed broadcasts whose intact
// destination is not the listener's address: same listeners, bytes
// (corrupted ones included), instants, distances and order. Every counter
// but Filtered is the twin's, and Filtered is the number of copies removed.
func TestAddressFilterMatchesUnfilteredTwin(t *testing.T) {
	var removedAll, corruptKept int
	for i, seed := range specSeeds {
		f := randomFilterField(rand.New(rand.NewPCG(seed, 0xADD2)), i)
		twin, twinMet := f.play(false)
		got, gotMet := f.play(true)

		var want []filterCopy
		for _, c := range twin {
			k := castOf(c.payload)
			if f.filters[c.listener] && f.addressed[k] && f.dsts[k] != f.addrs[c.listener] {
				continue
			}
			if f.filters[c.listener] && f.addressed[k] && c.payload != string(f.casts[k].payload) {
				corruptKept++
			}
			want = append(want, c)
		}
		removed := len(twin) - len(want)
		removedAll += removed

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d copies delivered with the filter, want %d (twin %d)", seed, len(got), len(want), len(twin))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("seed %d: copy %d is %+v, want %+v", seed, j, got[j], want[j])
			}
		}
		wantMet := counters(twinMet)
		if wantMet[5] != 0 {
			t.Fatalf("seed %d: twin without filtering listeners counted %d filtered", seed, wantMet[5])
		}
		wantMet[5] = int64(removed)
		if c := counters(gotMet); c != wantMet {
			t.Fatalf("seed %d: counters (broadcasts, deliveries, lost, corrupted, out of range, filtered) = %v, want %v",
				seed, c, wantMet)
		}
	}
	if removedAll == 0 || corruptKept == 0 {
		t.Fatalf("filtered %d copies and kept %d corrupted addressed ones over all seeds: the fields are vacuous",
			removedAll, corruptKept)
	}
}
