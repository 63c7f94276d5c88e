package replicator

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/location"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

type fakeLocator struct {
	estimates map[wire.SensorID]location.Estimate
}

func (f *fakeLocator) Locate(id wire.SensorID) (location.Estimate, error) {
	est, ok := f.estimates[id]
	if !ok {
		return location.Estimate{}, location.ErrUnknownSensor
	}
	return est, nil
}

func ctrl(sensor wire.SensorID) wire.ControlMessage {
	return wire.ControlMessage{UpdateID: 1, Target: wire.MustStreamID(sensor, 0), Op: wire.OpPing, Issued: epoch}
}

// rig builds a medium with three transmitters at x = 0, 1000, 2000, each
// with 400 m range, and a downlink listener counting frames per region.
func rig(t *testing.T) (*sim.VirtualClock, *radio.Medium, []*transmit.Transmitter) {
	t.Helper()
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	var txs []*transmit.Transmitter
	for i, x := range []float64{0, 1000, 2000} {
		txs = append(txs, transmit.New(medium, transmit.Config{
			Name:     "tx-" + string(rune('a'+i)),
			Position: geo.Pt(x, 0),
			Range:    400,
		}))
	}
	return clock, medium, txs
}

func TestSendWithoutTransmitters(t *testing.T) {
	r := New(nil, Options{})
	if _, err := r.Send(ctrl(1)); !errors.Is(err, ErrNoTransmitters) {
		t.Fatalf("err = %v, want ErrNoTransmitters", err)
	}
}

func TestFloodWhenLocationUnknown(t *testing.T) {
	_, _, txs := rig(t)
	r := New(&fakeLocator{estimates: map[wire.SensorID]location.Estimate{}}, Options{Targeted: true})
	for _, tx := range txs {
		r.AddTransmitter(tx)
	}
	n, err := r.Send(ctrl(42))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("used %d transmitters, want all 3 (flood)", n)
	}
	st := r.Stats()
	if st.Flooded != 1 || st.Targeted != 0 || st.Broadcasts != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTargetedSubset(t *testing.T) {
	_, _, txs := rig(t)
	loc := &fakeLocator{estimates: map[wire.SensorID]location.Estimate{
		42: {Sensor: 42, Pos: geo.Pt(0, 100), Uncertainty: 50, Confidence: 0.8},
	}}
	r := New(loc, Options{Targeted: true})
	for _, tx := range txs {
		r.AddTransmitter(tx)
	}
	n, err := r.Send(ctrl(42))
	if err != nil {
		t.Fatal(err)
	}
	// Area circle (0,100) r≈76 touches only tx-a at (0,0) range 400.
	if n != 1 {
		t.Fatalf("used %d transmitters, want 1 (targeted)", n)
	}
	st := r.Stats()
	if st.Targeted != 1 || st.Broadcasts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUncertaintyWidensSelection(t *testing.T) {
	_, _, txs := rig(t)
	loc := &fakeLocator{estimates: map[wire.SensorID]location.Estimate{
		42: {Sensor: 42, Pos: geo.Pt(500, 0), Uncertainty: 300, Confidence: 0.3},
	}}
	r := New(loc, Options{Targeted: true, Margin: 1.5})
	for _, tx := range txs {
		r.AddTransmitter(tx)
	}
	n, err := r.Send(ctrl(42))
	if err != nil {
		t.Fatal(err)
	}
	// Area circle (500,0) r=451 overlaps tx-a (dist 500 < 400+451) and
	// tx-b (dist 500 < 400+451) but not tx-c (dist 1500).
	if n != 2 {
		t.Fatalf("used %d transmitters, want 2", n)
	}
}

func TestEstimateOutsideAllCoverageFloods(t *testing.T) {
	_, _, txs := rig(t)
	loc := &fakeLocator{estimates: map[wire.SensorID]location.Estimate{
		42: {Sensor: 42, Pos: geo.Pt(0, 99_999), Uncertainty: 10, Confidence: 0.9},
	}}
	r := New(loc, Options{Targeted: true})
	for _, tx := range txs {
		r.AddTransmitter(tx)
	}
	n, err := r.Send(ctrl(42))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("used %d transmitters, want 3 (fallback flood)", n)
	}
	if st := r.Stats(); st.Flooded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFloodingNeverTargets: with Targeted unset (the E6 location-neutral
// baseline) every request floods every transmitter, even for a sensor the
// locator places inside one transmitter's coverage.
func TestFloodingNeverTargets(t *testing.T) {
	_, _, txs := rig(t)
	loc := &fakeLocator{estimates: map[wire.SensorID]location.Estimate{
		42: {Sensor: 42, Pos: geo.Pt(0, 100), Uncertainty: 50, Confidence: 0.8},
	}}
	r := New(loc, Options{})
	for _, tx := range txs {
		r.AddTransmitter(tx)
	}
	n, err := r.Send(ctrl(42))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("flooding replicator used %d", n)
	}
}

func TestFramesActuallyReachMedium(t *testing.T) {
	clock, medium, txs := rig(t)
	got := 0
	medium.Attach(radio.BandDownlink, &radio.Listener{
		Name:     "sensor",
		Position: func() geo.Point { return geo.Pt(0, 50) },
		Radius:   1e9,
		Deliver: func(f radio.Frame) {
			if _, err := wire.DecodeControl(f.Data); err == nil {
				got++
			}
		},
	})
	r := New(nil, Options{})
	for _, tx := range txs {
		r.AddTransmitter(tx)
	}
	if _, err := r.Send(ctrl(42)); err != nil {
		t.Fatal(err)
	}
	clock.RunAll()
	// Only tx-a covers (0,50) within its 400 m range.
	if got != 1 {
		t.Fatalf("sensor received %d control frames, want 1", got)
	}
	if st := txs[0].Stats(); st.Broadcasts != 1 || st.Bytes != int64(wire.ControlSize) {
		t.Fatalf("transmitter stats = %+v", st)
	}
}

func TestSendRejectsUnencodableControl(t *testing.T) {
	_, _, txs := rig(t)
	r := New(nil, Options{})
	r.AddTransmitter(txs[0])
	bad := wire.ControlMessage{Target: wire.MustStreamID(1, 0), Op: 0}
	if _, err := r.Send(bad); err == nil {
		t.Fatal("want encode error")
	}
}

func TestTransmitterValidation(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for zero range")
		}
	}()
	transmit.New(medium, transmit.Config{Position: geo.Pt(0, 0)})
}

// TestTargetedSelectionEqualsBruteForceProperty pins the grid-backed
// transmitter selection to its definition, by brute force over random
// layouts (mixed ranges, nothing co-located), estimates and heard zones:
// the nearest transmitter whose circle contains the heard zone, else every
// transmitter whose coverage intersects the inflated estimate circle, else
// all of them.
func TestTargetedSelectionEqualsBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(2003, 523))
	paged, area, flooded := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		clock := sim.NewVirtualClock(epoch)
		medium := radio.NewMedium(clock, radio.Params{})
		n := 1 + rng.IntN(24)
		txs := make([]*transmit.Transmitter, n)
		for i := range txs {
			txs[i] = transmit.New(medium, transmit.Config{
				Name:     fmt.Sprintf("tx%d", i),
				Position: geo.Pt(rng.Float64()*4000-2000, rng.Float64()*4000-2000),
				Range:    50 + rng.Float64()*500,
			})
		}
		est := location.Estimate{
			Sensor:      42,
			Pos:         geo.Pt(rng.Float64()*4000-2000, rng.Float64()*4000-2000),
			Uncertainty: rng.Float64() * 400,
			Confidence:  1,
		}
		// Two trials in three draw a heard zone: anywhere in the field, or
		// near a transmitter so that containment is common; radii from well
		// inside a coverage circle to larger than any.
		switch rng.IntN(3) {
		case 1:
			est.Heard = geo.Circle{
				Center: geo.Pt(rng.Float64()*4000-2000, rng.Float64()*4000-2000),
				R:      1 + rng.Float64()*600,
			}
		case 2:
			near := txs[rng.IntN(n)].Coverage()
			est.Heard = geo.Circle{
				Center: near.Center.Add(geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100)),
				R:      1 + rng.Float64()*near.R,
			}
		}
		loc := &fakeLocator{estimates: map[wire.SensorID]location.Estimate{42: est}}
		const margin = 1.5
		r := New(loc, Options{Targeted: true, Margin: margin})
		for _, tx := range txs {
			r.AddTransmitter(tx)
		}

		want := make([]bool, n)
		wantPaged := int64(0)
		if est.Heard.R > 0 {
			best, bestDist := -1, 0.0
			for i, tx := range txs {
				cov := tx.Coverage()
				d := cov.Center.Dist(est.Heard.Center)
				if d+est.Heard.R <= cov.R && (best < 0 || d < bestDist) {
					best, bestDist = i, d
				}
			}
			if best >= 0 {
				want[best], wantPaged = true, 1
				paged++
			}
		}
		if wantPaged == 0 {
			inflated := geo.Circle{Center: est.Pos, R: est.Uncertainty*margin + 1}
			any := false
			for i, tx := range txs {
				want[i] = tx.Coverage().IntersectsCircle(inflated)
				any = any || want[i]
			}
			if any {
				area++
			} else {
				flooded++
				for i := range want {
					want[i] = true // estimate outside all coverage: fallback flood
				}
			}
		}
		wantN := 0
		for _, w := range want {
			if w {
				wantN++
			}
		}

		got, err := r.Send(ctrl(42))
		if err != nil {
			t.Fatal(err)
		}
		if got != wantN {
			t.Fatalf("trial %d: selected %d transmitters, brute force wants %d (est %+v)", trial, got, wantN, est)
		}
		if st := r.Stats(); st.Paged != wantPaged || st.Broadcasts != int64(wantN) {
			t.Fatalf("trial %d: stats %+v, want Paged %d Broadcasts %d", trial, st, wantPaged, wantN)
		}
		// Per-transmitter broadcast counts confirm the *same* subset was
		// chosen, not just the same count.
		for i, tx := range txs {
			if st := tx.Stats(); (st.Broadcasts == 1) != want[i] || st.Broadcasts > 1 {
				t.Fatalf("trial %d: %s broadcast %d times, selected = %v (est %+v)", trial, tx.Name(), st.Broadcasts, want[i], est)
			}
		}
	}
	// The draw must actually reach every rung of the ladder.
	if paged < 20 || area < 20 || flooded < 5 {
		t.Fatalf("rungs exercised: paged %d, expected-area %d, flooded %d", paged, area, flooded)
	}
}

// colocated attaches to a targeted replicator three transmitters of equal
// range at the sites of rig, and returns a locator to aim it with.
func colocated(t *testing.T) (*Replicator, *fakeLocator, []*transmit.Transmitter) {
	t.Helper()
	_, _, txs := rig(t)
	loc := &fakeLocator{estimates: map[wire.SensorID]location.Estimate{}}
	r := New(loc, Options{Targeted: true})
	for _, tx := range txs {
		r.AddTransmitter(tx)
	}
	return r, loc, txs
}

// TestPagedUsesOneTransmitter: receivers co-located with transmitters of
// the same radius. The sensor was heard in tx-b's cell, so tx-b alone
// answers — although the inflated estimate circle brushes all three.
func TestPagedUsesOneTransmitter(t *testing.T) {
	r, loc, txs := colocated(t)
	loc.estimates[42] = location.Estimate{
		Sensor: 42, Pos: geo.Pt(1000, 0), Uncertainty: 500, Confidence: 0.7,
		Heard: geo.Circle{Center: geo.Pt(1000, 0), R: 400},
	}
	n, err := r.Send(ctrl(42))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("used %d transmitters, want 1 (paged)", n)
	}
	if st := r.Stats(); st.Paged != 1 || st.Targeted != 1 || st.Flooded != 0 || st.Broadcasts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for i, want := range []int64{0, 1, 0} {
		if got := txs[i].Stats().Broadcasts; got != want {
			t.Fatalf("%s broadcast %d times, want %d", txs[i].Name(), got, want)
		}
	}
}

// TestPagedPicksNearestContainingTransmitter: several transmitters contain
// the heard zone; the nearest answers, the lowest attach index on a tie.
func TestPagedPicksNearestContainingTransmitter(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	mk := func(name string, x, rng float64) *transmit.Transmitter {
		return transmit.New(medium, transmit.Config{Name: name, Position: geo.Pt(x, 0), Range: rng})
	}
	// far contains the zone from 300 m away; the twins tie at 100 m either
	// side; small is nearest of all but does not contain it.
	txs := []*transmit.Transmitter{mk("far", 300, 1000), mk("twin-east", 100, 400), mk("twin-west", -100, 400), mk("small", 10, 150)}
	loc := &fakeLocator{estimates: map[wire.SensorID]location.Estimate{
		42: {Sensor: 42, Pos: geo.Pt(0, 0), Uncertainty: 50, Heard: geo.Circle{Center: geo.Pt(0, 0), R: 200}},
	}}
	r := New(loc, Options{Targeted: true})
	for _, tx := range txs {
		r.AddTransmitter(tx)
	}
	if n, err := r.Send(ctrl(42)); err != nil || n != 1 {
		t.Fatalf("Send = %d, %v; want 1 transmitter", n, err)
	}
	for i, want := range []int64{0, 1, 0, 0} {
		if got := txs[i].Stats().Broadcasts; got != want {
			t.Fatalf("%s broadcast %d times, want %d", txs[i].Name(), got, want)
		}
	}
}

// TestHeardZoneLargerThanAnyCoverageFallsBack: no transmitter can promise
// to reach every point of a 600 m zone with a 400 m range, so the
// expected-area rule decides, exactly as in TestUncertaintyWidensSelection.
func TestHeardZoneLargerThanAnyCoverageFallsBack(t *testing.T) {
	r, loc, _ := colocated(t)
	loc.estimates[42] = location.Estimate{
		Sensor: 42, Pos: geo.Pt(500, 0), Uncertainty: 300, Confidence: 0.3,
		Heard: geo.Circle{Center: geo.Pt(0, 0), R: 600},
	}
	n, err := r.Send(ctrl(42))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("used %d transmitters, want 2 (expected area)", n)
	}
	if st := r.Stats(); st.Paged != 0 || st.Targeted != 1 || st.Broadcasts != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHintOnlyEstimateFallsBack: an estimate built from hints alone names
// no heard zone, and a zone heard outside all coverage names no
// transmitter; both take the expected-area rule.
func TestHintOnlyEstimateFallsBack(t *testing.T) {
	for _, heard := range []geo.Circle{{}, {Center: geo.Pt(0, 50_000), R: 100}} {
		r, loc, txs := colocated(t)
		loc.estimates[42] = location.Estimate{
			Sensor: 42, Pos: geo.Pt(0, 100), Uncertainty: 50, Confidence: 0.8,
			Source: location.SourceHint, Hints: 1, Heard: heard,
		}
		n, err := r.Send(ctrl(42))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 || txs[0].Stats().Broadcasts != 1 {
			t.Fatalf("heard %+v: used %d transmitters, want tx-a alone (expected area)", heard, n)
		}
		if st := r.Stats(); st.Paged != 0 || st.Targeted != 1 {
			t.Fatalf("heard %+v: stats = %+v", heard, st)
		}
	}
}

// TestConcurrentSendDuringAttach exercises the copy-on-write snapshot:
// replication keeps running lock-free while transmitters attach. Run
// with -race this pins the Send path reading only immutable snapshots.
func TestConcurrentSendDuringAttach(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	r := New(nil, Options{})
	r.AddTransmitter(transmit.New(medium, transmit.Config{Position: geo.Pt(0, 0), Range: 100}))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := r.Send(ctrl(wire.SensorID(i % 5))); err != nil {
				panic(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.AddTransmitter(transmit.New(medium, transmit.Config{
				Position: geo.Pt(float64(i)*10, 0), Range: 100,
			}))
		}
	}()
	wg.Wait()
	if got := r.Transmitters(); got != 51 {
		t.Fatalf("transmitters = %d, want 51", got)
	}
	st := r.Stats()
	if st.Requests != 200 || st.Broadcasts < 200 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTransmitterDefaultsAndCoverage(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	tx := transmit.New(medium, transmit.Config{Position: geo.Pt(3, 4), Range: 10})
	if tx.Name() == "" {
		t.Fatal("empty default name")
	}
	cov := tx.Coverage()
	if cov.Center != geo.Pt(3, 4) || cov.R != 10 {
		t.Fatalf("coverage = %+v", cov)
	}
}
