package location

import (
	"errors"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func newService(clock sim.Clock) *Service {
	s := New(clock, Options{})
	s.RegisterReceiver("rx-a", geo.Pt(0, 0), 100)
	s.RegisterReceiver("rx-b", geo.Pt(100, 0), 100)
	s.RegisterReceiver("rx-c", geo.Pt(50, 100), 100)
	return s
}

func obs(sensor wire.SensorID, rx string, rssi float64, at time.Time) receiver.Reception {
	return receiver.Reception{
		Msg:      wire.Message{Stream: wire.MustStreamID(sensor, 0)},
		Receiver: rx,
		RSSI:     rssi,
		At:       at,
	}
}

func TestLocateUnknownSensor(t *testing.T) {
	s := newService(sim.NewVirtualClock(epoch))
	if _, err := s.Locate(42); !errors.Is(err, ErrUnknownSensor) {
		t.Fatalf("err = %v, want ErrUnknownSensor", err)
	}
}

func TestObserveRejectsUnregisteredReceiver(t *testing.T) {
	s := newService(sim.NewVirtualClock(epoch))
	if err := s.ObserveReception(obs(1, "ghost", 0.5, epoch)); !errors.Is(err, ErrUnknownRx) {
		t.Fatalf("err = %v, want ErrUnknownRx", err)
	}
}

func TestSingleReceiverEstimateAtReceiver(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	if err := s.ObserveReception(obs(1, "rx-a", 0.8, clock.Now())); err != nil {
		t.Fatal(err)
	}
	est, err := s.Locate(1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pos != geo.Pt(0, 0) {
		t.Fatalf("Pos = %v, want receiver position", est.Pos)
	}
	if est.Source != SourceInferred || est.Receivers != 1 {
		t.Fatalf("est = %+v", est)
	}
	// With a single receiver the sensor could be anywhere in the zone:
	// uncertainty must be a large fraction of the zone radius.
	if est.Uncertainty < 20 || est.Uncertainty > 100 {
		t.Fatalf("Uncertainty = %v, want within (20,100]", est.Uncertainty)
	}
}

func TestMultiReceiverCentroidWeightedTowardsStrongerSignal(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	// Sensor much closer to rx-a than rx-b.
	if err := s.ObserveReception(obs(1, "rx-a", 0.9, clock.Now())); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveReception(obs(1, "rx-b", 0.1, clock.Now())); err != nil {
		t.Fatal(err)
	}
	est, err := s.Locate(1)
	if err != nil {
		t.Fatal(err)
	}
	// Weighted centroid: 100*0.1/(0.9+0.1) = 10.
	if est.Pos.X < 5 || est.Pos.X > 15 {
		t.Fatalf("Pos.X = %v, want ≈10 (pulled towards rx-a)", est.Pos.X)
	}
	if est.Receivers != 2 || est.Source != SourceInferred {
		t.Fatalf("est = %+v", est)
	}
}

func TestConfidenceGrowsWithReceivers(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	var prev float64
	for i, rx := range []string{"rx-a", "rx-b", "rx-c"} {
		if err := s.ObserveReception(obs(1, rx, 0.5, clock.Now())); err != nil {
			t.Fatal(err)
		}
		est, err := s.Locate(1)
		if err != nil {
			t.Fatal(err)
		}
		if est.Confidence <= prev {
			t.Fatalf("confidence did not grow at receiver %d: %v then %v", i+1, prev, est.Confidence)
		}
		prev = est.Confidence
	}
}

func TestObservationsExpireOutsideWindow(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := New(clock, Options{ObservationWindow: 5 * time.Second})
	s.RegisterReceiver("rx-a", geo.Pt(0, 0), 100)
	if err := s.ObserveReception(obs(1, "rx-a", 0.5, clock.Now())); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	if _, err := s.Locate(1); !errors.Is(err, ErrUnknownSensor) {
		t.Fatalf("stale observation still used: %v", err)
	}
}

func TestLatestObservationPerReceiverWins(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	if err := s.ObserveReception(obs(1, "rx-a", 0.2, clock.Now())); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if err := s.ObserveReception(obs(1, "rx-a", 0.9, clock.Now())); err != nil {
		t.Fatal(err)
	}
	est, err := s.Locate(1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Receivers != 1 {
		t.Fatalf("Receivers = %d, want 1 (same receiver twice)", est.Receivers)
	}
}

func TestHintOnlyEstimate(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	if err := s.AddHint(7, geo.Pt(30, 40), 0.9, time.Minute, "app"); err != nil {
		t.Fatal(err)
	}
	est, err := s.Locate(7)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pos != geo.Pt(30, 40) || est.Source != SourceHint || est.Hints != 1 {
		t.Fatalf("est = %+v", est)
	}
	if est.Confidence != 0.9 {
		t.Fatalf("Confidence = %v", est.Confidence)
	}
	// High-confidence hints are tight.
	if est.Uncertainty > 10 {
		t.Fatalf("Uncertainty = %v, want small", est.Uncertainty)
	}
}

func TestHintExpires(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	if err := s.AddHint(7, geo.Pt(30, 40), 0.9, time.Second, "app"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if _, err := s.Locate(7); !errors.Is(err, ErrUnknownSensor) {
		t.Fatalf("expired hint still used: %v", err)
	}
}

func TestHintValidation(t *testing.T) {
	s := newService(sim.NewVirtualClock(epoch))
	tests := []struct {
		name string
		conf float64
		ttl  time.Duration
	}{
		{"zero confidence", 0, time.Second},
		{"confidence above one", 1.5, time.Second},
		{"negative confidence", -0.5, time.Second},
		{"zero ttl", 0.5, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.AddHint(1, geo.Pt(0, 0), tt.conf, tt.ttl, "x"); !errors.Is(err, ErrBadHint) {
				t.Errorf("err = %v, want ErrBadHint", err)
			}
		})
	}
}

func TestMergedEstimateImprovesOnBoth(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	// Ground truth: sensor at (25, 0). Inference sees rx-a strongly.
	if err := s.ObserveReception(obs(1, "rx-a", 0.75, clock.Now())); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHint(1, geo.Pt(25, 0), 0.8, time.Minute, "app"); err != nil {
		t.Fatal(err)
	}
	est, err := s.Locate(1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Source != SourceMerged {
		t.Fatalf("Source = %v, want merged", est.Source)
	}
	// Merged confidence exceeds either input (probabilistic OR).
	if est.Confidence <= 0.8 {
		t.Fatalf("Confidence = %v, want > 0.8", est.Confidence)
	}
	// Estimate pulled from receiver position towards the hint.
	if est.Pos.X <= 0 || est.Pos.X >= 25 {
		t.Fatalf("Pos.X = %v, want in (0, 25)", est.Pos.X)
	}
	truth := geo.Pt(25, 0)
	hintOnlyErr := truth.Dist(geo.Pt(25, 0))
	if est.Pos.Dist(truth) > 25 {
		t.Fatalf("merged error %v too large (hint-only err %v)", est.Pos.Dist(truth), hintOnlyErr)
	}
}

func TestObservationHistoryBounded(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := New(clock, Options{MaxObservationsPerSensor: 4})
	s.RegisterReceiver("rx-a", geo.Pt(0, 0), 100)
	for i := 0; i < 100; i++ {
		if err := s.ObserveReception(obs(1, "rx-a", 0.5, clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Locate(1); err != nil {
		t.Fatal(err)
	}
}

// TestObservationWindowIsTheLastNInPlace: once the window is full it is
// overwritten in place — a warm sensor's reception allocates nothing — and
// a window that has wrapped many times estimates exactly what a fresh one
// fed only the last N receptions does, including receptions whose
// timestamps arrive out of order or tie.
func TestObservationWindowIsTheLastNInPlace(t *testing.T) {
	const window = 8
	clock := sim.NewVirtualClock(epoch.Add(time.Minute))
	var script []receiver.Reception
	for i := 0; i < 5*window+3; i++ {
		// Timestamps wander ±2 ms around a slow drift, so neighbours swap
		// and tie; three receivers of unequal strength take turns.
		at := clock.Now().Add(time.Duration(i/3)*time.Millisecond - time.Duration(i*7%5)*time.Millisecond)
		script = append(script, obs(1, []string{"rx-a", "rx-b", "rx-c"}[i*5%3], 0.2+float64(i%7)/10, at))
	}
	wrapped, fresh := newService(clock), newService(clock)
	wrapped.opts.MaxObservationsPerSensor, fresh.opts.MaxObservationsPerSensor = window, window
	for i, rc := range script {
		if err := wrapped.ObserveReception(rc); err != nil {
			t.Fatal(err)
		}
		if i < window-1 {
			continue
		}
		fresh.sensors = map[wire.SensorID]*track{}
		for _, last := range script[i+1-window : i+1] {
			if err := fresh.ObserveReception(last); err != nil {
				t.Fatal(err)
			}
		}
		got, err := wrapped.Locate(1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Locate(1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after %d receptions the wrapped window estimates %+v, its last %d alone %+v", i+1, got, window, want)
		}
	}
	// Which reception of one receiver counts: the latest by timestamp,
	// whatever order they arrived in, and among equal timestamps the one
	// that arrived first.
	now := clock.Now()
	for _, c := range []struct {
		name   string
		heard  []receiver.Reception
		winner int
	}{
		{"tie keeps the first arrival", []receiver.Reception{obs(2, "rx-a", 0.3, now), obs(2, "rx-a", 0.8, now)}, 0},
		{"late arrival of an older stamp loses", []receiver.Reception{obs(2, "rx-a", 0.3, now), obs(2, "rx-a", 0.8, now.Add(-time.Second))}, 0},
		{"newer stamp wins", []receiver.Reception{obs(2, "rx-a", 0.3, now.Add(-time.Second)), obs(2, "rx-a", 0.8, now)}, 1},
	} {
		all, only := newService(clock), newService(clock)
		for _, rc := range c.heard {
			if err := all.ObserveReception(rc); err != nil {
				t.Fatal(err)
			}
		}
		if err := only.ObserveReception(c.heard[c.winner]); err != nil {
			t.Fatal(err)
		}
		got, _ := all.Locate(2)
		want, _ := only.Locate(2)
		if got != want || got.Receivers != 1 {
			t.Fatalf("%s: estimate %+v, want that of reception %d alone %+v", c.name, got, c.winner, want)
		}
	}
	// AllocsPerRun rounds down to a whole number, so one run is several
	// windows' worth of receptions: a window that walked off its array
	// would reallocate at least once in each.
	rc := script[0]
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4*window; i++ {
			_ = wrapped.ObserveReception(rc)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d receptions of a warm sensor, want 0", allocs, 4*window)
	}
}

func TestSensorsListing(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	for _, id := range []wire.SensorID{5, 1, 9} {
		if err := s.ObserveReception(obs(id, "rx-a", 0.5, clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Sensors()
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("Sensors = %v", got)
	}
}

func TestComposeUpdates(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	if err := s.ObserveReception(obs(3, "rx-a", 0.5, clock.Now())); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveReception(obs(8, "rx-b", 0.5, clock.Now())); err != nil {
		t.Fatal(err)
	}
	msgs := s.ComposeUpdates()
	if len(msgs) != 2 {
		t.Fatalf("updates = %d, want 2", len(msgs))
	}
	for _, m := range msgs {
		if m.Stream.Index() != wire.LocationStreamIndex {
			t.Fatalf("stream index = %d, want reserved location index", m.Stream.Index())
		}
		est, err := DecodeEstimate(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if est.Confidence <= 0 {
			t.Fatal("decoded estimate has no confidence")
		}
	}
	// Sequence numbers advance per sensor.
	again := s.ComposeUpdates()
	if again[0].Seq != msgs[0].Seq.Next() {
		t.Fatalf("seq did not advance: %d then %d", msgs[0].Seq, again[0].Seq)
	}
}

func TestEstimateCodecRoundTrip(t *testing.T) {
	e := Estimate{
		Pos:         geo.Pt(12.5, -3.25),
		Confidence:  0.75,
		Uncertainty: 42,
		At:          epoch.Add(90 * time.Minute),
	}
	got, err := DecodeEstimate(EncodeEstimate(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != e.Pos || got.Confidence != e.Confidence || got.Uncertainty != e.Uncertainty || !got.At.Equal(e.At) {
		t.Fatalf("round trip: %+v vs %+v", got, e)
	}
}

func TestDecodeEstimateTooShort(t *testing.T) {
	if _, err := DecodeEstimate(make([]byte, 10)); !errors.Is(err, ErrEstimateFormat) {
		t.Fatalf("err = %v, want ErrEstimateFormat", err)
	}
}

// Inference accuracy: with a dense receiver grid, the inferred position of
// a sensor should land within a small multiple of the grid pitch.
func TestInferenceAccuracyOnGrid(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := New(clock, Options{})
	// 5×5 receiver grid with 25 m pitch over a 125 m square, radius 60 m.
	const pitch, radius = 25.0, 60.0
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			pos := geo.Pt(float64(i)*pitch+12.5, float64(j)*pitch+12.5)
			s.RegisterReceiver(rxName(i, j), pos, radius)
		}
	}
	truth := geo.Pt(55, 70)
	// Simulate receptions: every receiver within radius hears with linear
	// RSSI (mirroring the receiver package's model).
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			pos := geo.Pt(float64(i)*pitch+12.5, float64(j)*pitch+12.5)
			d := pos.Dist(truth)
			if d < radius {
				if err := s.ObserveReception(obs(1, rxName(i, j), 1-d/radius, clock.Now())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	est, err := s.Locate(1)
	if err != nil {
		t.Fatal(err)
	}
	if e := est.Pos.Dist(truth); e > pitch {
		t.Fatalf("inference error %.1f m exceeds grid pitch %v", e, pitch)
	}
}

func rxName(i, j int) string { return "rx-" + string(rune('a'+i)) + string(rune('0'+j)) }
