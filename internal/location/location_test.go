package location

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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
	s := New(clock, Options{observationWindow: 5 * time.Second})
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
	s := New(clock, Options{maxObservationsPerSensor: 4})
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

// modelObserve is the executable statement of what a track remembers: per
// receiver the reception with the greatest stamp, the first to arrive among
// equals; at most limit receivers, a further one replacing the stalest (the
// earliest-registered among equally stale) unless it is no fresher itself.
func modelObserve(kept map[string]receiver.Reception, rc receiver.Reception, limit int, rank map[string]int) {
	if old, heard := kept[rc.Receiver]; heard {
		if rc.At.After(old.At) {
			kept[rc.Receiver] = rc
		}
		return
	}
	if len(kept) == limit {
		var stalest *receiver.Reception
		for _, k := range kept {
			if stalest == nil || k.At.Before(stalest.At) || k.At.Equal(stalest.At) && rank[k.Receiver] < rank[stalest.Receiver] {
				stalest = &k
			}
		}
		if !rc.At.After(stalest.At) {
			return
		}
		delete(kept, stalest.Receiver)
	}
	kept[rc.Receiver] = rc
}

// TestObservationWindowIsTheLastNInPlace: a track is one observation per
// receiver, updated in place — a warm sensor's reception and an inferred
// estimate allocate nothing — and the service estimates exactly what the
// model above does: random scripts with out-of-order, tied and future
// stamps, stamps straddling observationWindow and more receivers than the
// cap go through both, and the model's survivors, fed to a fresh service
// that never has to choose between two receptions, must give an equal
// Estimate.
func TestObservationWindowIsTheLastNInPlace(t *testing.T) {
	const (
		window = 8 * time.Second
		limit  = 4
	)
	names := []string{"rx-d", "rx-a", "rx-f", "rx-b", "rx-e", "rx-c"} // registered out of name order
	rank := map[string]int{}
	for i, name := range names {
		rank[name] = i
	}
	build := func(clock sim.Clock, limit int) *Service {
		s := New(clock, Options{observationWindow: window, maxObservationsPerSensor: limit})
		for i, name := range names {
			s.RegisterReceiver(name, geo.Pt(float64(i%3)*60, float64(i/3)*80), 100)
		}
		return s
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, time.Now().UnixNano()} {
		rng := rand.New(rand.NewSource(seed))
		clock := sim.NewVirtualClock(epoch.Add(time.Minute))
		svc := build(clock, limit)
		model := map[wire.SensorID]map[string]receiver.Reception{1: {}, 2: {}}
		for step := 0; step < 400; step++ {
			// Stamps fall on a half-second grid from 1.5 windows ago to 2 s
			// ahead of now, so they tie, arrive out of order, outlive the
			// window and outrun the clock.
			id := wire.SensorID(1 + rng.Intn(2))
			at := clock.Now().Add(2*time.Second - time.Duration(rng.Intn(29))*time.Second/2)
			rc := obs(id, names[rng.Intn(len(names))], 0.1+float64(rng.Intn(9))/10, at)
			if err := svc.ObserveReception(rc); err != nil {
				t.Fatal(err)
			}
			modelObserve(model[id], rc, limit, rank)
			if rng.Intn(4) == 0 {
				clock.Advance(time.Duration(rng.Intn(6)) * time.Second / 2)
			}
			only := build(clock, len(names))
			for _, k := range model[id] {
				if !k.At.Before(clock.Now().Add(-window)) {
					if err := only.ObserveReception(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, gotErr := svc.Locate(id)
			want, wantErr := only.Locate(id)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d step %d sensor %d: estimate %+v (%v), model %+v (%v)", seed, step, id, got, gotErr, want, wantErr)
			}
		}
	}

	// Which reception of one receiver counts: the latest by timestamp,
	// whatever order they arrived in, and among equal timestamps the one
	// that arrived first.
	clock := sim.NewVirtualClock(epoch.Add(time.Minute))
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

	// A warm sensor — every receiver heard once, the scratch grown by one
	// Locate — takes receptions, stale, tied and fresh, and answers inferred
	// estimates without allocating.
	warm := build(clock, limit)
	var script []receiver.Reception
	for i := 0; i < 32; i++ {
		script = append(script, obs(1, names[i*5%len(names)], 0.2+float64(i%7)/10, now.Add(time.Duration(i/3-i*7%5)*time.Millisecond)))
	}
	observeAll := func() {
		for _, rc := range script {
			_ = warm.ObserveReception(rc)
		}
	}
	observeAll()
	if _, err := warm.Locate(1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, observeAll); allocs != 0 {
		t.Fatalf("%v allocations per %d receptions of a warm sensor, want 0", allocs, len(script))
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = warm.Locate(1) }); allocs != 0 {
		t.Fatalf("%v allocations per inferred-only Locate of a warm sensor, want 0", allocs)
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
	got := s.sensors()
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
	got, err := DecodeEstimate(encodeEstimate(e))
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

// TestHintsPrunedOnAdd: a sensor that is hinted but never located must not
// accumulate expired hints, and a later Locate sees exactly the live ones.
func TestHintsPrunedOnAdd(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := newService(clock)
	const ttl, step = 5 * time.Millisecond, time.Millisecond
	for i := 0; i < 10000; i++ {
		if err := s.AddHint(7, geo.Pt(float64(i), 0), 0.5, ttl, "app"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(step)
	}
	live := int(ttl/step) - 1 // the last step aged the hint added ttl ago out
	if hints := s.shards[wire.SensorID(7).Shard(shardCount)].sensors[7].hints; len(hints) != live+1 || cap(hints) > 4*live {
		t.Fatalf("never-located sensor holds %d hints (cap %d) after 10000 short-lived ones, want %d", len(hints), cap(hints), live+1)
	}
	est, err := s.Locate(7)
	if err != nil {
		t.Fatal(err)
	}
	if est.Hints != live || est.Source != SourceHint {
		t.Fatalf("Locate merged %d hints (%v), want the %d unexpired", est.Hints, est.Source, live)
	}
}

// TestUnknownReceiversInstallNothing: receiver names arrive from outside, so
// rejecting one must leave no trace — no track.
func TestUnknownReceiversInstallNothing(t *testing.T) {
	s := newService(sim.NewVirtualClock(epoch))
	for i := 0; i < 1000; i++ {
		if err := s.ObserveReception(obs(1, fmt.Sprintf("ghost-%d", i), 0.5, epoch)); !errors.Is(err, ErrUnknownRx) {
			t.Fatalf("ghost-%d: err = %v, want ErrUnknownRx", i, err)
		}
	}
	if len(s.sensors()) != 0 {
		t.Fatalf("rejected receptions left tracks for %v", s.sensors())
	}
}

// TestFreshnessIsClamped: freshness scales RSSI within [0.05, 1]. A stamp
// ahead of now must not outweigh a perfectly fresh one, and one on the far
// edge of the window still counts, for a twentieth.
func TestFreshnessIsClamped(t *testing.T) {
	clock := sim.NewVirtualClock(epoch.Add(time.Minute))
	now := clock.Now()
	for _, c := range []struct {
		name  string
		a, b  receiver.Reception // rx-a at x=0, rx-b at x=100
		wantX float64
	}{
		{"future stamp weighs as fresh", obs(1, "rx-a", 0.5, now.Add(5*time.Second)), obs(1, "rx-b", 0.5, now), 50},
		{"a stamp exactly a window old still counts, for a twentieth", obs(1, "rx-a", 1, now.Add(-10*time.Second)), obs(1, "rx-b", 0.05, now), 50},
	} {
		s := newService(clock)
		for _, rc := range []receiver.Reception{c.a, c.b} {
			if err := s.ObserveReception(rc); err != nil {
				t.Fatal(err)
			}
		}
		est, err := s.Locate(1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Pos.X-c.wantX) > 1e-9 || est.Receivers != 2 {
			t.Fatalf("%s: Pos.X = %v with %d receivers, want %v with 2", c.name, est.Pos.X, est.Receivers, c.wantX)
		}
	}
}

// TestConcurrentUseMatchesSerialReplay (run under -race, -cpu 1,2,8):
// goroutines observe their own and shared sensors with distinct stamps —
// so what each receiver's freshest reception is does not depend on arrival
// order — while others locate, compose, list, hint and register. Afterwards
// every estimate equals a serial replay's, Sensors is sorted and complete,
// and each sensor's published sequence numbers are gap-free.
func TestConcurrentUseMatchesSerialReplay(t *testing.T) {
	const observers, perObserver, shared = 4, 600, 3
	clock := sim.NewVirtualClock(epoch.Add(time.Minute))
	now := clock.Now()
	rxs := []string{"rx-a", "rx-b", "rx-c"}
	scripts := make([][]receiver.Reception, observers)
	for g := range scripts {
		for i := 0; i < perObserver; i++ {
			id := wire.SensorID(100 + g) // its own sensor ...
			if i%2 == 0 {
				id = wire.SensorID(1 + i/2%shared) // ... and the ones all observers share
			}
			k := g*perObserver + i
			scripts[g] = append(scripts[g], obs(id, rxs[k%len(rxs)], 0.1+float64(k%9)/10, now.Add(-time.Duration(k*7919%5000)*time.Millisecond-time.Duration(k)*time.Nanosecond)))
		}
	}
	hint := func(s *Service, i int) error {
		return s.AddHint(wire.SensorID(1+i%shared), geo.Pt(float64(i), 10), 0.5, time.Hour, "app")
	}
	register := func(s *Service, i int) error { // a late receiver is heard as soon as it is registered
		name := fmt.Sprintf("late-%d", i)
		s.RegisterReceiver(name, geo.Pt(float64(i), 50), 80)
		s.RegisterReceiver("rx-a", geo.Pt(0, 0), 100) // as newService did: re-registering moves no index
		return s.ObserveReception(obs(200, name, 0.5, now.Add(-time.Duration(i)*time.Millisecond)))
	}

	s := newService(clock)
	var (
		wg       sync.WaitGroup
		done     = make(chan struct{})
		mu       sync.Mutex
		composed = map[wire.SensorID][]wire.Seq{}
	)
	run := func(n int, step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := step(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := range scripts {
		run(perObserver, func(i int) error { return s.ObserveReception(scripts[g][i]) })
	}
	run(50, func(i int) error { return hint(s, i) })
	run(50, func(i int) error { return register(s, i) })
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, id := range s.sensors() {
					if _, err := s.Locate(id); err != nil {
						t.Error(err)
						return
					}
				}
				msgs := s.ComposeUpdates()
				mu.Lock()
				for _, m := range msgs {
					composed[m.Stream.Sensor()] = append(composed[m.Stream.Sensor()], m.Seq)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	replay := newService(clock)
	for i := 0; i < 50; i++ {
		if err := hint(replay, i); err != nil {
			t.Fatal(err)
		}
		if err := register(replay, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, script := range scripts {
		for _, rc := range script {
			if err := replay.ObserveReception(rc); err != nil {
				t.Fatal(err)
			}
		}
	}
	ids := s.sensors()
	if want := replay.sensors(); !slices.Equal(ids, want) || !slices.IsSorted(ids) || len(ids) != shared+observers+1 {
		t.Fatalf("Sensors() = %v, serial replay %v", ids, want)
	}
	final := s.ComposeUpdates()
	if len(final) != len(ids) {
		t.Fatalf("%d updates for %d locatable sensors", len(final), len(ids))
	}
	for i, id := range ids {
		got, err := s.Locate(id)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := replay.Locate(id); got != want {
			t.Fatalf("sensor %d: estimate %+v, serial replay %+v", id, got, want)
		}
		seqs := composed[id]
		slices.Sort(seqs)
		for n, seq := range append(seqs, final[i].Seq) {
			if seq != wire.Seq(n) {
				t.Fatalf("sensor %d: published sequence numbers %v then %d are not 0..%d", id, seqs, final[i].Seq, len(seqs))
			}
		}
	}
}

// TestEstimateSumsInReceiverNameOrder: floating-point sums depend on their
// order, so an estimate is bit-reproducible only because receivers
// contribute in name order — not in the order they registered or were heard.
func TestEstimateSumsInReceiverNameOrder(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := New(clock, Options{})
	byName := []struct {
		name string
		pos  geo.Point
		rssi float64
	}{{"rx-a", geo.Pt(0.1, 7), 0.1}, {"rx-b", geo.Pt(0.2, 11), 0.2}, {"rx-c", geo.Pt(0.3, 13), 0.3}}
	var pts, heardPts []geo.Point
	var wts, heardWts []float64
	for _, r := range byName {
		pts, wts = append(pts, r.pos), append(wts, r.rssi)
	}
	for _, i := range []int{2, 0, 1} { // registered and heard out of name order
		r := byName[i]
		s.RegisterReceiver(r.name, r.pos, 100)
		if err := s.ObserveReception(obs(1, r.name, r.rssi, clock.Now())); err != nil {
			t.Fatal(err)
		}
		heardPts, heardWts = append(heardPts, r.pos), append(heardWts, r.rssi)
	}
	want, _ := geo.WeightedCentroid(pts, wts)
	if other, _ := geo.WeightedCentroid(heardPts, heardWts); other == want {
		t.Fatal("the example does not distinguish summation orders")
	}
	if est, err := s.Locate(1); err != nil || est.Pos != want {
		t.Fatalf("Pos = %v (%v), want the name-order sum %v", est.Pos, err, want)
	}
}

// TestLocateReportsStrongestFreshReceiverZone pins Estimate.Heard: the zone
// of the receiver whose in-window observation weighs most (RSSI ×
// freshness), first in receiver-name order on a tie, never one aged out of
// observationWindow, and zero when only hints contribute.
func TestLocateReportsStrongestFreshReceiverZone(t *testing.T) {
	zone := func(x, y float64) geo.Circle { return geo.Circle{Center: geo.Pt(x, y), R: 100} }
	locate := func(t *testing.T, s *Service) Estimate {
		t.Helper()
		est, err := s.Locate(1)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	observe := func(t *testing.T, s *Service, rx string, rssi float64, at time.Time) {
		t.Helper()
		if err := s.ObserveReception(obs(1, rx, rssi, at)); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("strongest wins", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		s := newService(clock)
		observe(t, s, "rx-a", 0.3, epoch)
		observe(t, s, "rx-c", 0.9, epoch)
		observe(t, s, "rx-b", 0.5, epoch)
		if got := locate(t, s).Heard; got != zone(50, 100) {
			t.Fatalf("Heard = %+v, want rx-c's zone", got)
		}
	})
	t.Run("tie goes to the first receiver name", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		s := newService(clock)
		observe(t, s, "rx-c", 0.6, epoch)
		observe(t, s, "rx-b", 0.6, epoch)
		if got := locate(t, s).Heard; got != zone(100, 0) {
			t.Fatalf("Heard = %+v, want rx-b's zone", got)
		}
	})
	t.Run("freshness weighs in", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		s := newService(clock)
		observe(t, s, "rx-a", 0.9, epoch) // 0.9 × 0.2 once 8 s old
		clock.Advance(8 * time.Second)
		observe(t, s, "rx-b", 0.4, clock.Now()) // 0.4 × 1
		if got := locate(t, s).Heard; got != zone(100, 0) {
			t.Fatalf("Heard = %+v, want the fresher rx-b's zone", got)
		}
	})
	t.Run("aged out cannot be heard", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		s := newService(clock)
		observe(t, s, "rx-a", 1.0, epoch)
		clock.Advance(11 * time.Second) // past the 10 s window
		observe(t, s, "rx-c", 0.1, clock.Now())
		est := locate(t, s)
		if est.Receivers != 1 || est.Heard != zone(50, 100) {
			t.Fatalf("est = %+v, want only rx-c contributing and heard", est)
		}
	})
	t.Run("hint only is zero", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		s := newService(clock)
		if err := s.AddHint(1, geo.Pt(10, 10), 0.9, time.Minute, "scout"); err != nil {
			t.Fatal(err)
		}
		est := locate(t, s)
		if est.Source != SourceHint || est.Heard != (geo.Circle{}) {
			t.Fatalf("est = %+v, want a hint-only estimate with no heard zone", est)
		}
		// An observation that has aged out leaves the hint on its own again.
		observe(t, s, "rx-a", 1.0, epoch)
		if got := locate(t, s); got.Source != SourceMerged || got.Heard != zone(0, 0) {
			t.Fatalf("merged est = %+v, want rx-a's zone", got)
		}
		clock.Advance(11 * time.Second)
		if got := locate(t, s); got.Source != SourceHint || got.Heard != (geo.Circle{}) {
			t.Fatalf("est = %+v, want hint-only again", got)
		}
	})
	t.Run("not in the encoded stream", func(t *testing.T) {
		clock := sim.NewVirtualClock(epoch)
		s := newService(clock)
		observe(t, s, "rx-a", 0.5, epoch)
		payload := encodeEstimate(locate(t, s))
		if len(payload) != EstimatePayloadSize {
			t.Fatalf("payload is %d bytes, want %d", len(payload), EstimatePayloadSize)
		}
		if dec, err := DecodeEstimate(payload); err != nil || dec.Heard != (geo.Circle{}) {
			t.Fatalf("decoded %+v, err %v: want no heard zone", dec, err)
		}
	})
}
