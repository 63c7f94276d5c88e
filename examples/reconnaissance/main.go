// Military reconnaissance — the paper's second §1 motivation: mobile
// sensors with encrypted payloads patrol an area; the middleware infers
// their locations purely from reception data (no GPS on the nodes), a
// scout application adds hints, and control messages are targeted at the
// sensor's expected location area instead of flooding every transmitter.
//
// Run with: go run ./examples/reconnaissance
package main

import (
	"fmt"
	"log"
	"time"

	garnet "github.com/garnet-middleware/garnet"
)

func main() {
	start := time.Date(2003, 5, 19, 2, 0, 0, 0, time.UTC)
	clock := garnet.NewVirtualClock(start)
	g := garnet.New(
		garnet.WithClock(clock),
		garnet.WithSecret([]byte("recon-secret")),
		garnet.WithRadio(garnet.RadioParams{LossProb: 0.1, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond, Seed: 11}),
		garnet.WithTargetedReplicator(2.0),
		garnet.WithLocationPublishing(10*time.Second),
	)
	defer g.Stop()

	// A 1 km × 400 m border strip instrumented with 8 receiver/transmitter
	// posts.
	bounds := garnet.RectWH(0, 0, 1000, 400)
	for i, p := range garnet.GridPositions(bounds, 8) {
		g.AddReceiver(garnet.ReceiverConfig{Name: fmt.Sprintf("post-rx-%d", i), Position: p, Radius: 320})
		// Downlink range is deliberately tight (full coverage, small
		// overlap) so location-targeted actuation has posts to exclude.
		g.AddTransmitter(garnet.TransmitterConfig{Name: fmt.Sprintf("post-tx-%d", i), Position: p, Range: 220})
	}

	// Three patrol sensors with end-to-end encrypted seismic streams. The
	// middleware never sees plaintext.
	keys := map[garnet.SensorID][]byte{
		1: []byte("unit-1-key-16byt"),
		2: []byte("unit-2-key-16byt"),
		3: []byte("unit-3-key-16byt"),
	}
	routes := [][]garnet.Point{
		{garnet.Pt(100, 100), garnet.Pt(900, 100)},
		{garnet.Pt(100, 300), garnet.Pt(900, 300), garnet.Pt(500, 200)},
		{garnet.Pt(500, 50), garnet.Pt(500, 350)},
	}
	// Sensors are added in id order: each one's events, and with them the
	// seeded radio's draws, are scheduled in the order of addition.
	for id := garnet.SensorID(1); id <= 3; id++ {
		key := keys[id]
		stream := garnet.MustStreamID(id, 0)
		if _, err := g.AddSensor(garnet.SensorConfig{
			ID:           id,
			Capabilities: garnet.CapReceive,
			Mobility: &garnet.Patrol{
				Waypoints: routes[int(id)-1],
				Speed:     3, // m/s
				Epoch:     start,
			},
			TxRange: 350,
			Streams: []garnet.StreamConfig{{
				Index: 0,
				Sampler: garnet.EncryptingSampler(key, stream,
					garnet.FloatSampler(func(time.Time) float64 { return 0.02 })), // seismic background
				Period:    2 * time.Second,
				Enabled:   true,
				Encrypted: true,
			}},
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Command post: full permissions, holds the keys.
	tok, err := g.Register("command-post",
		garnet.PermSubscribe|garnet.PermActuate|garnet.PermHint|garnet.PermLocation)
	if err != nil {
		log.Fatal(err)
	}
	ks := garnet.NewKeyStore()
	for id, key := range keys {
		if err := ks.SetKey(garnet.MustStreamID(id, 0), key); err != nil {
			log.Fatal(err)
		}
	}
	var decrypted, undecryptable int
	if _, err := g.Subscribe(tok, garnet.Where(func(m garnet.Message) bool {
		return m.Flags.Has(garnet.FlagEncrypted)
	}), &garnet.ConsumerFunc{ConsumerName: "sigint", Fn: func(d garnet.Delivery) {
		if _, err := ks.OpenMessage(d.Msg); err == nil {
			decrypted++
		} else {
			undecryptable++
		}
	}}); err != nil {
		log.Fatal(err)
	}

	g.Start()
	fmt.Println("reconnaissance: 3 encrypted patrol units on a 1 km strip")
	clock.Advance(2 * time.Minute)

	// Where does the middleware believe the units are, using reception
	// inference only?
	fmt.Println("\ninferred unit positions (no GPS on the nodes):")
	for id := garnet.SensorID(1); id <= 3; id++ {
		est, err := g.Locate(tok, id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  unit %d ≈ %v ±%.0f m (confidence %.2f, %d posts, source %v)\n",
			id, est.Pos, est.Uncertainty, est.Confidence, est.Receivers, est.Source)
	}

	// A scout reports a precise sighting of unit 2; the estimate tightens.
	if err := g.Hint(tok, 2, garnet.Pt(420, 260), 0.95, time.Minute); err != nil {
		log.Fatal(err)
	}
	est, err := g.Locate(tok, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter scout hint: unit 2 ≈ %v ±%.0f m (source %v)\n", est.Pos, est.Uncertainty, est.Source)

	// Command retasks unit 2 to high-rate sampling; the replicator
	// broadcasts only from the posts covering its expected area.
	before := g.Stats().Replicator
	if _, err := g.Actuate(tok, garnet.Demand{
		Target: garnet.MustStreamID(2, 0), Op: garnet.OpSetRate, Value: 2000,
	}); err != nil {
		log.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	after := g.Stats().Replicator
	fmt.Printf("\nretasking unit 2: %d of 8 posts broadcast the request (targeted=%v)\n",
		after.Broadcasts-before.Broadcasts, after.Targeted > before.Targeted)

	st := g.Stats()
	fmt.Printf("\nsummary: %d encrypted messages decrypted by key holder, %d unreadable, acks=%d\n",
		decrypted, undecryptable, st.Actuation.Acked)
}
