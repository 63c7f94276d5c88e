package experiments

import (
	"fmt"
	"math"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/location"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/replicator"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// e15Locator answers Locate with a settable estimate — the experiment
// moves the "expected location" around the field between control sends.
type e15Locator struct{ est location.Estimate }

func (l *e15Locator) Locate(wire.SensorID) (location.Estimate, error) { return l.est, nil }

// runE15 counts what a dense-field broadcast touches on both traffic
// directions: the uplink data path (sensor broadcasts into a growing
// receiver array) and the downlink control path (the Message Replicator
// selecting transmitters for a location estimate). Receivers sit on a
// lattice whose area grows with their count, so the number of listeners
// a broadcast actually reaches stays constant while the attached count
// grows ~16×: both per-operation counts should stay flat — a broadcast
// reaches, and a control send pages, what is nearby, not what is attached
// (§3 dense overlapping fields; §4.2/§5 location-targeted replication).
func runE15(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Dense-field broadcast: cost vs attached receivers",
		Claim: "§3/§4.2: overlapping reception zones duplicate data by construction; a broadcast must cost O(listeners reached), not O(listeners attached)",
		Columns: []string{
			"receivers", "txs", "avg reached", "ctrl txs/send", "deliveries",
		},
	}
	counts := []int{64, 256, 1024}
	dataBcasts, ctrlSends := 2000, 2000
	if cfg.Quick {
		counts = []int{16, 64}
		dataBcasts, ctrlSends = 300, 300
	}
	const (
		radius  = 100.0 // reception zone and tx range
		spacing = 150.0 // lattice pitch: zones overlap their neighbours
		payload = 24
	)
	// Flat means within this factor of the smallest field's figure at the
	// largest (quick mode reads 1.087 → 1.213 reached, 3.343 → 3.65 txs).
	const flatBound = 1.5
	var reached, txsPerSend []float64
	data := make([]byte, payload)
	for _, n := range counts {
		clock := sim.NewVirtualClock(epoch)
		m := radio.NewMedium(clock, radio.Params{Seed: cfg.Seed})
		side := int(math.Ceil(math.Sqrt(float64(n))))
		extent := float64(side) * spacing
		delivered := 0
		for i := 0; i < n; i++ {
			pos := geo.Pt(float64(i%side)*spacing, float64(i/side)*spacing)
			m.Attach(radio.BandUplink, &radio.Listener{
				Name:     fmt.Sprintf("rx%d", i),
				Position: func() geo.Point { return pos },
				Radius:   radius,
				Static:   true,
				Borrows:  true,
				Deliver:  func(radio.Frame) { delivered++ },
			})
		}

		// Data traffic: broadcasts from uniformly random field positions.
		rng := sim.NewRand(sim.SubSeed(cfg.Seed, fmt.Sprintf("e15/%d", n)))
		for i := 0; i < dataBcasts; i++ {
			from := geo.Pt(rng.Float64()*extent, rng.Float64()*extent)
			m.Broadcast(radio.BandUplink, from, radius, data)
			clock.RunAll()
		}

		// Control traffic: one transmitter per lattice point, the
		// replicator targeting a roaming location estimate.
		loc := &e15Locator{}
		repl := replicator.New(loc, replicator.Options{Targeted: true})
		for i := 0; i < n; i++ {
			repl.AddTransmitter(transmit.New(m, transmit.Config{
				Name:     fmt.Sprintf("tx%d", i),
				Position: geo.Pt(float64(i%side)*spacing, float64(i/side)*spacing),
				Range:    radius,
			}))
		}
		ctrl := wire.ControlMessage{UpdateID: 1, Target: wire.MustStreamID(1, 0), Op: wire.OpPing, Issued: epoch}
		for i := 0; i < ctrlSends; i++ {
			loc.est = location.Estimate{
				Sensor:      1,
				Pos:         geo.Pt(rng.Float64()*extent, rng.Float64()*extent),
				Uncertainty: 50,
				Confidence:  0.9,
			}
			if _, err := repl.Send(ctrl); err != nil {
				return nil, fmt.Errorf("E15: %w", err)
			}
			clock.RunAll()
		}

		reached = append(reached, float64(delivered)/float64(dataBcasts))
		txsPerSend = append(txsPerSend, float64(repl.Stats().Broadcasts)/float64(ctrlSends))
		t.AddRow(n, n, reached[len(reached)-1], txsPerSend[len(txsPerSend)-1], delivered)
	}
	last := len(counts) - 1
	if reached[last] > flatBound*reached[0] {
		return t, fmt.Errorf("E15: avg reached grew %v → %v as receivers went %d → %d", reached[0], reached[last], counts[0], counts[last])
	}
	if txsPerSend[last] > flatBound*txsPerSend[0] {
		return t, fmt.Errorf("E15: ctrl txs/send grew %v → %v as receivers went %d → %d", txsPerSend[0], txsPerSend[last], counts[0], counts[last])
	}
	t.Notes = append(t.Notes,
		"lattice pitch 150 m at 100 m zones: local overlap is constant while the attached count grows; flat avg reached and ctrl txs/send are the O(nearby) claim",
		"ctrl txs/send: transmitters the replicator selected per control message (no sensors attached: deliveries stay on the data path)")
	return t, nil
}
