package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/replicator"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// runE5 measures inferred-location accuracy against ground truth, with
// and without consumer hints, across receiver densities.
func runE5(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Inferred location accuracy and consumer hints",
		Claim: "§5: location is inferred “without the active involvement of the sensors”, and consumer “location hints” add generality",
		Columns: []string{
			"receivers", "hints", "mean err m", "p95 err m", "mean uncertainty m", "mean confidence",
		},
	}
	grids := []int{4, 9, 16, 25}
	sensors := 25
	if cfg.Quick {
		grids = []int{4, 16}
		sensors = 10
	}
	bounds := geo.RectWH(0, 0, 300, 300)
	truths := field.RandomPositions(bounds, sensors, sim.SubSeed(cfg.Seed, "e5.truth"))
	hintRng := sim.NewRand(sim.SubSeed(cfg.Seed, "e5.hints"))

	// meanErr[rx][hints] is each row's mean error, for the claim checks.
	meanErr := map[int]map[bool]float64{}
	for _, rxCount := range grids {
		meanErr[rxCount] = map[bool]float64{}
		for _, withHints := range []bool{false, true} {
			clock := sim.NewVirtualClock(epoch)
			d := core.New(core.Config{Clock: clock, Secret: []byte("e5")})
			// Tight zones keep reception local, so density actually adds
			// triangulation information instead of averaging the field.
			for _, p := range field.GridPositions(bounds, rxCount) {
				d.AddReceiver(receiver.Config{Position: p, Radius: 130})
			}
			for i, p := range truths {
				if _, err := d.AddSensor(sensor.Config{
					ID: wire.SensorID(i + 1), Mobility: field.Static{P: p}, TxRange: 400,
					Streams: []sensor.StreamConfig{{
						Index: 0, Sampler: sensor.SizedSampler(8), Period: time.Second, Enabled: true,
					}},
				}); err != nil {
					return nil, err
				}
			}
			d.Start()
			clock.Advance(5 * time.Second)
			if withHints {
				for i, p := range truths {
					// Hints carry bounded consumer-side error (±10 m).
					noisy := geo.Pt(p.X+(hintRng.Float64()-0.5)*20, p.Y+(hintRng.Float64()-0.5)*20)
					if err := d.Location().AddHint(wire.SensorID(i+1), noisy, 0.8, time.Minute, "scout"); err != nil {
						return nil, err
					}
				}
			}
			var errs []float64
			var sumUnc, sumConf float64
			for i, truth := range truths {
				est, err := d.Location().Locate(wire.SensorID(i + 1))
				if err != nil {
					return nil, fmt.Errorf("E5: sensor %d unlocatable: %w", i+1, err)
				}
				errs = append(errs, est.Pos.Dist(truth))
				sumUnc += est.Uncertainty
				sumConf += est.Confidence
			}
			d.Stop()
			sort.Float64s(errs)
			var sum float64
			for _, e := range errs {
				sum += e
			}
			n := float64(len(errs))
			p95 := errs[int(math.Ceil(0.95*n))-1]
			t.addRow(rxCount, withHints, sum/n, p95, sumUnc/n, sumConf/n)
			meanErr[rxCount][withHints] = sum / n
		}
		if with, without := meanErr[rxCount][true], meanErr[rxCount][false]; with >= without {
			return t, fmt.Errorf("E5: at %d receivers hints did not lower the mean error: %v m with, %v m without", rxCount, with, without)
		}
	}
	for _, hints := range []bool{false, true} {
		if dense, sparse := meanErr[16][hints], meanErr[4][hints]; dense >= sparse {
			return t, fmt.Errorf("E5: with hints=%v, 16 receivers located no better than 4: %v m vs %v m", hints, dense, sparse)
		}
	}
	t.Notes = append(t.Notes,
		"error is distance from the RSSI-weighted-centroid estimate to ground truth over 25 static sensors",
		"hints carry ±10 m consumer error at confidence 0.8 and are merged with the inferred estimate")
	return t, nil
}

// runE6 compares location-targeted control delivery against the
// location-neutral flood, for increasingly mobile targets.
func runE6(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Location-targeted actuation vs flooding",
		Claim: "§5: location data is “required to reduce transmission costs when forwarding control messages to sensors”",
		Columns: []string{
			"sensor speed m/s", "mode", "pings", "acked", "broadcasts/request", "mean ack ms",
		},
	}
	speeds := []float64{0, 2, 10}
	pings := 12
	if cfg.Quick {
		speeds = []float64{0, 10}
		pings = 6
	}
	for _, speed := range speeds {
		var targetedPerReq float64
		for _, targeted := range []bool{true, false} {
			clock := sim.NewVirtualClock(epoch)
			d := core.New(core.Config{
				Clock:      clock,
				Radio:      radio.Params{DelayMin: 2 * time.Millisecond, DelayMax: 10 * time.Millisecond, Seed: sim.SubSeed(cfg.Seed, "e6")},
				Secret:     []byte("e6"),
				Replicator: replicator.Options{Targeted: targeted, Margin: 2},
			})
			// A 1000 m strip covered by 5 receiver/transmitter sites.
			for i := 0; i < 5; i++ {
				pos := geo.Pt(100+float64(i)*200, 0)
				d.AddReceiver(receiver.Config{Name: fmt.Sprintf("rx-%d", i), Position: pos, Radius: 220})
				d.AddTransmitter(transmit.Config{Name: fmt.Sprintf("tx-%d", i), Position: pos, Range: 220})
			}
			var mob field.Mobility = field.Static{P: geo.Pt(150, 0)}
			if speed > 0 {
				mob = &field.Patrol{
					Waypoints: []geo.Point{geo.Pt(100, 0), geo.Pt(900, 0)},
					Speed:     speed, Epoch: epoch,
				}
			}
			node, err := d.AddSensor(sensor.Config{
				ID: 1, Capabilities: sensor.CapReceive, Mobility: mob, TxRange: 250,
				Streams: []sensor.StreamConfig{{
					Index: 0, Sampler: sensor.SizedSampler(8), Period: time.Second, Enabled: true,
				}},
			})
			if err != nil {
				return nil, err
			}
			_ = node
			d.Start()
			clock.Advance(3 * time.Second) // build a location track

			acked := 0
			var latencySum time.Duration
			for p := 0; p < pings; p++ {
				var (
					gotAck  bool
					latency time.Duration
				)
				_, err := d.ActuationService().Issue(
					actuation.Request{Target: wire.MustStreamID(1, 0), Op: wire.OpPing, Consumer: "e6"},
					func(r actuation.Result) {
						if r.Outcome == actuation.OutcomeAcked {
							gotAck = true
							latency = r.Latency
						}
					})
				if err != nil {
					return nil, err
				}
				clock.Advance(5 * time.Second)
				if gotAck {
					acked++
					latencySum += latency
				}
			}
			d.Stop()

			rs := d.Replicator().Stats()
			perReq := float64(rs.Broadcasts) / float64(rs.Requests)
			mode := "flood"
			if targeted {
				mode = "targeted"
			}
			meanMs := 0.0
			if acked > 0 {
				meanMs = float64(latencySum.Milliseconds()) / float64(acked)
			}
			t.addRow(speed, mode, pings, acked, perReq, meanMs)
			if acked != pings {
				return t, fmt.Errorf("E6: %s mode at %v m/s acked %d of %d pings", mode, speed, acked, pings)
			}
			if targeted {
				targetedPerReq = perReq
			} else if targetedPerReq >= perReq {
				return t, fmt.Errorf("E6: at %v m/s targeted mode sent %v broadcasts/request, flooding %v", speed, targetedPerReq, perReq)
			}
		}
	}
	t.Notes = append(t.Notes,
		"5 transmitter sites cover a 1000 m strip; targeted mode broadcasts from the one site whose coverage contains the receiver zone the sensor was last heard best in (fall-back when no site contains it: every site overlapping the expected location area)",
		"flooding uses every site for every request — the transmission cost inferred location exists to avoid")
	return t, nil
}
