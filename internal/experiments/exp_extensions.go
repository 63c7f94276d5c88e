package experiments

import (
	"time"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// runX1 exercises the §8 future-work extension implemented in this
// repository: multi-hop relaying. Sensors sit in a line, with only the
// first segment inside the receiver's zone; each added relay extends how
// deep into the field the middleware can hear.
func runX1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "X1",
		Title: "Multi-hop relaying (§8 future-work extension)",
		Claim: "§8: “initial support has been provided by tagging the message header to reflect multi-hop and relayed data messages”; this repo implements the relays themselves",
		Columns: []string{
			"relays", "reachable sensors", "delivery rate", "max hops seen", "relay tx total",
		},
	}
	relays := []int{0, 1, 2, 3}
	if cfg.Quick {
		relays = []int{0, 2}
	}
	const (
		segment   = 140.0 // metres between stations
		txRange   = 160.0
		sources   = 4 // one source sensor per segment depth
		seconds   = 10
		zoneRange = 150.0
	)
	for _, relayCount := range relays {
		clock := sim.NewVirtualClock(epoch)
		d := core.New(core.Config{Clock: clock, Secret: []byte("x1")})
		d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: zoneRange})

		// Source sensors at increasing depth: 100, 240, 380, 520 m.
		for i := 0; i < sources; i++ {
			if _, err := d.AddSensor(sensor.Config{
				ID:       wire.SensorID(i + 1),
				Mobility: field.Static{P: geo.Pt(100+float64(i)*segment, 0)},
				TxRange:  txRange,
				Streams: []sensor.StreamConfig{{
					Index: 0, Sampler: sensor.SizedSampler(8), Period: time.Second, Enabled: true,
				}},
			}); err != nil {
				return nil, err
			}
		}
		// Relay stations every `segment` metres starting at 130 m.
		var relayNodes []*sensor.Node
		for r := 0; r < relayCount; r++ {
			n, err := d.AddSensor(sensor.Config{
				ID:       wire.SensorID(100 + r),
				Mobility: field.Static{P: geo.Pt(130+float64(r)*segment, 0)},
				TxRange:  txRange,
				Relay:    sensor.RelayConfig{Enabled: true, MaxHops: 4},
			})
			if err != nil {
				return nil, err
			}
			relayNodes = append(relayNodes, n)
		}

		reachable := map[wire.SensorID]bool{}
		maxHops := 0
		sink := &dispatch.ConsumerFunc{ConsumerName: "sink", Fn: func(del filtering.Delivery) {
			reachable[del.Msg.Stream.Sensor()] = true
			if del.Msg.Flags.Has(wire.FlagRelayed) && int(del.Msg.HopCount) > maxHops {
				maxHops = int(del.Msg.HopCount)
			}
		}}
		if _, err := d.Dispatcher().Subscribe(sink, dispatch.All()); err != nil {
			return nil, err
		}
		d.Start()
		clock.RunUntil(epoch.Add(seconds * time.Second))
		d.Stop()

		delivered := d.Stats().Filter.Delivered
		expected := int64(len(reachable)) * seconds
		rate := 0.0
		if expected > 0 {
			rate = float64(delivered) / float64(expected)
		}
		var relayTx int64
		for _, n := range relayNodes {
			relayTx += n.Stats().FramesRelayed
		}
		t.AddRow(relayCount, len(reachable), rate, maxHops, relayTx)
	}
	t.Notes = append(t.Notes,
		"4 source sensors at 100/240/380/520 m; the receiver zone ends at 150 m, so depth beyond the first sensor needs relays",
		"relayed duplicates of directly-heard frames are removed by the Filtering Service like any other duplicate")
	return t, nil
}
