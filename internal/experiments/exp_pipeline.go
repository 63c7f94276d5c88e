package experiments

import (
	"fmt"
	"time"

	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

// runF1 walks a message and a control request through every Figure 1
// service and reports the evidence that each participated.
func runF1(cfg Config) (*Table, error) {
	clock := sim.NewVirtualClock(epoch)
	d := core.New(core.Config{
		Clock:  clock,
		Radio:  radio.Params{LossProb: 0.05, DelayMin: time.Millisecond, DelayMax: 4 * time.Millisecond, Seed: cfg.Seed},
		Secret: []byte("f1"),
	})
	defer d.Stop()
	for _, p := range field.GridPositions(geo.RectWH(0, 0, 200, 200), 4) {
		d.AddReceiver(receiver.Config{Position: p, Radius: 170})
	}
	d.AddTransmitter(transmit.Config{Position: geo.Pt(100, 100), Range: 300})

	node, err := d.AddSensor(sensor.Config{
		ID: 1, Capabilities: sensor.CapReceive,
		Mobility: field.Static{P: geo.Pt(100, 100)}, TxRange: 300,
		Streams: []sensor.StreamConfig{{
			Index: 0, Sampler: sensor.FloatSampler(func(time.Time) float64 { return 20 }),
			Period: time.Second, Enabled: true,
		}},
	})
	if err != nil {
		return nil, err
	}
	// Unclaimed second sensor for the orphanage.
	if _, err := d.AddSensor(sensor.Config{
		ID: 2, Mobility: field.Static{P: geo.Pt(50, 50)}, TxRange: 300,
		Streams: []sensor.StreamConfig{{
			Index: 0, Sampler: sensor.SizedSampler(8), Period: 2 * time.Second, Enabled: true,
		}},
	}); err != nil {
		return nil, err
	}
	rec := consumer.NewRecorder("app", 4096)
	if _, err := d.Dispatcher().Subscribe(rec, dispatch.Exact(wire.MustStreamID(1, 0))); err != nil {
		return nil, err
	}
	d.Start()
	clock.Advance(10 * time.Second)
	if _, err := d.SubmitDemand(resource.Demand{
		Consumer: "app", Target: wire.MustStreamID(1, 0), Op: wire.OpSetRate, Value: 4000,
	}); err != nil {
		return nil, err
	}
	clock.Advance(10 * time.Second)

	s := d.Stats()
	med := d.Medium().Metrics()
	period, _ := node.StreamPeriod(0)
	t := &Table{
		ID:      "F1",
		Title:   "Every Figure 1 service on the data + actuation path",
		Claim:   "architecture of §4: receivers → filtering → dispatching → consumers, with the return path RM → actuation → replicator → transmitters → sensor",
		Columns: []string{"service", "evidence", "value"},
	}
	t.AddRow("medium", "frames broadcast / delivered / lost", fmt.Sprintf("%d / %d / %d", med.Broadcasts.Value(), med.Deliveries.Value(), med.Lost.Value()))
	t.AddRow("receivers", "receptions decoded", s.Filter.Received)
	t.AddRow("filtering", "duplicates eliminated", s.Filter.Duplicates)
	t.AddRow("dispatching", "deliveries to consumers", s.Dispatch.Delivered)
	t.AddRow("consumer", "messages received by app", rec.Count())
	t.AddRow("orphanage", "unclaimed streams held", s.Orphanage.StreamsHeld)
	t.AddRow("resource manager", "demands admitted", s.Resource.Submitted)
	t.AddRow("actuation", "requests acked", s.Actuation.Acked)
	t.AddRow("replicator", "control broadcasts", s.Replicator.Broadcasts)
	t.AddRow("sensor", "applied rate (period)", period.String())
	if s.Actuation.Acked == 0 || rec.Count() == 0 || s.Orphanage.StreamsHeld == 0 {
		return t, fmt.Errorf("F1: pipeline incomplete: %+v", s)
	}
	return t, nil
}

// runE1 sweeps receiver density over a fixed field: overlap duplicates
// messages on the way in, and the Filtering Service must remove every one
// while loss-protection improves.
func runE1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Duplicate elimination vs receiver overlap",
		Claim: "§4.2: overlapping receivers “improve data reception but cause potential duplication”; the Filtering Service “reconstructs the data streams by eliminating duplicate data messages”",
		Columns: []string{
			"receivers", "raw receptions", "unique delivered", "dup factor",
			"delivery ratio", "dups after filter",
		},
	}
	counts := []int{1, 2, 4, 6, 9, 12}
	sensors, seconds := 20, 60
	if cfg.Quick {
		counts = []int{1, 4, 9}
		sensors, seconds = 8, 20
	}
	for _, rxCount := range counts {
		clock := sim.NewVirtualClock(epoch)
		d := core.New(core.Config{
			Clock:  clock,
			Radio:  radio.Params{LossProb: 0.2, Seed: sim.SubSeed(cfg.Seed, fmt.Sprintf("e1/%d", rxCount))},
			Secret: []byte("e1"),
		})
		bounds := geo.RectWH(0, 0, 300, 300)
		for _, p := range field.GridPositions(bounds, rxCount) {
			d.AddReceiver(receiver.Config{Position: p, Radius: 260})
		}
		seen := make(map[wire.StreamID]map[wire.Seq]bool)
		dupsOut := 0
		sink := &dispatch.ConsumerFunc{ConsumerName: "sink", Fn: func(del filtering.Delivery) {
			m := seen[del.Msg.Stream]
			if m == nil {
				m = make(map[wire.Seq]bool)
				seen[del.Msg.Stream] = m
			}
			if m[del.Msg.Seq] {
				dupsOut++
			}
			m[del.Msg.Seq] = true
		}}
		if _, err := d.Dispatcher().Subscribe(sink, dispatch.All()); err != nil {
			return nil, err
		}
		for i, p := range field.RandomPositions(bounds, sensors, sim.SubSeed(cfg.Seed, "e1.sensors")) {
			if _, err := d.AddSensor(sensor.Config{
				ID: wire.SensorID(i + 1), Mobility: field.Static{P: p}, TxRange: 400,
				Streams: []sensor.StreamConfig{{
					Index: 0, Sampler: sensor.SizedSampler(16), Period: time.Second, Enabled: true,
				}},
			}); err != nil {
				return nil, err
			}
		}
		d.Start()
		clock.RunUntil(epoch.Add(time.Duration(seconds) * time.Second))
		d.Stop()

		fs := d.Stats().Filter
		expected := int64(sensors * seconds)
		dupFactor := float64(fs.Received) / float64(fs.Delivered)
		t.AddRow(rxCount, fs.Received, fs.Delivered, dupFactor,
			float64(fs.Delivered)/float64(expected), dupsOut)
		if fs.Received != fs.Delivered+fs.Duplicates+fs.Stale {
			return t, fmt.Errorf("E1: filter accounting broken at rx=%d", rxCount)
		}
		if dupsOut != 0 {
			return t, fmt.Errorf("E1: %d duplicates escaped the filter at rx=%d", dupsOut, rxCount)
		}
	}
	t.Notes = append(t.Notes,
		"20% per-delivery loss; delivery ratio rises with overlap while consumers still see each message once",
		"“dups after filter” counts repeated (stream, seq) pairs observed at the consumer — always 0")
	return t, nil
}

// runE10 measures the Orphanage: capture of un-configured data and the
// late-claim handover.
func runE10(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Orphanage capture and late claims",
		Claim: "§4.2: the Orphanage “receives un-configured data … data messages are analysed and potentially stored”",
		Columns: []string{
			"burst msgs", "per-stream cap", "seen", "buffered", "claim recovered",
			"rate est (msg/s)", "post-claim loss",
		},
	}
	bursts := []int{10, 64, 128, 500}
	if cfg.Quick {
		bursts = []int{10, 128}
	}
	for _, burst := range bursts {
		clock := sim.NewVirtualClock(epoch)
		d := core.New(core.Config{
			Clock:     clock,
			Secret:    []byte("e10"),
			Orphanage: orphanage.Options{PerStreamCapacity: 128},
		})
		d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 1e6})
		if _, err := d.AddSensor(sensor.Config{
			ID: 1, Mobility: field.Static{P: geo.Pt(1, 0)}, TxRange: 1e6,
			Streams: []sensor.StreamConfig{{
				Index: 0, Sampler: sensor.SizedSampler(8), Period: time.Second, Enabled: true,
			}},
		}); err != nil {
			return nil, err
		}
		d.Start()
		clock.Advance(time.Duration(burst) * time.Second) // burst unclaimed messages

		info, ok := d.Orphanage().StreamInfo(wire.MustStreamID(1, 0))
		if !ok {
			return t, fmt.Errorf("E10: stream not captured")
		}
		backlog, ok := d.Orphanage().Claim(wire.MustStreamID(1, 0))
		if !ok {
			return t, fmt.Errorf("E10: claim failed")
		}
		// Late subscriber continues without loss.
		rec := consumer.NewRecorder("late", 1)
		if _, err := d.Dispatcher().Subscribe(rec, dispatch.Exact(wire.MustStreamID(1, 0))); err != nil {
			return nil, err
		}
		clock.Advance(10 * time.Second)
		d.Stop()

		t.AddRow(burst, 128, info.Seen, info.Buffered, len(backlog), info.Rate,
			10-rec.Count())
	}
	t.Notes = append(t.Notes, "buffered is bounded by the per-stream capacity; the newest messages are retained")
	return t, nil
}
