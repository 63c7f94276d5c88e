// Command garnet-sim runs a configurable end-to-end Garnet deployment on
// virtual time and reports what every middleware service did: a quick way
// to explore how receiver overlap, loss and actuation behave at different
// scales without writing code.
//
// Example:
//
//	garnet-sim -sensors 200 -receivers 9 -loss 0.2 -duration 5m -actuate
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/replicator"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "garnet-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("garnet-sim", flag.ContinueOnError)
	var (
		sensors   = fs.Int("sensors", 50, "number of sensor nodes")
		receivers = fs.Int("receivers", 9, "number of receivers (grid)")
		txs       = fs.Int("transmitters", 4, "number of transmitters (grid)")
		duration  = fs.Duration("duration", time.Minute, "simulated duration")
		rate      = fs.Duration("period", time.Second, "sensor sampling period")
		loss      = fs.Float64("loss", 0.1, "per-delivery loss probability")
		corrupt   = fs.Float64("corrupt", 0.01, "per-delivery corruption probability")
		mobile    = fs.Bool("mobile", true, "sensors move by random waypoint")
		actuate   = fs.Bool("actuate", false, "double every stream's rate mid-run through the actuation path")
		seed      = fs.Uint64("seed", 1, "deterministic seed")
		sizeM     = fs.Float64("size", 500, "field edge length, metres")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	epoch := time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)
	clock := sim.NewVirtualClock(epoch)
	d := core.New(core.Config{
		Clock: clock,
		Radio: radio.Params{
			LossProb:    *loss,
			CorruptProb: *corrupt,
			DelayMin:    time.Millisecond,
			DelayMax:    10 * time.Millisecond,
			Seed:        *seed,
		},
		Secret:                []byte("garnet-sim"),
		LocationPublishPeriod: 10 * time.Second,
		Replicator:            replicator.Options{Targeted: true},
	})
	defer d.Stop()

	bounds := geo.RectWH(0, 0, *sizeM, *sizeM)
	zone := *sizeM / 2
	for i, p := range field.GridPositions(bounds, *receivers) {
		d.AddReceiver(receiver.Config{Name: fmt.Sprintf("rx-%d", i), Position: p, Radius: zone})
	}
	for i, p := range field.GridPositions(bounds, *txs) {
		d.AddTransmitter(transmit.Config{Name: fmt.Sprintf("tx-%d", i), Position: p, Range: zone * 1.5})
	}

	for i := 0; i < *sensors; i++ {
		var mob field.Mobility
		if *mobile {
			mob = field.NewRandomWaypoint(bounds, 0.5, 3, 5*time.Second, sim.SubSeed(*seed, fmt.Sprintf("s%d", i)))
		} else {
			mob = field.Static{P: field.RandomPositions(bounds, 1, sim.SubSeed(*seed, fmt.Sprintf("p%d", i)))[0]}
		}
		base := 15 + float64(i%10)
		if _, err := d.AddSensor(sensor.Config{
			ID:           wire.SensorID(i + 1),
			Capabilities: sensor.CapReceive,
			Mobility:     mob,
			TxRange:      zone,
			Streams: []sensor.StreamConfig{{
				Index:   0,
				Sampler: sensor.FloatSampler(func(time.Time) float64 { return base }),
				Period:  *rate,
				Enabled: true,
			}},
			Energy: sensor.EnergyParams{TxBase: 0.5, TxPerByte: 0.002, RxPerByte: 0.001, PerSample: 0.05},
		}); err != nil {
			return err
		}
	}

	all := consumer.NewRecorder("monitor", 1)
	if _, err := d.Dispatcher().Subscribe(all, dispatch.All()); err != nil {
		return err
	}

	fmt.Fprintf(w, "garnet-sim: %d sensors, %d receivers, %d transmitters, %v simulated, loss %.0f%%\n",
		*sensors, *receivers, *txs, *duration, *loss*100)
	d.Start()
	wall := time.Now()

	if *actuate {
		clock.RunUntil(epoch.Add(*duration / 2))
		newRate := uint32(2 * 1000 * float64(time.Second) / float64(*rate))
		fmt.Fprintf(w, "t=%v: actuating every stream to %d mHz through the return path\n", *duration/2, newRate)
		for i := 0; i < *sensors; i++ {
			if _, err := d.SubmitDemand(resource.Demand{
				Consumer: "operator",
				Target:   wire.MustStreamID(wire.SensorID(i+1), 0),
				Op:       wire.OpSetRate,
				Value:    newRate,
			}); err != nil {
				return err
			}
		}
	}
	clock.RunUntil(epoch.Add(*duration))
	d.Stop()
	elapsed := time.Since(wall)

	s := d.Stats()
	med := d.Medium().Metrics()
	fmt.Fprintf(w, "\n--- results (%v wall clock) ---\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "medium      broadcasts=%d deliveries=%d lost=%d corrupted=%d out-of-range=%d\n",
		med.Broadcasts.Value(), med.Deliveries.Value(), med.Lost.Value(), med.Corrupted.Value(), med.OutOfRange.Value())
	fmt.Fprintf(w, "filtering   received=%d delivered=%d duplicates=%d stale=%d gaps=%d recovered=%d streams=%d\n",
		s.Filter.Received, s.Filter.Delivered, s.Filter.Duplicates, s.Filter.Stale,
		s.Filter.Gaps, s.Filter.GapsRecovered, s.Filter.ActiveStreams)
	fmt.Fprintf(w, "dispatching dispatched=%d delivered=%d orphaned=%d\n",
		s.Dispatch.Dispatched, s.Dispatch.Delivered, s.Dispatch.Orphaned)
	fmt.Fprintf(w, "store       streams=%d retained=%d bytes=%d evicted=%d\n",
		s.Store.Streams, s.Store.RetainedMessages, s.Store.RetainedBytes,
		s.Store.EvictedCount+s.Store.EvictedBytes+s.Store.EvictedAge)
	fmt.Fprintf(w, "orphanage   streams=%d held=%d evicted=%d\n",
		s.Orphanage.StreamsHeld, s.Orphanage.MessagesHeld, s.Orphanage.StreamsEvicted)
	fmt.Fprintf(w, "resource    submitted=%d approved=%d modified=%d denied=%d\n",
		s.Resource.Submitted, s.Resource.Approved, s.Resource.Modified, s.Resource.Denied)
	fmt.Fprintf(w, "actuation   issued=%d acked=%d expired=%d retries=%d\n",
		s.Actuation.Issued, s.Actuation.Acked, s.Actuation.Expired, s.Actuation.Retries)
	if s.Actuation.Acked > 0 {
		lat := d.ActuationService().Latency()
		fmt.Fprintf(w, "            ack latency mean=%.1fms p95=%.1fms\n", lat.Mean(), lat.Percentile(95))
	}
	fmt.Fprintf(w, "replicator  requests=%d targeted=%d (paged=%d) flooded=%d broadcasts=%d\n",
		s.Replicator.Requests, s.Replicator.Targeted, s.Replicator.Paged, s.Replicator.Flooded, s.Replicator.Broadcasts)
	fmt.Fprintf(w, "consumer    received=%d unique stream messages\n", all.Count())

	var energy float64
	alive := 0
	for _, n := range d.Sensors() {
		energy += n.EnergyUsed()
		if n.Alive() {
			alive++
		}
	}
	fmt.Fprintf(w, "field       energy=%.1fmJ alive=%d/%d\n", energy, alive, *sensors)
	return nil
}
