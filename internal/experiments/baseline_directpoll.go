package experiments

import (
	"fmt"
	"time"

	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// The direct-polling baseline (E3) behind the paper's §7
// comparison with Madden & Franklin's Fjords: queries that each access the
// sensor directly, without a shared reconstructed stream. Fjords showed
// that letting “a set of queries … operate over the same sensor stream”
// yields “significant improvements to their ability to handle simultaneous
// queries”; Garnet's Dispatching Service provides the same sharing for
// mutually-unaware consumers.
//
// Both arms run on the real middleware substrate with the same energy
// model and virtual clock:
//
//   - Direct polling: each of the N queries is served by its own private
//     sensor stream (the sensor transmits N times per sample period) —
//     the per-query sensor access Fjords replaced.
//   - Shared stream: the sensor transmits once per period; the Dispatching
//     Service fans the stream out to the N subscribed consumers.

// pollWorkload parameterises one comparison run.
type pollWorkload struct {
	Queries      int           // simultaneous consumers
	SamplePeriod time.Duration // per-query data period
	Duration     time.Duration // simulated time
	PayloadBytes int
	Energy       sensor.EnergyParams
	Seed         uint64
}

// pollResult summarises one arm of the comparison.
type pollResult struct {
	Mode                string
	SensorTransmissions int64
	SensorBytes         int64
	SensorEnergy        float64 // millijoules
	ConsumerDeliveries  int64   // messages received across all queries
}

// runPoll executes one arm: streams is the number of private per-query
// streams on the sensor (Queries for direct polling, 1 for shared).
func runPoll(w pollWorkload, shared bool) (pollResult, error) {
	if w.Queries < 1 || w.Queries > 250 {
		return pollResult{}, fmt.Errorf("directpoll: queries %d out of range", w.Queries)
	}
	clock := sim.NewVirtualClock(epoch)
	d := core.New(core.Config{Clock: clock, Secret: []byte("bench")})
	defer d.Stop()
	d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 1000})

	streams := w.Queries
	if shared {
		streams = 1
	}
	cfgs := make([]sensor.StreamConfig, 0, streams)
	for i := 0; i < streams; i++ {
		cfgs = append(cfgs, sensor.StreamConfig{
			Index:   wire.StreamIndex(i),
			Sampler: sensor.SizedSampler(w.PayloadBytes),
			Period:  w.SamplePeriod,
			Enabled: true,
		})
	}
	node, err := d.AddSensor(sensor.Config{
		ID:       1,
		Mobility: field.Static{P: geo.Pt(10, 0)},
		TxRange:  1000,
		Streams:  cfgs,
		Energy:   w.Energy,
	})
	if err != nil {
		return pollResult{}, err
	}

	recorders := make([]*consumer.Recorder, w.Queries)
	for q := 0; q < w.Queries; q++ {
		recorders[q] = consumer.NewRecorder(fmt.Sprintf("query-%d", q), 1)
		index := wire.StreamIndex(0)
		if !shared {
			index = wire.StreamIndex(q)
		}
		if _, err := d.Dispatcher().Subscribe(recorders[q], dispatch.Exact(wire.MustStreamID(1, index))); err != nil {
			return pollResult{}, err
		}
	}
	d.Start()
	clock.RunUntil(epoch.Add(w.Duration))
	d.Stop()

	st := node.Stats()
	var delivered int64
	for _, r := range recorders {
		delivered += r.Count()
	}
	mode := "direct-poll"
	if shared {
		mode = "garnet-shared"
	}
	return pollResult{
		Mode:                mode,
		SensorTransmissions: st.MessagesSent,
		SensorBytes:         st.BytesSent,
		SensorEnergy:        st.EnergyUsed,
		ConsumerDeliveries:  delivered,
	}, nil
}

// directPolling runs the per-query-access arm.
func directPolling(w pollWorkload) (pollResult, error) { return runPoll(w, false) }

// sharedStream runs the Garnet shared-stream arm.
func sharedStream(w pollWorkload) (pollResult, error) { return runPoll(w, true) }
