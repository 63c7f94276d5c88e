package experiments

import (
	"time"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// The transmit-only baseline (E12) motivates the paper's return path (§2):
// a deployment whose sensors cannot receive control messages. Consumers'
// interest in a stream varies over time, but a transmit-only field must
// keep sampling at the rate the most demanding phase requires — it cannot
// be told to slow down — so it burns energy producing samples nobody
// wants. With Garnet's actuation path the same
// consumers lower the rate whenever their interest lapses.
//
// Both arms run on the real middleware substrate with identical sensors,
// energy model and interest schedule.

// txWorkload parameterises one comparison run.
type txWorkload struct {
	// BusyPeriod / IdlePeriod alternate: the consumer is interested during
	// busy windows only.
	BusyPeriod, IdlePeriod time.Duration
	Cycles                 int
	// BusyRateMilliHz is the sampling rate consumers need while
	// interested; IdleRateMilliHz is the keep-alive rate the adaptive arm
	// drops to in between.
	BusyRateMilliHz, IdleRateMilliHz uint32
	PayloadBytes                     int
	Energy                           sensor.EnergyParams
}

// txResult summarises one arm.
type txResult struct {
	Mode          string
	SamplesTaken  int64
	UsefulSamples int64 // deliveries during interested windows
	WastedSamples int64 // deliveries while nobody cared
	SensorEnergy  float64
	// EnergyPerUsefulSample is the figure of merit: mJ spent per sample a
	// consumer actually wanted.
	EnergyPerUsefulSample float64
}

// runTxOnly executes one arm. adaptive selects the Garnet return-path arm.
func runTxOnly(w txWorkload, adaptive bool) (txResult, error) {
	clock := sim.NewVirtualClock(epoch)
	d := core.New(core.Config{Clock: clock, Secret: []byte("bench")})
	defer d.Stop()
	d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 1000})
	d.AddTransmitter(transmit.Config{Name: "tx", Position: geo.Pt(0, 0), Range: 1000})

	caps := sensor.Capability(0)
	if adaptive {
		caps = sensor.CapReceive
	}
	busyPeriod := rateToPeriod(w.BusyRateMilliHz)
	node, err := d.AddSensor(sensor.Config{
		ID:           1,
		Capabilities: caps,
		Mobility:     field.Static{P: geo.Pt(10, 0)},
		TxRange:      1000,
		Streams: []sensor.StreamConfig{{
			Index:   0,
			Sampler: sensor.SizedSampler(w.PayloadBytes),
			Period:  busyPeriod, // transmit-only fields must assume the worst case
			Enabled: true,
		}},
		Energy: w.Energy,
	})
	if err != nil {
		return txResult{}, err
	}

	interested := true
	var useful, wasted int64
	gate := &dispatch.ConsumerFunc{ConsumerName: "interest", Fn: func(filtering.Delivery) {
		if interested {
			useful++
		} else {
			wasted++
		}
	}}
	if _, err := d.Dispatcher().Subscribe(gate, dispatch.Exact(wire.MustStreamID(1, 0))); err != nil {
		return txResult{}, err
	}
	d.Start()

	target := wire.MustStreamID(1, 0)
	for c := 0; c < w.Cycles; c++ {
		interested = true
		if adaptive {
			if _, err := d.SubmitDemand(resource.Demand{
				Consumer: "app", Target: target, Op: wire.OpSetRate, Value: w.BusyRateMilliHz,
			}); err != nil {
				return txResult{}, err
			}
		}
		clock.Advance(w.BusyPeriod)

		interested = false
		if adaptive {
			if _, err := d.SubmitDemand(resource.Demand{
				Consumer: "app", Target: target, Op: wire.OpSetRate, Value: w.IdleRateMilliHz,
			}); err != nil {
				return txResult{}, err
			}
		}
		clock.Advance(w.IdlePeriod)
	}
	d.Stop()

	st := node.Stats()
	res := txResult{
		Mode:          "transmit-only",
		SamplesTaken:  st.SamplesTaken,
		UsefulSamples: useful,
		WastedSamples: wasted,
		SensorEnergy:  st.EnergyUsed,
	}
	if adaptive {
		res.Mode = "garnet-adaptive"
	}
	if useful > 0 {
		res.EnergyPerUsefulSample = st.EnergyUsed / float64(useful)
	}
	return res, nil
}

func rateToPeriod(mHz uint32) time.Duration {
	return time.Duration(float64(time.Second) * 1000.0 / float64(mHz))
}
