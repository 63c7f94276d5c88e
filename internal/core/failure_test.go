package core

import (
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Failure-injection tests: the middleware must degrade cleanly when the
// field misbehaves — batteries die, sensors roam away mid-actuation,
// unclaimed streams flood the orphanage, and whole frames arrive
// corrupted.

func TestSensorBatteryDeathStopsStreamCleanly(t *testing.T) {
	d, clock := buildRig(t, radio.Params{})
	defer d.Stop()
	n, err := d.AddSensor(sensor.Config{
		ID:       1,
		Mobility: field.Static{P: geo.Pt(100, 100)},
		TxRange:  300,
		Streams: []sensor.StreamConfig{{
			Index: 0, Sampler: sensor.SizedSampler(8), Period: time.Second, Enabled: true,
		}},
		Energy:  sensor.EnergyParams{TxBase: 1},
		Battery: 5.5, // five transmissions
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := consumer.NewRecorder("app", 64)
	if _, err := d.Dispatcher().Subscribe(rec, dispatch.Exact(wire.MustStreamID(1, 0))); err != nil {
		t.Fatal(err)
	}
	d.Start()
	clock.Advance(time.Minute)

	if n.Alive() {
		t.Fatal("node should be dead")
	}
	if got := rec.Count(); got != 5 {
		t.Fatalf("deliveries = %d, want 5 then silence", got)
	}
	// The stream's filter state survives; the pipeline itself is healthy.
	if st := d.Stats().Filter; st.ActiveStreams != 1 {
		t.Fatalf("filter streams = %d", st.ActiveStreams)
	}
}

func TestActuationExpiresWhenSensorRoamsAway(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{
		Clock:     clock,
		Secret:    []byte("s"),
		Actuation: actuation.Options{RetryInterval: time.Second, MaxAttempts: 3},
	})
	defer d.Stop()
	d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 200})
	d.AddTransmitter(transmit.Config{Name: "tx", Position: geo.Pt(0, 0), Range: 200})

	// The sensor walks straight out of coverage at 50 m/s.
	if _, err := d.AddSensor(sensor.Config{
		ID:           1,
		Capabilities: sensor.CapReceive,
		Mobility:     field.Linear{Start: geo.Pt(100, 0), Velocity: geo.Pt(50, 0), Epoch: epoch},
		TxRange:      200,
		Streams: []sensor.StreamConfig{{
			Index: 0, Sampler: sensor.SizedSampler(8), Period: time.Second, Enabled: true,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	d.Start()
	clock.Advance(5 * time.Second) // sensor now at x=350, far out of range

	var outcome actuation.Outcome
	if _, err := d.ActuationService().Issue(actuation.Request{
		Target: wire.MustStreamID(1, 0), Op: wire.OpPing, Consumer: "app",
	}, func(r actuation.Result) { outcome = r.Outcome }); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)

	if outcome != actuation.OutcomeExpired {
		t.Fatalf("outcome = %v, want expired (sensor unreachable)", outcome)
	}
	st := d.ActuationService().Stats()
	if st.Expired != 1 || st.Outstanding != 0 {
		t.Fatalf("actuation stats = %+v", st)
	}
}

func TestOrphanageUnderStreamPressure(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{
		Clock:     clock,
		Secret:    []byte("s"),
		Orphanage: orphanage.Options{MaxStreams: 8, PerStreamCapacity: 4},
	})
	defer d.Stop()
	d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 1e6})
	// 32 unclaimed sensors compete for 8 orphanage slots.
	for i := 0; i < 32; i++ {
		if _, err := d.AddSensor(sensor.Config{
			ID:       wire.SensorID(i + 1),
			Mobility: field.Static{P: geo.Pt(1, 0)},
			TxRange:  1e6,
			Streams: []sensor.StreamConfig{{
				Index: 0, Sampler: sensor.SizedSampler(4), Period: time.Second, Enabled: true,
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()
	clock.Advance(10 * time.Second)

	st := d.Orphanage().Stats()
	if st.StreamsHeld != 8 {
		t.Fatalf("held %d streams, want capped 8", st.StreamsHeld)
	}
	if st.StreamsEvicted == 0 {
		t.Fatal("no evictions under pressure")
	}
	if st.MessagesHeld > 8*4 {
		t.Fatalf("held %d messages, cap is 32", st.MessagesHeld)
	}
	// Claims still work for surviving streams.
	infos := d.Orphanage().Streams()
	if backlog, ok := d.Orphanage().Claim(infos[0].Stream); !ok || len(backlog) == 0 {
		t.Fatal("claim failed under pressure")
	}
}

func TestHeavyCorruptionScreenedEndToEnd(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{
		Clock:  clock,
		Radio:  radio.Params{CorruptProb: 0.5, Seed: 3},
		Secret: []byte("s"),
	})
	defer d.Stop()
	d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 1e6})
	if _, err := d.AddSensor(sensor.Config{
		ID:       1,
		Mobility: field.Static{P: geo.Pt(1, 0)},
		TxRange:  1e6,
		Streams: []sensor.StreamConfig{{
			Index: 0, Sampler: sensor.ConstantSampler([]byte("payload")), Period: time.Second, Enabled: true,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := d.Dispatcher().Subscribe(&dispatch.ConsumerFunc{
		ConsumerName: "app",
		Fn:           func(del filtering.Delivery) { got = append(got, string(del.Msg.Payload)) },
	}, dispatch.All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	clock.Advance(100 * time.Second)

	// Half the frames were corrupted; every survivor must be intact.
	if len(got) < 30 || len(got) > 70 {
		t.Fatalf("delivered %d of 100 at 50%% corruption", len(got))
	}
	for _, p := range got {
		if p != "payload" {
			t.Fatalf("corrupted payload delivered: %q", p)
		}
	}
}

func TestMultiHopRelayEndToEnd(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{Clock: clock, Secret: []byte("s")})
	defer d.Stop()
	// Receiver with a 150 m zone at the origin; source sensor 400 m out;
	// two relay nodes bridging the gap.
	d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 150})
	if _, err := d.AddSensor(sensor.Config{
		ID:       1,
		Mobility: field.Static{P: geo.Pt(400, 0)},
		TxRange:  160,
		Streams: []sensor.StreamConfig{{
			Index: 0, Sampler: sensor.ConstantSampler([]byte("deep-field")), Period: time.Second, Enabled: true,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{260, 130} {
		if _, err := d.AddSensor(sensor.Config{
			ID:       wire.SensorID(100 + i),
			Mobility: field.Static{P: geo.Pt(x, 0)},
			TxRange:  160,
			Relay:    sensor.RelayConfig{Enabled: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	rec := consumer.NewRecorder("app", 64)
	if _, err := d.Dispatcher().Subscribe(rec, dispatch.Exact(wire.MustStreamID(1, 0))); err != nil {
		t.Fatal(err)
	}
	d.Start()
	clock.Advance(5 * time.Second)

	if rec.Count() != 5 {
		t.Fatalf("multi-hop deliveries = %d, want 5", rec.Count())
	}
	last, _ := rec.Last()
	if !last.Msg.Flags.Has(wire.FlagRelayed) || last.Msg.HopCount != 2 {
		t.Fatalf("delivery not two-hop relayed: flags=%v hops=%d", last.Msg.Flags, last.Msg.HopCount)
	}
	// Relayed receptions must not have polluted location inference: the
	// source sensor is outside every zone, so it stays unlocatable.
	if _, err := d.Location().Locate(1); err == nil {
		t.Fatal("relayed frames leaked into location inference")
	}
}
