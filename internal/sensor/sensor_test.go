package sensor

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

type uplinkTap struct {
	mu   sync.Mutex
	msgs []wire.Message
}

func (u *uplinkTap) attach(m *radio.Medium) {
	m.Attach(radio.BandUplink, &radio.Listener{
		Name:     "tap",
		Position: func() geo.Point { return geo.Pt(0, 0) },
		Radius:   1e9,
		Deliver: func(f radio.Frame) {
			msg, _, err := wire.DecodeMessage(f.Data)
			if err != nil {
				return
			}
			u.mu.Lock()
			u.msgs = append(u.msgs, msg)
			u.mu.Unlock()
		},
	})
}

func (u *uplinkTap) all() []wire.Message {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]wire.Message, len(u.msgs))
	copy(out, u.msgs)
	return out
}

func testRig(t *testing.T) (*sim.VirtualClock, *radio.Medium, *uplinkTap) {
	t.Helper()
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	tap := &uplinkTap{}
	tap.attach(medium)
	return clock, medium, tap
}

func basicConfig(id wire.SensorID) Config {
	return Config{
		ID:       id,
		Mobility: field.Static{P: geo.Pt(0, 0)},
		TxRange:  100,
		Streams: []StreamConfig{{
			Index:   0,
			Sampler: ConstantSampler([]byte("data")),
			Period:  time.Second,
			Enabled: true,
		}},
	}
}

func sendControl(t *testing.T, clock sim.Clock, medium *radio.Medium, c wire.ControlMessage) {
	t.Helper()
	c.Issued = clock.Now()
	frame, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	medium.Broadcast(radio.BandDownlink, geo.Pt(0, 0), 1e9, frame)
}

func TestNodeSamplesPeriodically(t *testing.T) {
	clock, medium, tap := testRig(t)
	n, err := New(clock, medium, basicConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	clock.Advance(5 * time.Second)
	msgs := tap.all()
	if len(msgs) != 5 {
		t.Fatalf("received %d messages, want 5", len(msgs))
	}
	for i, m := range msgs {
		if m.Stream != wire.MustStreamID(7, 0) {
			t.Errorf("msg %d stream = %v", i, m.Stream)
		}
		if m.Seq != wire.Seq(i) {
			t.Errorf("msg %d seq = %d, want %d", i, m.Seq, i)
		}
		if string(m.Payload) != "data" {
			t.Errorf("msg %d payload = %q", i, m.Payload)
		}
	}
}

func TestNodeMultipleStreams(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(3)
	cfg.Streams = append(cfg.Streams, StreamConfig{
		Index:   5,
		Sampler: ConstantSampler([]byte("fast")),
		Period:  250 * time.Millisecond,
		Enabled: true,
	})
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	clock.Advance(2 * time.Second)
	var slow, fast int
	for _, m := range tap.all() {
		switch m.Stream.Index() {
		case 0:
			slow++
		case 5:
			fast++
		}
	}
	if slow != 2 || fast != 8 {
		t.Fatalf("slow=%d fast=%d, want 2 and 8", slow, fast)
	}
}

func TestDisabledStreamDoesNotTransmit(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(3)
	cfg.Streams[0].Enabled = false
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	clock.Advance(10 * time.Second)
	if len(tap.all()) != 0 {
		t.Fatal("disabled stream transmitted")
	}
}

func TestSimpleNodeIgnoresDownlink(t *testing.T) {
	clock, medium, tap := testRig(t)
	n, err := New(clock, medium, basicConfig(9)) // no CapReceive
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 1, Target: wire.MustStreamID(9, 0), Op: wire.OpSetRate, Value: 10_000, // 10 Hz
	})
	clock.Advance(3 * time.Second)

	if got := len(tap.all()); got != 3 {
		t.Fatalf("got %d messages, want 3 (rate change must be ignored)", got)
	}
	if st := n.Stats(); st.ControlsReceived != 0 {
		t.Fatalf("simple node received %d controls", st.ControlsReceived)
	}
}

func TestReceiveCapableNodeAppliesSetRate(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(9)
	cfg.Capabilities = CapReceive
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	clock.Advance(2 * time.Second) // 2 messages at 1 Hz
	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 42, Target: wire.MustStreamID(9, 0), Op: wire.OpSetRate, Value: 4000, // 4 Hz
	})
	clock.Advance(2 * time.Second) // 8 more at 4 Hz

	msgs := tap.all()
	if len(msgs) != 10 {
		t.Fatalf("got %d messages, want 10", len(msgs))
	}
	if p, _ := n.StreamPeriod(0); p != 250*time.Millisecond {
		t.Fatalf("period = %v, want 250ms", p)
	}
	// The first message after the control carries the ack.
	ackMsg := msgs[2]
	if !ackMsg.Flags.Has(wire.FlagUpdateAck) || ackMsg.AckID != 42 {
		t.Fatalf("first post-control message: flags=%v ackID=%d, want ack 42", ackMsg.Flags, ackMsg.AckID)
	}
	// Later messages do not repeat the ack.
	if msgs[3].Flags.Has(wire.FlagUpdateAck) {
		t.Fatal("ack repeated on subsequent message")
	}
}

func TestEnableDisableStream(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(4)
	cfg.Capabilities = CapReceive
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 1, Target: wire.MustStreamID(4, 0), Op: wire.OpDisableStream,
	})
	clock.Advance(5 * time.Second)
	afterDisable := len(tap.all())
	if afterDisable != 0 {
		t.Fatalf("%d messages after disable, want 0", afterDisable)
	}
	if n.StreamEnabled(0) {
		t.Fatal("stream still enabled")
	}

	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 2, Target: wire.MustStreamID(4, 0), Op: wire.OpEnableStream,
	})
	clock.Advance(3 * time.Second)
	if got := len(tap.all()); got != 3 {
		t.Fatalf("%d messages after enable, want 3", got)
	}
	if !n.StreamEnabled(0) {
		t.Fatal("stream not re-enabled")
	}
}

func TestPayloadLimitTruncates(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(5)
	cfg.Capabilities = CapReceive
	cfg.Streams[0].Sampler = ConstantSampler([]byte("0123456789"))
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 1, Target: wire.MustStreamID(5, 0), Op: wire.OpSetPayloadLimit, Value: 4,
	})
	clock.Advance(time.Second)
	msgs := tap.all()
	if len(msgs) != 1 {
		t.Fatalf("got %d messages", len(msgs))
	}
	if string(msgs[0].Payload) != "0123" {
		t.Fatalf("payload = %q, want truncated \"0123\"", msgs[0].Payload)
	}
}

func TestSetParamAndPing(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(6)
	cfg.Capabilities = CapReceive
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 10, Target: wire.MustStreamID(6, 0), Op: wire.OpSetParam, Param: 3, Value: 777,
	})
	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 11, Target: wire.MustStreamID(6, 0), Op: wire.OpPing,
	})
	clock.Advance(2 * time.Second)

	if v, ok := n.Param(3); !ok || v != 777 {
		t.Fatalf("Param(3) = %d,%v want 777", v, ok)
	}
	// Both acks piggyback on the next two data messages, in order.
	msgs := tap.all()
	if len(msgs) < 2 {
		t.Fatalf("got %d messages", len(msgs))
	}
	if msgs[0].AckID != 10 || !msgs[0].Flags.Has(wire.FlagUpdateAck) {
		t.Fatalf("first ack = %d", msgs[0].AckID)
	}
	if msgs[1].AckID != 11 || !msgs[1].Flags.Has(wire.FlagUpdateAck) {
		t.Fatalf("second ack = %d", msgs[1].AckID)
	}
}

func TestDuplicateControlNotDoubleAcked(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(6)
	cfg.Capabilities = CapReceive
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	// The same request delivered twice before any uplink message goes out
	// (e.g. heard via two transmitters) must queue a single ack.
	c := wire.ControlMessage{UpdateID: 9, Target: wire.MustStreamID(6, 0), Op: wire.OpPing}
	sendControl(t, clock, medium, c)
	sendControl(t, clock, medium, c)
	clock.Advance(2 * time.Second)

	acks := 0
	for _, m := range tap.all() {
		if m.Flags.Has(wire.FlagUpdateAck) {
			acks++
		}
	}
	if acks != 1 {
		t.Fatalf("acks = %d, want 1", acks)
	}
}

func TestControlForOtherSensorIgnored(t *testing.T) {
	clock, medium, _ := testRig(t)
	cfg := basicConfig(6)
	cfg.Capabilities = CapReceive
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 1, Target: wire.MustStreamID(99, 0), Op: wire.OpPing,
	})
	clock.Advance(100 * time.Millisecond)
	if st := n.Stats(); st.ControlsReceived != 0 {
		t.Fatalf("received %d controls addressed elsewhere", st.ControlsReceived)
	}
}

func TestControlUnknownStreamIgnoredNotAcked(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(6)
	cfg.Capabilities = CapReceive
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	sendControl(t, clock, medium, wire.ControlMessage{
		UpdateID: 1, Target: wire.MustStreamID(6, 200), Op: wire.OpSetRate, Value: 1000,
	})
	clock.Advance(2 * time.Second)
	st := n.Stats()
	if st.ControlsIgnored != 1 || st.ControlsApplied != 0 {
		t.Fatalf("ignored=%d applied=%d, want 1/0", st.ControlsIgnored, st.ControlsApplied)
	}
	for _, m := range tap.all() {
		if m.Flags.Has(wire.FlagUpdateAck) {
			t.Fatal("inapplicable control was acked")
		}
	}
}

func TestLocationAwareFlag(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(8)
	cfg.Capabilities = CapLocationAware
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	clock.Advance(time.Second)
	msgs := tap.all()
	if len(msgs) != 1 || !msgs[0].Flags.Has(wire.FlagLocationAware) {
		t.Fatal("location-aware flag missing")
	}
}

func TestEnergyAccountingAndBatteryDeath(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(2)
	cfg.Energy = EnergyParams{TxBase: 1, TxPerByte: 0, PerSample: 0}
	cfg.Battery = 3.5 // enough for 3 transmissions
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	clock.Advance(10 * time.Second)
	if got := len(tap.all()); got != 3 {
		t.Fatalf("sent %d messages, want 3 before battery death", got)
	}
	if n.Alive() {
		t.Fatal("node should be dead")
	}
	if e := n.EnergyUsed(); e != 3 {
		t.Fatalf("energy used = %v, want 3", e)
	}
}

func TestEnergyPerByteCharged(t *testing.T) {
	clock, medium, _ := testRig(t)
	cfg := basicConfig(2)
	cfg.Streams[0].Sampler = ConstantSampler(make([]byte, 10))
	cfg.Energy = EnergyParams{TxPerByte: 0.5}
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	clock.Advance(time.Second)
	// Frame = 9 header + 10 payload + 2 checksum = 21 bytes → 10.5 mJ.
	if e := n.EnergyUsed(); e != 10.5 {
		t.Fatalf("energy = %v, want 10.5", e)
	}
}

func TestRoamingOutOfRangeLosesMessages(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	tap := &uplinkTap{}
	// Receiver with a tight 50 m zone at the origin.
	medium.Attach(radio.BandUplink, &radio.Listener{
		Name:     "rx",
		Position: func() geo.Point { return geo.Pt(0, 0) },
		Radius:   50,
		Deliver: func(f radio.Frame) {
			msg, _, err := wire.DecodeMessage(f.Data)
			if err == nil {
				tap.mu.Lock()
				tap.msgs = append(tap.msgs, msg)
				tap.mu.Unlock()
			}
		},
	})
	cfg := basicConfig(1)
	// Walk straight out of coverage at 10 m/s starting at the origin.
	cfg.Mobility = field.Linear{Start: geo.Pt(0, 0), Velocity: geo.Pt(10, 0), Epoch: epoch}
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	clock.Advance(10 * time.Second)
	// In range for the first 5 seconds (≤50 m), out after.
	got := len(tap.all())
	if got != 5 {
		t.Fatalf("received %d messages, want 5 (sensor roamed out of zone)", got)
	}
}

func TestTriggerSample(t *testing.T) {
	clock, medium, tap := testRig(t)
	cfg := basicConfig(1)
	cfg.Streams[0].Enabled = false
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	if err := n.TriggerSample(0); err != nil {
		t.Fatal(err)
	}
	if err := n.TriggerSample(99); err == nil {
		t.Fatal("TriggerSample on unknown stream should fail")
	}
	clock.RunAll()
	if len(tap.all()) != 1 {
		t.Fatalf("got %d messages, want 1", len(tap.all()))
	}
}

func TestStopHaltsTransmission(t *testing.T) {
	clock, medium, tap := testRig(t)
	n, err := New(clock, medium, basicConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	clock.Advance(2 * time.Second)
	n.Stop()
	clock.Advance(10 * time.Second)
	if got := len(tap.all()); got != 2 {
		t.Fatalf("messages after stop: %d, want 2", got)
	}
}

func TestConfigValidation(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{"sensor id too large", func(c *Config) { c.ID = wire.MaxSensorID + 1 }, wire.ErrSensorRange},
		{"nil mobility", func(c *Config) { c.Mobility = nil }, ErrNoMobility},
		{"zero tx range", func(c *Config) { c.TxRange = 0 }, ErrBadStream},
		{"zero period", func(c *Config) { c.Streams[0].Period = 0 }, ErrBadStream},
		{"nil sampler", func(c *Config) { c.Streams[0].Sampler = nil }, ErrBadStream},
		{"duplicate index", func(c *Config) {
			c.Streams = append(c.Streams, StreamConfig{Index: 0, Sampler: ConstantSampler(nil), Period: time.Second})
		}, ErrDuplicateIx},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := basicConfig(1)
			tt.mutate(&cfg)
			if _, err := New(clock, medium, cfg); !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestSamplerHelpers(t *testing.T) {
	t.Run("sized", func(t *testing.T) {
		if got := len(SizedSampler(32)(epoch, 0)); got != 32 {
			t.Errorf("SizedSampler length = %d", got)
		}
	})
	t.Run("reading round trip", func(t *testing.T) {
		at := epoch.Add(123456 * time.Microsecond)
		payload := EncodeReading(21.5, at)
		v, ts, ok := DecodeReading(payload)
		if !ok || v != 21.5 || !ts.Equal(at) {
			t.Errorf("DecodeReading = %v %v %v", v, ts, ok)
		}
	})
	t.Run("reading too short", func(t *testing.T) {
		if _, _, ok := DecodeReading([]byte{1, 2, 3}); ok {
			t.Error("short payload should not decode")
		}
	})
	t.Run("float sampler", func(t *testing.T) {
		s := FloatSampler(func(time.Time) float64 { return 42 })
		v, _, ok := DecodeReading(s(epoch, 0))
		if !ok || v != 42 {
			t.Errorf("FloatSampler reading = %v %v", v, ok)
		}
	})
}

func TestStatsSnapshot(t *testing.T) {
	clock, medium, _ := testRig(t)
	cfg := basicConfig(1)
	cfg.Capabilities = CapReceive
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	sendControl(t, clock, medium, wire.ControlMessage{UpdateID: 5, Target: wire.MustStreamID(1, 0), Op: wire.OpPing})
	clock.Advance(3 * time.Second)
	st := n.Stats()
	if st.MessagesSent != 3 || st.SamplesTaken != 3 {
		t.Errorf("sent=%d samples=%d, want 3/3", st.MessagesSent, st.SamplesTaken)
	}
	if st.ControlsReceived != 1 || st.ControlsApplied != 1 || st.AcksSent != 1 {
		t.Errorf("controls: recv=%d applied=%d acks=%d, want 1/1/1", st.ControlsReceived, st.ControlsApplied, st.AcksSent)
	}
	if !st.Alive {
		t.Error("node should be alive")
	}
	if st.BytesSent == 0 {
		t.Error("BytesSent should be non-zero")
	}
}

// sendControlAt broadcasts a control message with an explicit issue
// timestamp (sendControl stamps clock.Now()), for simulating downlink
// reordering: a delayed retransmission arriving after a newer setting.
func sendControlAt(t *testing.T, medium *radio.Medium, c wire.ControlMessage, issued time.Time) {
	t.Helper()
	c.Issued = issued
	frame, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	medium.Broadcast(radio.BandDownlink, geo.Pt(0, 0), 1e9, frame)
}

// The downlink has no ordering guarantee: jitter (or a retry of a
// superseded request) can deliver an older setting after a newer one.
// The node must apply settings in issue order — a control message whose
// issue timestamp is older than the last applied for the same setting is
// ignored and not acked, so the stale value can never revert the sensor.
func TestStaleControlIgnoredByIssueOrder(t *testing.T) {
	clock, medium, _ := testRig(t)
	cfg := basicConfig(9)
	cfg.Capabilities = CapReceive
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	target := wire.MustStreamID(9, 0)
	newer := clock.Now().Add(2 * time.Second)
	older := clock.Now().Add(1 * time.Second)

	// The newer setting (4 Hz) arrives first.
	sendControlAt(t, medium, wire.ControlMessage{
		UpdateID: 2, Target: target, Op: wire.OpSetRate, Value: 4000,
	}, newer)
	clock.Advance(time.Millisecond)
	if p, _ := n.StreamPeriod(0); p != 250*time.Millisecond {
		t.Fatalf("period = %v, want 250ms", p)
	}

	// The older setting (10 Hz) is a delayed retransmission: stale, ignored.
	sendControlAt(t, medium, wire.ControlMessage{
		UpdateID: 1, Target: target, Op: wire.OpSetRate, Value: 10_000,
	}, older)
	clock.Advance(time.Millisecond)
	if p, _ := n.StreamPeriod(0); p != 250*time.Millisecond {
		t.Fatalf("period = %v after stale control, want 250ms kept", p)
	}
	st := n.Stats()
	if st.ControlsApplied != 1 || st.ControlsIgnored != 1 {
		t.Fatalf("controls: applied=%d ignored=%d, want 1/1", st.ControlsApplied, st.ControlsIgnored)
	}

	// A retransmission of the applied setting (equal timestamp) still
	// applies and re-acks — duplicate deliveries of a retried request
	// must keep acking, or the middleware would retry forever.
	sendControlAt(t, medium, wire.ControlMessage{
		UpdateID: 2, Target: target, Op: wire.OpSetRate, Value: 4000,
	}, newer)
	clock.Advance(time.Millisecond)
	if st := n.Stats(); st.ControlsApplied != 2 || st.ControlsIgnored != 1 {
		t.Fatalf("controls after dup: applied=%d ignored=%d, want 2/1", st.ControlsApplied, st.ControlsIgnored)
	}

	// Ordering is per setting: an older-stamped control for a different
	// setting class (payload limit) is not stale.
	sendControlAt(t, medium, wire.ControlMessage{
		UpdateID: 3, Target: target, Op: wire.OpSetPayloadLimit, Value: 8,
	}, older)
	clock.Advance(time.Millisecond)
	if st := n.Stats(); st.ControlsApplied != 3 {
		t.Fatalf("payload control: applied=%d, want 3", st.ControlsApplied)
	}
}

// nowCounter counts Now calls on the clock a node was built with. A node
// whose mobility is not field.Static reads the clock exactly once per
// Position call, so with the medium on a clock of its own the count is the
// number of Position calls the medium makes.
type nowCounter struct {
	sim.Clock
	calls int
}

func (c *nowCounter) Now() time.Time {
	c.calls++
	return c.Clock.Now()
}

// TestStaticMobilityAttachesStaticListeners pins that a sensor whose
// mobility is field.Static is indexed once by the medium: broadcasts on
// its bands make no Position call after Start, while any other mobility
// model is still polled once per listener per broadcast.
func TestStaticMobilityAttachesStaticListeners(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mobility field.Mobility
		perBcast int
	}{
		{"static", field.Static{P: geo.Pt(0, 0)}, 0},
		{"linear", field.Linear{Start: geo.Pt(0, 0), Epoch: epoch}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := sim.NewVirtualClock(epoch)
			medium := radio.NewMedium(base, radio.Params{})
			clock := &nowCounter{Clock: base}
			cfg := basicConfig(1)
			cfg.Mobility = tc.mobility
			cfg.Capabilities = CapReceive
			cfg.RxRadius = 100
			cfg.Relay = RelayConfig{Enabled: true, ListenRadius: 100}
			cfg.Streams[0].Enabled = false
			n, err := New(clock, medium, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Start()
			defer n.Stop()
			// A field.Static node answers Position without reading the
			// clock, which would hide a medium that polled it anyway: now
			// that the listeners are attached, give every node a model
			// whose Position calls the counter sees.
			n.cfg.Mobility = field.Linear{Start: geo.Pt(0, 0), Epoch: epoch}
			if got := medium.Listeners(radio.BandDownlink) + medium.Listeners(radio.BandUplink); got != 2 {
				t.Fatalf("node attached %d listeners, want downlink + relay", got)
			}
			before := clock.calls
			const bcasts = 10
			for i := 0; i < bcasts; i++ {
				// Far out of range: nothing is delivered, so the only clock
				// reads left are the medium's position checks.
				medium.Broadcast(radio.BandDownlink, geo.Pt(1e6, 1e6), 1, []byte{1})
				medium.Broadcast(radio.BandUplink, geo.Pt(1e6, 1e6), 1, []byte{1})
			}
			if got, want := clock.calls-before, 2*bcasts*tc.perBcast; got != want {
				t.Fatalf("%d Position calls over %d broadcasts per band, want %d", got, bcasts, want)
			}
		})
	}
}

// TestStaticPositionDoesNotReadTheClock: where a field.Static node is does
// not depend on when it is asked, so Position answers from the configured
// point — no clock read (on the real clock that is a time.Now per
// transmit), no lock. A model that moves still reads the clock once.
func TestStaticPositionDoesNotReadTheClock(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mobility field.Mobility
		perCall  int
	}{
		{"static", field.Static{P: geo.Pt(3, 4)}, 0},
		{"linear", field.Linear{Start: geo.Pt(3, 4), Epoch: epoch}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := sim.NewVirtualClock(epoch)
			clock := &nowCounter{Clock: base}
			cfg := basicConfig(1)
			cfg.Mobility = tc.mobility
			n, err := New(clock, radio.NewMedium(base, radio.Params{}), cfg)
			if err != nil {
				t.Fatal(err)
			}
			const calls = 10
			for i := 0; i < calls; i++ {
				if got := n.Position(); got != geo.Pt(3, 4) {
					t.Fatalf("Position = %v, want (3,4)", got)
				}
			}
			if got, want := clock.calls, calls*tc.perCall; got != want {
				t.Fatalf("%d Position calls read the clock %d times, want %d", calls, got, want)
			}
		})
	}
}

// TestDownlinkDeliveryRecyclesFrame: every sensor in range hears every
// control frame, addressed to it or not, and is done with its copy's bytes
// when Deliver returns (the listener Borrows) — at steady state a downlink
// broadcast allocates nothing, where a sensor that might keep its frames
// costs the medium a buffer per broadcast.
func TestDownlinkDeliveryRecyclesFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	clock := sim.NewVirtualClock(epoch)
	medium := radio.NewMedium(clock, radio.Params{})
	const sensors = 16
	nodes := make([]*Node, sensors)
	for i := range nodes {
		cfg := basicConfig(wire.SensorID(i + 1))
		cfg.Capabilities = CapReceive
		cfg.Streams[0].Enabled = false // no uplink traffic inside the measurement
		n, err := New(clock, medium, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		defer n.Stop()
		nodes[i] = n
	}
	// A repeated ping: applied and acked once, then only deduplicated.
	ping := wire.ControlMessage{UpdateID: 7, Target: wire.MustStreamID(1, 0), Op: wire.OpPing, Issued: epoch}
	frame, err := ping.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var rounds int64
	round := func() {
		rounds++
		medium.Broadcast(radio.BandDownlink, geo.Pt(0, 0), 100, frame)
		clock.Advance(0)
	}
	for i := 0; i < 32; i++ {
		round() // warm the medium's pools
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("%.2f allocations per downlink broadcast to %d sensors, want 0", allocs, sensors)
	}
	if got := medium.Metrics().Deliveries.Value(); got != rounds*sensors {
		t.Fatalf("Deliveries = %d, want %d: not every sensor heard every frame", got, rounds*sensors)
	}
	if got := nodes[0].Stats().ControlsReceived; got != rounds {
		t.Fatalf("addressed sensor decoded %d controls, want %d", got, rounds)
	}
	if got := nodes[1].Stats().ControlsReceived; got != 0 {
		t.Fatalf("unaddressed sensor counted %d controls as its own", got)
	}
}

// TestDownlinkAddressScreenMatchesFullDecode: a sensor reads a control
// frame's address before its checksum. Frame by frame that must count,
// acknowledge and charge exactly what decoding first and comparing the
// address afterwards does — in particular a frame whose corruption turned
// a foreign address into ours still dies on the checksum.
func TestDownlinkAddressScreenMatchesFullDecode(t *testing.T) {
	const self, other = wire.SensorID(6), wire.SensorID(6 ^ 1) // one bit apart
	encode := func(target wire.SensorID, id uint16) []byte {
		c := wire.ControlMessage{UpdateID: id, Target: wire.MustStreamID(target, 0), Op: wire.OpPing, Issued: epoch}
		frame, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	flip := func(frame []byte, bit int) []byte {
		out := slices.Clone(frame)
		out[bit/8] ^= 1 << (bit % 8)
		return out
	}
	type frameCase struct {
		name  string
		frame []byte
	}
	cases := []frameCase{
		{"own target intact", encode(self, 1)},
		{"foreign target intact", encode(other, 2)},
		{"foreign target, corrupt update id", flip(encode(other, 3), 1*8+2)},
		{"truncated", encode(self, 4)[:wire.ControlSize-1]},
		{"empty", nil},
	}
	// Own target with one flipped bit in each other field.
	for field, at := range map[string]int{"version": 0, "update id": 1, "op": 7, "param": 8, "value": 9, "issued": 13, "checksum": wire.ControlSize - 1} {
		cases = append(cases, frameCase{"own target, corrupt " + field, flip(encode(self, 5), at*8+3)})
	}
	// A flipped bit in the target itself that lands on our id.
	var landed []byte
	for bit := 3 * 8; bit < 7*8; bit++ {
		f := flip(encode(other, 6), bit)
		if target, _ := wire.ControlTarget(f); target.Sensor() == self {
			landed = f
		}
	}
	if landed == nil {
		t.Fatal("no single-bit flip of the foreign target lands on our id: the case is vacuous")
	}
	cases = append(cases, frameCase{"foreign target corrupted into ours", landed})
	slices.SortFunc(cases, func(a, b frameCase) int { return strings.Compare(a.name, b.name) })

	clock, medium, tap := testRig(t)
	cfg := basicConfig(self)
	cfg.Capabilities = CapReceive
	cfg.Streams[0].Enabled = false
	cfg.Energy = EnergyParams{RxPerByte: 0.25}
	n, err := New(clock, medium, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	var want Stats
	for _, c := range cases {
		// Today's order, as the reference: listening energy, full decode,
		// then the address.
		want.EnergyUsed += cfg.Energy.RxPerByte * float64(len(c.frame))
		if ctrl, err := wire.DecodeControl(c.frame); err == nil && ctrl.Target.Sensor() == self {
			want.ControlsReceived++
			want.ControlsApplied++ // a ping on a known stream always applies
		}
		medium.Broadcast(radio.BandDownlink, geo.Pt(0, 0), 1e9, c.frame)
		clock.Advance(0)
		got := n.Stats()
		if got.ControlsReceived != want.ControlsReceived || got.ControlsApplied != want.ControlsApplied ||
			got.ControlsIgnored != 0 || got.EnergyUsed != want.EnergyUsed {
			t.Fatalf("after %q: received/applied/ignored/energy = %d/%d/%d/%v, full decode first gives %d/%d/0/%v",
				c.name, got.ControlsReceived, got.ControlsApplied, got.ControlsIgnored, got.EnergyUsed,
				want.ControlsReceived, want.ControlsApplied, want.EnergyUsed)
		}
	}
	if want.ControlsReceived != 1 {
		t.Fatalf("reference accepted %d frames, want exactly the intact own-target one", want.ControlsReceived)
	}
	// Exactly the accepted frame is acknowledged.
	for i := 0; i < 2; i++ {
		if err := n.TriggerSample(0); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(0)
	var acks []uint16
	for _, m := range tap.all() {
		if m.Flags.Has(wire.FlagUpdateAck) {
			acks = append(acks, m.AckID)
		}
	}
	if !slices.Equal(acks, []uint16{1}) {
		t.Fatalf("acknowledged %v, want [1]", acks)
	}
}
