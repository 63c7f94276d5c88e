package garnet_test

import (
	"errors"
	"testing"
	"time"

	garnet "github.com/garnet-middleware/garnet"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

// newTestDeployment builds a deterministic 200×200 m deployment with four
// receivers, one transmitter and a receive-capable thermometer sensor.
func newTestDeployment(t *testing.T, opts ...garnet.Option) (*garnet.Deployment, *garnet.VirtualClock) {
	t.Helper()
	clock := garnet.NewVirtualClock(epoch)
	opts = append([]garnet.Option{
		garnet.WithClock(clock),
		garnet.WithSecret([]byte("test-secret")),
	}, opts...)
	g := garnet.New(opts...)
	for _, p := range garnet.GridPositions(garnet.RectWH(0, 0, 200, 200), 4) {
		g.AddReceiver(garnet.ReceiverConfig{Position: p, Radius: 180})
	}
	g.AddTransmitter(garnet.TransmitterConfig{Position: garnet.Pt(100, 100), Range: 300})
	t.Cleanup(g.Stop)
	return g, clock
}

func addThermometer(t *testing.T, g *garnet.Deployment, id garnet.SensorID) *garnet.SensorNode {
	t.Helper()
	n, err := g.AddSensor(garnet.SensorConfig{
		ID:           id,
		Capabilities: garnet.CapReceive,
		Mobility:     garnet.Static{P: garnet.Pt(100, 100)},
		TxRange:      300,
		Streams: []garnet.StreamConfig{{
			Index:   0,
			Sampler: garnet.FloatSampler(func(time.Time) float64 { return 21.5 }),
			Period:  time.Second,
			Enabled: true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 1)

	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	rec := garnet.NewRecorder("app", 128)
	if _, err := g.Subscribe(tok, garnet.BySensor(1), rec); err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(10 * time.Second)

	if rec.Count() != 10 {
		t.Fatalf("received %d, want 10", rec.Count())
	}
	last, _ := rec.Last()
	v, _, ok := garnet.DecodeReading(last.Msg.Payload)
	if !ok || v != 21.5 {
		t.Fatalf("payload = %v %v", v, ok)
	}

	infos, err := g.Discover(tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Stream != garnet.MustStreamID(1, 0) {
		t.Fatalf("discover = %+v", infos)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 1)
	g.Start()
	clock.Advance(2 * time.Second)

	subOnly, err := g.Register("sub-only", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	rec := garnet.NewRecorder("r", 8)

	if _, err := g.Actuate(subOnly, garnet.Demand{
		Target: garnet.MustStreamID(1, 0), Op: garnet.OpSetRate, Value: 1000,
	}); !errors.Is(err, garnet.ErrPermission) {
		t.Errorf("Actuate without PermActuate: %v", err)
	}
	if err := g.Hint(subOnly, 1, garnet.Pt(0, 0), 0.5, time.Minute); !errors.Is(err, garnet.ErrPermission) {
		t.Errorf("Hint without PermHint: %v", err)
	}
	if _, err := g.Locate(subOnly, 1); !errors.Is(err, garnet.ErrPermission) {
		t.Errorf("Locate without PermLocation: %v", err)
	}
	if err := g.ReportState(subOnly, "calm"); !errors.Is(err, garnet.ErrPermission) {
		t.Errorf("ReportState without PermTrusted: %v", err)
	}
	if _, err := g.Subscribe(subOnly, garnet.Exact(garnet.MustStreamID(1, garnet.LocationStreamIndex)), rec); !errors.Is(err, garnet.ErrPermission) {
		t.Errorf("location-stream subscribe without PermLocation: %v", err)
	}
	if _, err := g.Subscribe(garnet.Token("forged"), garnet.All(), rec); !errors.Is(err, garnet.ErrBadToken) {
		t.Errorf("forged token: %v", err)
	}
}

func TestLocationStreamsNarrowedWithoutPermission(t *testing.T) {
	g, clock := newTestDeployment(t, garnet.WithLocationPublishing(2*time.Second))
	addThermometer(t, g, 1)

	plain, err := g.Register("plain", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	privileged, err := g.Register("priv", garnet.PermSubscribe|garnet.PermLocation)
	if err != nil {
		t.Fatal(err)
	}
	plainRec := garnet.NewRecorder("plain", 256)
	privRec := garnet.NewRecorder("priv", 256)
	plainSub, err := g.Subscribe(plain, garnet.All(), plainRec)
	if err != nil {
		t.Fatal(err)
	}
	privSub, err := g.Subscribe(privileged, garnet.All(), privRec)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(10 * time.Second)

	for _, d := range plainRec.Deliveries() {
		if d.Msg.Stream.Index() == garnet.LocationStreamIndex {
			t.Fatal("unprivileged consumer received a location stream")
		}
	}
	sawLocation := false
	for _, d := range privRec.Deliveries() {
		if d.Msg.Stream.Index() == garnet.LocationStreamIndex {
			sawLocation = true
			if _, err := garnet.DecodeEstimate(d.Msg.Payload); err != nil {
				t.Fatalf("bad location payload: %v", err)
			}
		}
	}
	if !sawLocation {
		t.Fatal("privileged consumer received no location streams")
	}

	// With nobody subscribed the estimates orphan, and the backlog is as
	// protected as the live stream: Claim refuses a token without
	// PermLocation, the refusal leaves the backlog held, and the
	// entitled token then gets all of it.
	g.Unsubscribe(plainSub)
	g.Unsubscribe(privSub)
	clock.Advance(10 * time.Second)
	loc := garnet.MustStreamID(1, garnet.LocationStreamIndex)
	held := func() int {
		t.Helper()
		orphans, err := g.Orphans(privileged)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range orphans {
			if o.Stream == loc {
				return o.Buffered
			}
		}
		return 0
	}
	before := held()
	if before == 0 {
		t.Fatal("no location backlog orphaned")
	}
	if got, err := g.Claim(plain, loc); !errors.Is(err, garnet.ErrPermission) || len(got) != 0 {
		t.Fatalf("Claim without PermLocation = %d deliveries, %v; want ErrPermission", len(got), err)
	}
	if after := held(); after != before {
		t.Fatalf("refused claim changed the held backlog: %d → %d", before, after)
	}
	got, err := g.Claim(privileged, loc)
	if err != nil || len(got) != before {
		t.Fatalf("Claim with PermLocation = %d deliveries, %v; want %d", len(got), err, before)
	}
	for _, d := range got {
		if _, err := garnet.DecodeEstimate(d.Msg.Payload); err != nil {
			t.Fatalf("bad claimed location payload: %v", err)
		}
	}
}

// A location stream's id is as protected as its data: Discover and
// Orphans list it only to a token holding PermLocation, and still list the
// sensor's ordinary stream to everyone.
func TestDiscoverAndOrphansHideLocationStreamsWithoutPermission(t *testing.T) {
	g, clock := newTestDeployment(t, garnet.WithLocationPublishing(time.Second))
	addThermometer(t, g, 1)
	plain, err := g.Register("plain", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	privileged, err := g.Register("priv", garnet.PermSubscribe|garnet.PermLocation)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(5 * time.Second)

	data := garnet.MustStreamID(1, 0)
	loc := garnet.MustStreamID(1, garnet.LocationStreamIndex)
	listed := func(tok garnet.Token) (discovered, orphaned map[garnet.StreamID]bool) {
		t.Helper()
		discovered, orphaned = map[garnet.StreamID]bool{}, map[garnet.StreamID]bool{}
		infos, err := g.Discover(tok)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range infos {
			discovered[i.Stream] = true
		}
		orphans, err := g.Orphans(tok)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range orphans {
			orphaned[o.Stream] = true
		}
		return discovered, orphaned
	}
	if d, o := listed(privileged); !d[loc] || !o[loc] || !d[data] || !o[data] {
		t.Fatalf("PermLocation token: discovered %v, orphaned %v; want both streams in each", d, o)
	}
	if d, o := listed(plain); d[loc] || o[loc] || !d[data] || !o[data] {
		t.Fatalf("PermSubscribe-only token: discovered %v, orphaned %v; want %v alone in each", d, o, data)
	}
}

func TestActuateThroughFacade(t *testing.T) {
	g, clock := newTestDeployment(t)
	n := addThermometer(t, g, 2)
	g.Start()
	clock.Advance(time.Second)

	tok, err := g.Register("ctrl", garnet.PermActuate)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := g.Actuate(tok, garnet.Demand{
		Target: garnet.MustStreamID(2, 0), Op: garnet.OpSetRate, Value: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != garnet.VerdictApproved {
		t.Fatalf("decision = %+v", dec)
	}
	clock.Advance(5 * time.Second)
	if p, _ := n.StreamPeriod(0); p != 500*time.Millisecond {
		t.Fatalf("period = %v", p)
	}

	// Withdraw relaxes nothing (sole demand) but must succeed.
	if _, ok, err := g.WithdrawDemand(tok, garnet.MustStreamID(2, 0), garnet.ClassRate); err != nil || !ok {
		t.Fatalf("withdraw = %v %v", ok, err)
	}
}

func TestPingFacade(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 3)
	g.Start()
	clock.Advance(time.Second)

	tok, err := g.Register("pinger", garnet.PermActuate)
	if err != nil {
		t.Fatal(err)
	}
	acked := false
	if err := g.Ping(tok, garnet.MustStreamID(3, 0), func(ok bool) { acked = ok }); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	if !acked {
		t.Fatal("ping not acknowledged")
	}
}

func TestHintAndLocateFacade(t *testing.T) {
	g, clock := newTestDeployment(t)
	g.Start()
	clock.Advance(time.Second)

	tok, err := g.Register("scout", garnet.PermHint|garnet.PermLocation)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Hint(tok, 9, garnet.Pt(42, 24), 0.9, time.Minute); err != nil {
		t.Fatal(err)
	}
	est, err := g.Locate(tok, 9)
	if err != nil {
		t.Fatal(err)
	}
	if est.Pos.Dist(garnet.Pt(42, 24)) > 1e-9 {
		t.Fatalf("estimate = %+v", est)
	}
	if _, err := g.Locate(tok, 999); !errors.Is(err, garnet.ErrUnknownSensor) {
		t.Fatalf("unknown sensor: %v", err)
	}
}

func TestOrphanClaimFacade(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 4)
	g.Start()
	clock.Advance(5 * time.Second) // nobody subscribed: orphaned

	tok, err := g.Register("late", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	orphans, err := g.Orphans(tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 || orphans[0].Seen != 5 {
		t.Fatalf("orphans = %+v", orphans)
	}
	backlog, err := g.Claim(tok, garnet.MustStreamID(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 5 {
		t.Fatalf("backlog = %d", len(backlog))
	}
	// Subscribe going forward: no data is lost across the handover.
	rec := garnet.NewRecorder("late", 64)
	if _, err := g.Subscribe(tok, garnet.Exact(garnet.MustStreamID(4, 0)), rec); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Second)
	if rec.Count() != 3 {
		t.Fatalf("post-claim deliveries = %d", rec.Count())
	}
}

func TestTrustedStateReportingFacade(t *testing.T) {
	g, clock := newTestDeployment(t, garnet.WithPredictiveCoordination(time.Second, 0.5))
	n := addThermometer(t, g, 5)
	g.Start()
	clock.Advance(time.Second)

	tok, err := g.Register("flood-watch", garnet.PermTrusted|garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	target := garnet.MustStreamID(5, 0)
	model := map[string][]garnet.Demand{
		"calm":  {{Target: target, Op: garnet.OpSetRate, Value: 200}},
		"flood": {{Target: target, Op: garnet.OpSetRate, Value: 4000}},
	}
	if err := g.RegisterStateModel(tok, model); err != nil {
		t.Fatal(err)
	}
	if err := g.ReportState(tok, "flood"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	if p, _ := n.StreamPeriod(0); p != 250*time.Millisecond {
		t.Fatalf("flood period = %v", p)
	}
	// Drive cycles so the predictor can answer.
	for i := 0; i < 3; i++ {
		if err := g.ReportState(tok, "calm"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(10 * time.Second)
		if err := g.ReportState(tok, "flood"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(10 * time.Second)
	}
	if err := g.ReportState(tok, "calm"); err != nil {
		t.Fatal(err)
	}
	p, ok, err := g.PredictNext(tok)
	if err != nil || !ok {
		t.Fatalf("PredictNext = %v %v", ok, err)
	}
	if p.Next != "flood" {
		t.Fatalf("prediction = %+v", p)
	}
}

func TestDerivedStreamFacade(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 6)

	tok, err := g.Register("pipeline", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	// Level 1: mean of every 3 readings, republished as a derived stream.
	derived, err := g.NewDerivedStream(tok, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg := garnet.NewWindowAggregator("mean3", derived, 3, garnet.AggregateMean)
	if _, err := g.Subscribe(tok, garnet.Exact(garnet.MustStreamID(6, 0)), agg); err != nil {
		t.Fatal(err)
	}
	// Level 2: recorder on the derived stream.
	rec := garnet.NewRecorder("l2", 32)
	if _, err := g.Subscribe(tok, garnet.Exact(derived.Stream()), rec); err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(9 * time.Second)

	if rec.Count() != 3 {
		t.Fatalf("derived deliveries = %d, want 3", rec.Count())
	}
	last, _ := rec.Last()
	v, _, ok := garnet.DecodeReading(last.Msg.Payload)
	if !ok || v != 21.5 {
		t.Fatalf("derived mean = %v", v)
	}
	if derived.Stream().Sensor() < garnet.VirtualSensorBase {
		t.Fatalf("derived stream %v not in virtual range", derived.Stream())
	}
}

func TestEndToEndEncryptedStream(t *testing.T) {
	g, clock := newTestDeployment(t)
	key := []byte("0123456789abcdef")
	stream := garnet.MustStreamID(7, 0)
	_, err := g.AddSensor(garnet.SensorConfig{
		ID:       7,
		Mobility: garnet.Static{P: garnet.Pt(100, 100)},
		TxRange:  300,
		Streams: []garnet.StreamConfig{{
			Index: 0,
			Sampler: garnet.EncryptingSampler(key, stream,
				garnet.FloatSampler(func(time.Time) float64 { return 4.2 })),
			Period:    time.Second,
			Enabled:   true,
			Encrypted: true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := g.Register("secure-app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	rec := garnet.NewRecorder("secure", 32)
	if _, err := g.Subscribe(tok, garnet.Exact(stream), rec); err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(3 * time.Second)

	ds := rec.Deliveries()
	if len(ds) != 3 {
		t.Fatalf("deliveries = %d", len(ds))
	}
	ks := garnet.NewKeyStore()
	if err := ks.SetKey(stream, key); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if !d.Msg.Flags.Has(garnet.FlagEncrypted) {
			t.Fatal("encrypted flag missing")
		}
		// Middleware delivered opaque bytes: naive decoding yields noise,
		// not the plaintext reading.
		if raw, _, ok := garnet.DecodeReading(d.Msg.Payload); ok && raw == 4.2 {
			t.Fatal("payload readable without key")
		}
		plain, err := ks.OpenMessage(d.Msg)
		if err != nil {
			t.Fatal(err)
		}
		v, _, ok := garnet.DecodeReading(plain)
		if !ok || v != 4.2 {
			t.Fatalf("decrypted reading = %v %v", v, ok)
		}
	}
}

func TestConstraintFacade(t *testing.T) {
	g, clock := newTestDeployment(t)
	n := addThermometer(t, g, 8)
	cons, err := garnet.ParseConstraints("rate<=2/s")
	if err != nil {
		t.Fatal(err)
	}
	g.SetConstraints(8, cons)
	g.Start()
	clock.Advance(time.Second)

	tok, err := g.Register("greedy", garnet.PermActuate)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := g.Actuate(tok, garnet.Demand{
		Target: garnet.MustStreamID(8, 0), Op: garnet.OpSetRate, Value: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != garnet.VerdictModified || dec.Effective != 2000 {
		t.Fatalf("decision = %+v", dec)
	}
	clock.Advance(5 * time.Second)
	if p, _ := n.StreamPeriod(0); p != 500*time.Millisecond {
		t.Fatalf("period = %v, want clamped 500ms", p)
	}
}

func TestSubscribeWithBacklog(t *testing.T) {
	g, clock := newTestDeployment(t)
	addThermometer(t, g, 9)
	g.Start()
	clock.Advance(7 * time.Second) // unclaimed: orphanage buffers 7

	tok, err := g.Register("late", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	rec := garnet.NewRecorder("late", 64)
	_, replayed, err := g.SubscribeWithBacklog(tok, garnet.MustStreamID(9, 0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 7 {
		t.Fatalf("replayed = %d, want 7", replayed)
	}
	clock.Advance(3 * time.Second)
	// 7 backlog + 3 live, in order, no duplicates.
	ds := rec.Deliveries()
	if len(ds) != 10 {
		t.Fatalf("total deliveries = %d, want 10", len(ds))
	}
	for i, d := range ds {
		if d.Msg.Seq != garnet.Seq(i) {
			t.Fatalf("delivery %d has seq %d (order broken across handover)", i, d.Msg.Seq)
		}
	}
	// Location permission still enforced through this path.
	if _, _, err := g.SubscribeWithBacklog(tok, garnet.MustStreamID(9, garnet.LocationStreamIndex), rec); !errors.Is(err, garnet.ErrPermission) {
		t.Fatalf("location stream without permission: %v", err)
	}
}
