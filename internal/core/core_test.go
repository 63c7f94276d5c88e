package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/replicator"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

// buildRig assembles a small but complete Figure 1 deployment on a virtual
// clock: 4 receivers with overlapping zones, 2 transmitters, and the given
// radio parameters.
func buildRig(t *testing.T, params radio.Params) (*Deployment, *sim.VirtualClock) {
	t.Helper()
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{
		Clock:      clock,
		Radio:      params,
		Secret:     []byte("test-secret"),
		Replicator: replicator.Options{Targeted: true}, // as garnet.New
	})
	for _, p := range field.GridPositions(geo.RectWH(0, 0, 200, 200), 4) {
		d.AddReceiver(receiver.Config{Position: p, Radius: 180})
	}
	d.AddTransmitter(transmit.Config{Name: "tx-west", Position: geo.Pt(50, 100), Range: 300})
	d.AddTransmitter(transmit.Config{Name: "tx-east", Position: geo.Pt(150, 100), Range: 300})
	return d, clock
}

func addSensor(t *testing.T, d *Deployment, id wire.SensorID, caps sensor.Capability, period time.Duration) *sensor.Node {
	t.Helper()
	n, err := d.AddSensor(sensor.Config{
		ID:           id,
		Capabilities: caps,
		Mobility:     field.Static{P: geo.Pt(100, 100)},
		TxRange:      300,
		Streams: []sensor.StreamConfig{{
			Index:   0,
			Sampler: sensor.FloatSampler(func(time.Time) float64 { return 20 }),
			Period:  period,
			Enabled: true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFigure1EndToEndDataPath drives the complete uplink: sensor →
// overlapping receivers (duplication) → filter (dedup) → dispatcher →
// subscribed consumer, with the unclaimed remainder in the orphanage.
func TestFigure1EndToEndDataPath(t *testing.T) {
	d, clock := buildRig(t, radio.Params{LossProb: 0.1, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond, Seed: 42})
	defer stopAndAudit(t, d)

	addSensor(t, d, 1, 0, time.Second)
	addSensor(t, d, 2, 0, time.Second) // nobody subscribes: orphaned

	rec := consumer.NewRecorder("app", 4096)
	if _, err := d.Dispatcher().Subscribe(rec, dispatch.Exact(wire.MustStreamID(1, 0))); err != nil {
		t.Fatal(err)
	}
	d.Start()
	clock.Advance(30 * time.Second)

	// With 4 overlapping receivers and 10% loss, virtually every message
	// arrives at least once: expect ≥ 28 of 30 unique deliveries.
	if got := rec.Count(); got < 28 || got > 30 {
		t.Fatalf("consumer received %d unique messages, want ≈30", got)
	}
	fs := d.Stats().Filter
	if fs.Duplicates == 0 {
		t.Fatal("overlapping receivers produced no duplicates — rig is wrong")
	}
	// Sensor 2's stream must be held by the orphanage.
	os := d.Orphanage().Stats()
	if os.StreamsHeld != 1 {
		t.Fatalf("orphanage holds %d streams, want 1", os.StreamsHeld)
	}
	infos := d.Orphanage().Streams()
	if infos[0].Stream != wire.MustStreamID(2, 0) {
		t.Fatalf("orphaned stream = %v", infos[0].Stream)
	}
}

// TestFigure1ActuationRoundTrip drives the complete control path: demand →
// Resource Manager → Actuation Service → Replicator → Transmitter →
// sensor applies and acks → ack detected on the data path.
func TestFigure1ActuationRoundTrip(t *testing.T) {
	d, clock := buildRig(t, radio.Params{})
	defer stopAndAudit(t, d)
	n := addSensor(t, d, 5, sensor.CapReceive, time.Second)
	d.Start()
	clock.Advance(2 * time.Second) // let some data flow (location track forms)

	target := wire.MustStreamID(5, 0)
	dec, err := d.SubmitDemand(resource.Demand{
		Consumer: "app", Target: target, Op: wire.OpSetRate, Value: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != resource.VerdictApproved || !dec.Changed {
		t.Fatalf("decision = %+v", dec)
	}
	clock.Advance(5 * time.Second)

	if p, _ := n.StreamPeriod(0); p != 250*time.Millisecond {
		t.Fatalf("sensor period = %v, want 250ms", p)
	}
	as := d.ActuationService().Stats()
	if as.Acked != 1 || as.Outstanding != 0 {
		t.Fatalf("actuation stats = %+v", as)
	}
	if d.ActuationService().Latency().Count() != 1 {
		t.Fatal("ack latency not recorded")
	}
	// The replicator targeted rather than flooded: sensor 5 was locatable.
	rs := d.Replicator().Stats()
	if rs.Requests == 0 || rs.Flooded != 0 || rs.Targeted != rs.Requests {
		t.Fatalf("replicator stats = %+v, want every request targeted", rs)
	}
}

func TestMediationAcrossMutuallyUnawareConsumers(t *testing.T) {
	d, clock := buildRig(t, radio.Params{})
	defer d.Stop()
	n := addSensor(t, d, 5, sensor.CapReceive, time.Second)
	d.Start()
	clock.Advance(time.Second)

	target := wire.MustStreamID(5, 0)
	if _, err := d.SubmitDemand(resource.Demand{Consumer: "a", Target: target, Op: wire.OpSetRate, Value: 2000}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SubmitDemand(resource.Demand{Consumer: "b", Target: target, Op: wire.OpSetRate, Value: 500}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	// Most-demanding policy: 2 Hz wins; b's lower demand modified.
	if p, _ := n.StreamPeriod(0); p != 500*time.Millisecond {
		t.Fatalf("period = %v, want 500ms", p)
	}
	// b withdraws: no change (a still demands 2 Hz). a withdraws: rate
	// relaxes to b's... b already withdrew, so entry empties: no actuation.
	d.WithdrawDemand("b", target, resource.ClassRate)
	clock.Advance(3 * time.Second)
	if p, _ := n.StreamPeriod(0); p != 500*time.Millisecond {
		t.Fatalf("period after b withdraw = %v, want unchanged", p)
	}
}

func TestCoordinatorDrivenActuation(t *testing.T) {
	d, clock := buildRig(t, radio.Params{})
	defer d.Stop()
	n := addSensor(t, d, 7, sensor.CapReceive, time.Second)
	d.Start()
	clock.Advance(time.Second)

	target := wire.MustStreamID(7, 0)
	model := map[string][]resource.Demand{
		"calm":  {{Target: target, Op: wire.OpSetRate, Value: 500}},
		"flood": {{Target: target, Op: wire.OpSetRate, Value: 5000}},
	}
	if err := d.Coordinator().Register("water-app", model); err != nil {
		t.Fatal(err)
	}
	if err := d.Coordinator().ReportState("water-app", "flood"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	if p, _ := n.StreamPeriod(0); p != 200*time.Millisecond {
		t.Fatalf("flood-state period = %v, want 200ms", p)
	}
	if err := d.Coordinator().ReportState("water-app", "calm"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second)
	if p, _ := n.StreamPeriod(0); p != 2*time.Second {
		t.Fatalf("calm-state period = %v, want 2s", p)
	}
}

func TestLocationPipelineAndPublishing(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{
		Clock:                 clock,
		Secret:                []byte("s"),
		LocationPublishPeriod: 5 * time.Second,
	})
	defer d.Stop()
	for _, p := range field.GridPositions(geo.RectWH(0, 0, 200, 200), 4) {
		d.AddReceiver(receiver.Config{Position: p, Radius: 180})
	}
	addSensor(t, d, 3, 0, time.Second)

	locRec := consumer.NewRecorder("loc-watcher", 64)
	if _, err := d.Dispatcher().Subscribe(locRec, dispatch.Exact(wire.MustStreamID(3, wire.LocationStreamIndex))); err != nil {
		t.Fatal(err)
	}
	d.Start()
	clock.Advance(11 * time.Second)

	est, err := d.Location().Locate(3)
	if err != nil {
		t.Fatal(err)
	}
	// True position (100,100); 4 receivers triangulate exactly.
	if est.Pos.Dist(geo.Pt(100, 100)) > 30 {
		t.Fatalf("inferred %v, truth (100,100)", est.Pos)
	}
	if locRec.Count() < 2 {
		t.Fatalf("location stream deliveries = %d, want ≥2", locRec.Count())
	}
}

func TestDerivedStreamThroughDispatcher(t *testing.T) {
	d, clock := buildRig(t, radio.Params{})
	defer d.Stop()
	d.Start()

	vid := d.AllocateVirtualSensor()
	if vid < consumer.VirtualSensorBase {
		t.Fatalf("allocated id %d not virtual", vid)
	}
	ds := consumer.NewDerivedStream(d, wire.MustStreamID(vid, 0), 0)

	rec := consumer.NewRecorder("l2", 16)
	if _, err := d.Dispatcher().Subscribe(rec, dispatch.Exact(ds.Stream())); err != nil {
		t.Fatal(err)
	}
	ds.Emit([]byte("derived!"), clock.Now())
	if rec.Count() != 1 {
		t.Fatalf("derived deliveries = %d", rec.Count())
	}
	// Distinct allocations never collide.
	if d.AllocateVirtualSensor() == vid {
		t.Fatal("virtual sensor id reused")
	}
}

func TestActuationRetriesUnderLossyDownlink(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{
		Clock:     clock,
		Radio:     radio.Params{LossProb: 0.6, Seed: 9},
		Secret:    []byte("s"),
		Actuation: actuation.Options{RetryInterval: time.Second, MaxAttempts: 10},
	})
	defer d.Stop()
	for _, p := range field.GridPositions(geo.RectWH(0, 0, 200, 200), 4) {
		d.AddReceiver(receiver.Config{Position: p, Radius: 250})
	}
	d.AddTransmitter(transmit.Config{Position: geo.Pt(100, 100), Range: 300})
	n := addSensor(t, d, 4, sensor.CapReceive, time.Second)
	d.Start()
	clock.Advance(time.Second)

	if _, err := d.SubmitDemand(resource.Demand{Consumer: "app", Target: wire.MustStreamID(4, 0), Op: wire.OpSetRate, Value: 2000}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Second)
	if p, _ := n.StreamPeriod(0); p != 500*time.Millisecond {
		t.Fatalf("period = %v despite retries", p)
	}
	if d.ActuationService().Stats().Acked != 1 {
		t.Fatalf("actuation not acked: %+v", d.ActuationService().Stats())
	}
}

func TestStopIsCleanAndIdempotent(t *testing.T) {
	d, clock := buildRig(t, radio.Params{})
	addSensor(t, d, 1, 0, time.Second)
	d.Start()
	d.Start() // idempotent
	clock.Advance(3 * time.Second)
	d.Stop()
	d.Stop() // idempotent

	before := d.Stats().Filter.Received
	clock.Advance(10 * time.Second)
	if got := d.Stats().Filter.Received; got != before {
		t.Fatalf("traffic after Stop: %d → %d", before, got)
	}
}

func TestStatsSnapshotAndString(t *testing.T) {
	d, clock := buildRig(t, radio.Params{})
	defer d.Stop()
	addSensor(t, d, 1, 0, time.Second)
	d.Start()
	clock.Advance(5 * time.Second)
	s := d.Stats()
	if s.Sensors != 1 || s.Receivers != 4 || s.Txs != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Filter.Received == 0 || s.Dispatch.Dispatched == 0 {
		t.Fatalf("no traffic in snapshot: %+v", s)
	}
	if d.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestInjectReception(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{Clock: clock, Secret: []byte("s")})
	defer d.Stop()
	rec := consumer.NewRecorder("app", 16)
	if _, err := d.Dispatcher().Subscribe(rec, dispatch.All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.InjectReception(receiver.Reception{
		Msg: wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 0},
		At:  clock.Now(), Receiver: "synthetic", RSSI: 1,
	})
	if rec.Count() != 1 {
		t.Fatal("injected reception not delivered")
	}
}

// TestInjectReceptionAllocs pins the whole per-message path — filter →
// store tee → dispatch → async port — at the allocations its stages pin
// separately: a warm duplicate copy costs none, an accepted borrowed
// sample exactly its payload detach. The window includes the drainer.
func TestInjectReceptionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	d := New(Config{
		Secret:   []byte("s"),
		Dispatch: dispatch.Options{Mode: dispatch.ModeAsync, QueueCapacity: 1024},
	})
	defer d.Stop()
	sink := &dispatch.BatchConsumerFunc{ConsumerName: "all", Fn: func([]filtering.Delivery) {}}
	if _, err := d.Dispatcher().Subscribe(sink, dispatch.All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	frame := make([]byte, 16) // stands in for a borrowed radio buffer
	rc := receiver.Reception{
		Msg:      wire.Message{Stream: wire.MustStreamID(1, 0), Payload: frame},
		At:       epoch,
		Receiver: "rx", RSSI: 1, Borrowed: true,
	}
	accepted := func() {
		rc.Msg.Seq++
		d.InjectReception(rc)
	}
	for i := 0; i < 2*store.DefaultMaxMessages; i++ { // grow the store ring to its bound
		accepted()
	}
	if allocs := testing.AllocsPerRun(1000, accepted); allocs > 1 {
		t.Fatalf("accepted borrowed sample: %.2f allocs/op, want <= 1 (the payload detach)", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { d.InjectReception(rc) }); allocs != 0 {
		t.Fatalf("duplicate copy: %.2f allocs/op, want 0", allocs)
	}
	if st := d.Stats(); st.Filter.Duplicates < 1000 || st.Dispatch.Delivered != st.Filter.Delivered || st.Dispatch.Orphaned != 0 {
		t.Fatalf("pin did not exercise the path: %+v", st)
	}
}

// TestIdleSensorFootprint holds the resident cost of a sensor that sent one
// message ever — the dominant population of a large field: one record, its
// duplicate window beside its store ring header, in place in the store's
// table with one index entry, and the store's slot; the dispatcher keeps
// no per-stream record. The census reads about 192 B: the 200 B ceiling
// absorbs allocator noise, and a structural regression such as a second
// per-stream record, or a store tail allocated for every stream, does not
// fit under it.
func TestIdleSensorFootprint(t *testing.T) {
	const sensors, ceiling = 100_000, 200
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{Clock: clock, Secret: []byte("s")})
	defer d.Stop()
	// A standing wildcard sink keeps every stream claimed; unclaimed, the
	// orphanage's stream bound (DefaultMaxStreams) would forget most of
	// the field.
	sink := &dispatch.ConsumerFunc{ConsumerName: "all", Fn: func(filtering.Delivery) {}}
	if _, err := d.Dispatcher().Subscribe(sink, dispatch.All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	settledHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := settledHeap()
	for i := 1; i <= sensors; i++ {
		d.InjectReception(receiver.Reception{
			Msg: wire.Message{Stream: wire.MustStreamID(wire.SensorID(i), 0), Seq: 1},
			At:  clock.Now(), Receiver: "rx", RSSI: 0.5,
		})
	}
	perSensor := float64(settledHeap()-before) / sensors
	if st := d.Stats(); st.Filter.Delivered != sensors || st.Dispatch.Orphaned != 0 {
		t.Fatalf("census did not attach %d claimed streams: %+v", sensors, st)
	}
	t.Logf("%.0f B/idle-sensor", perSensor)
	if perSensor > ceiling {
		t.Errorf("%.0f B/idle-sensor, ceiling %d", perSensor, ceiling)
	}
}

// reentrant is a synchronous consumer that injects two follow-on
// receptions from inside Consume when it sees the first message.
type reentrant struct {
	d    *Deployment
	next []receiver.Reception
	got  []heard
}

type heard struct {
	stream wire.StreamID
	seq    wire.Seq
}

func (c *reentrant) Name() string { return "reentrant" }

func (c *reentrant) Consume(del filtering.Delivery) {
	c.got = append(c.got, heard{del.Msg.Stream, del.Msg.Seq})
	next := c.next
	c.next = nil
	for _, rc := range next {
		c.d.InjectReception(rc)
	}
}

// TestInjectReceptionFromConsume: no lock is held across a consumer
// call anywhere on the per-message path, so a synchronous consumer may
// feed receptions back into the pipeline — on its own stream and on
// another — and sees them in the order it injected them.
func TestInjectReceptionFromConsume(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{Clock: clock, Secret: []byte("s")})
	a, b := wire.MustStreamID(1, 0), wire.MustStreamID(2, 0)
	rc := func(id wire.StreamID, seq wire.Seq) receiver.Reception {
		return receiver.Reception{Msg: wire.Message{Stream: id, Seq: seq}, At: epoch, Receiver: "rx", RSSI: 1}
	}
	c := &reentrant{d: d, next: []receiver.Reception{rc(a, 1), rc(b, 0)}}
	if _, err := d.Dispatcher().Subscribe(c, dispatch.All()); err != nil {
		t.Fatal(err)
	}
	d.Start()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.InjectReception(rc(a, 0))
		d.Stop()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("InjectReception from inside Consume deadlocked")
	}
	if want := []heard{{a, 0}, {a, 1}, {b, 0}}; !slices.Equal(c.got, want) {
		t.Fatalf("consumed %v, want %v", c.got, want)
	}
}

// TestJoinerTakesLateGapFillOnce: a late joiner's replay lacks sequence
// 2, lost on the radio until its copy arrives after the join. The joiner
// gets that gap fill exactly once, live, behind the replay; a stale copy
// of replayed history arriving after the join does not reach it. Both
// hold by construction — the join and every accepted reception are
// ordered by the stream's store lock, and the screen drops the copy — in
// either delivery mode.
func TestJoinerTakesLateGapFillOnce(t *testing.T) {
	for _, mode := range []dispatch.Mode{dispatch.ModeSync, dispatch.ModeAsync} {
		clock := sim.NewVirtualClock(epoch)
		d := New(Config{Clock: clock, Secret: []byte("s"), Dispatch: dispatch.Options{Mode: mode}})
		d.Start()
		stream := wire.MustStreamID(6, 0)
		inject := func(seq wire.Seq) {
			d.InjectReception(receiver.Reception{
				Msg: wire.Message{Stream: stream, Seq: seq}, At: clock.Now(), Receiver: "rx", RSSI: 1,
			})
			clock.Advance(time.Second)
		}
		for _, seq := range []wire.Seq{0, 1, 3, 4} {
			inject(seq)
		}
		joiner := &reentrant{d: d}
		if _, n, err := d.SubscribeWithReplay(joiner, stream, 0); err != nil || n != 4 {
			t.Fatalf("mode %v: replayed %d, err %v; want 4", mode, n, err)
		}
		inject(2) // the gap fill
		inject(3) // a stale copy of replayed history
		inject(5)
		d.Stop()
		want := []heard{{stream, 0}, {stream, 1}, {stream, 3}, {stream, 4}, {stream, 2}, {stream, 5}}
		if !slices.Equal(joiner.got, want) {
			t.Fatalf("mode %v: joiner got %v, want %v", mode, joiner.got, want)
		}
	}
}

func TestNewRequiresSecret(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic without secret")
		}
	}()
	New(Config{Clock: sim.NewVirtualClock(epoch)})
}

// TestDispatchShardingThreadsThroughConfig: Config.Dispatch's async
// options reach the assembled dispatcher, the store and the dispatcher
// both hold wire.Shards shards, and deliveries flow end-to-end through the
// sharded, batch-draining engine.
func TestDispatchShardingThreadsThroughConfig(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	d := New(Config{
		Clock:  clock,
		Secret: []byte("test-secret"),
		Dispatch: dispatch.Options{
			Mode:          dispatch.ModeAsync,
			QueueCapacity: 256,
		},
	})
	recs := make([]*consumer.Recorder, 3)
	for i := range recs {
		recs[i] = consumer.NewRecorder(fmt.Sprintf("app-%d", i), 64)
		// Distinct sensors: streams home to (very likely) different shards.
		id := wire.MustStreamID(wire.SensorID(i+1), 0)
		if _, err := d.Dispatcher().Subscribe(recs[i], dispatch.Exact(id)); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()
	for i := range recs {
		for seq := 0; seq < 20; seq++ {
			d.PublishDerived(wire.Message{
				Stream: wire.MustStreamID(wire.SensorID(i+1), 0), Seq: wire.Seq(seq),
			}, clock.Now())
		}
	}
	d.Stop() // drains async queues
	for i, r := range recs {
		if r.Count() != 20 {
			t.Fatalf("consumer %d got %d of 20", i, r.Count())
		}
	}
	st := d.Stats()
	if st.Dispatch.Shards != wire.Shards || st.Store.Shards != wire.Shards || st.Dispatch.Delivered != 60 {
		t.Fatalf("dispatch Shards=%d store Shards=%d Delivered=%d, want %d/%d/60",
			st.Dispatch.Shards, st.Store.Shards, st.Dispatch.Delivered, wire.Shards, wire.Shards)
	}
}
