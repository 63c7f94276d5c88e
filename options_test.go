package garnet_test

import (
	"sync"
	"testing"
	"time"

	garnet "github.com/garnet-middleware/garnet"
)

// Options coverage: each With* option must observably change deployment
// behaviour through the public API.

func TestWithFloodingReplicatorUsesEveryTransmitter(t *testing.T) {
	run := func(opt garnet.Option) int64 {
		clock := garnet.NewVirtualClock(epoch)
		opts := []garnet.Option{garnet.WithClock(clock), garnet.WithSecret([]byte("s"))}
		if opt != nil {
			opts = append(opts, opt)
		}
		g := garnet.New(opts...)
		defer g.Stop()
		// Transmitters spread along a strip; sensor localised at one end.
		for i := 0; i < 4; i++ {
			pos := garnet.Pt(float64(i)*400, 0)
			g.AddReceiver(garnet.ReceiverConfig{Position: pos, Radius: 250})
			g.AddTransmitter(garnet.TransmitterConfig{Position: pos, Range: 250})
		}
		if _, err := g.AddSensor(garnet.SensorConfig{
			ID: 1, Capabilities: garnet.CapReceive,
			Mobility: garnet.Static{P: garnet.Pt(100, 0)}, TxRange: 250,
			Streams: []garnet.StreamConfig{{
				Index: 0, Sampler: garnet.SizedSampler(4), Period: time.Second, Enabled: true,
			}},
		}); err != nil {
			t.Fatal(err)
		}
		tok, err := g.Register("op", garnet.PermActuate)
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		clock.Advance(3 * time.Second)
		if err := g.Ping(tok, garnet.MustStreamID(1, 0), nil); err != nil {
			t.Fatal(err)
		}
		clock.Advance(3 * time.Second)
		return g.Stats().Replicator.Broadcasts
	}
	flooded := run(garnet.WithFloodingReplicator())
	targeted := run(garnet.WithTargetedReplicator(1.5))
	if flooded != 4 {
		t.Fatalf("flooding used %d transmitters, want 4", flooded)
	}
	if targeted >= flooded {
		t.Fatalf("targeted (%d) not cheaper than flooding (%d)", targeted, flooded)
	}
}

// TestWithFieldGridDeliveryInvariant: the medium's grid cell size is a
// performance knob, never a semantics knob — the same deployment must
// deliver the same message count whatever cell size is configured.
func TestWithFieldGridDeliveryInvariant(t *testing.T) {
	run := func(opts ...garnet.Option) int64 {
		clock := garnet.NewVirtualClock(epoch)
		all := append([]garnet.Option{garnet.WithClock(clock), garnet.WithSecret([]byte("s"))}, opts...)
		g := garnet.New(all...)
		defer g.Stop()
		for i := 0; i < 6; i++ {
			g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(float64(i)*80, 0), Radius: 120})
		}
		if _, err := g.AddSensor(garnet.SensorConfig{
			ID: 1, Mobility: garnet.Linear{Start: garnet.Pt(0, 0), Velocity: garnet.Pt(20, 0), Epoch: epoch},
			TxRange: 150,
			Streams: []garnet.StreamConfig{{
				Index: 0, Sampler: garnet.SizedSampler(8), Period: time.Second, Enabled: true,
			}},
		}); err != nil {
			t.Fatal(err)
		}
		g.Start()
		clock.Advance(20 * time.Second)
		return g.Stats().Filter.Delivered
	}
	def := run()
	coarse := run(garnet.WithFieldGrid(500))
	fine := run(garnet.WithFieldGrid(10))
	if def == 0 {
		t.Fatal("deployment delivered nothing; invariant test is vacuous")
	}
	if coarse != def || fine != def {
		t.Fatalf("accepted counts diverge across grid cells: default=%d coarse=%d fine=%d", def, coarse, fine)
	}
}

func TestWithAsyncDispatchDeliversViaWorkers(t *testing.T) {
	clock := garnet.NewVirtualClock(epoch)
	g := garnet.New(
		garnet.WithClock(clock),
		garnet.WithSecret([]byte("s")),
		garnet.WithAsyncDispatch(64),
	)
	g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(0, 0), Radius: 100})
	if _, err := g.AddSensor(garnet.SensorConfig{
		ID: 1, Mobility: garnet.Static{P: garnet.Pt(1, 0)}, TxRange: 100,
		Streams: []garnet.StreamConfig{{
			Index: 0, Sampler: garnet.SizedSampler(4), Period: time.Second, Enabled: true,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := 0
	if _, err := g.Subscribe(tok, garnet.All(), &garnet.ConsumerFunc{
		ConsumerName: "async-app",
		Fn: func(garnet.Delivery) {
			mu.Lock()
			got++
			mu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(10 * time.Second)
	g.Stop() // drains worker queues
	mu.Lock()
	defer mu.Unlock()
	if got != 10 {
		t.Fatalf("async deliveries = %d, want 10", got)
	}
}

func TestWithReorderWindowOrdersJitteredDeliveries(t *testing.T) {
	run := func(reorder bool) []garnet.Seq {
		clock := garnet.NewVirtualClock(epoch)
		opts := []garnet.Option{
			garnet.WithClock(clock),
			garnet.WithSecret([]byte("s")),
			// Heavy jitter so copies overtake each other in flight.
			garnet.WithRadio(garnet.RadioParams{DelayMin: 0, DelayMax: 800 * time.Millisecond, Seed: 5}),
		}
		if reorder {
			opts = append(opts, garnet.WithReorderWindow(time.Second))
		}
		g := garnet.New(opts...)
		defer g.Stop()
		g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(0, 0), Radius: 100})
		if _, err := g.AddSensor(garnet.SensorConfig{
			ID: 1, Mobility: garnet.Static{P: garnet.Pt(1, 0)}, TxRange: 100,
			Streams: []garnet.StreamConfig{{
				Index: 0, Sampler: garnet.SizedSampler(4), Period: 100 * time.Millisecond, Enabled: true,
			}},
		}); err != nil {
			t.Fatal(err)
		}
		tok, err := g.Register("app", garnet.PermSubscribe)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []garnet.Seq
		if _, err := g.Subscribe(tok, garnet.All(), &garnet.ConsumerFunc{
			ConsumerName: "collector",
			Fn:           func(d garnet.Delivery) { seqs = append(seqs, d.Msg.Seq) },
		}); err != nil {
			t.Fatal(err)
		}
		g.Start()
		clock.Advance(20 * time.Second)
		g.Stop()
		return seqs
	}
	unordered := run(false)
	ordered := run(true)

	countInversions := func(seqs []garnet.Seq) int {
		n := 0
		for i := 1; i < len(seqs); i++ {
			if seqs[i].Less(seqs[i-1]) {
				n++
			}
		}
		return n
	}
	if countInversions(unordered) == 0 {
		t.Fatal("jitter produced no inversions — rig not stressing ordering")
	}
	if inv := countInversions(ordered); inv != 0 {
		t.Fatalf("reorder window left %d inversions", inv)
	}
	if len(ordered) < 190 {
		t.Fatalf("reordered run delivered only %d messages", len(ordered))
	}
}

func TestWithActuationRetrySurvivesLoss(t *testing.T) {
	clock := garnet.NewVirtualClock(epoch)
	g := garnet.New(
		garnet.WithClock(clock),
		garnet.WithSecret([]byte("s")),
		garnet.WithRadio(garnet.RadioParams{LossProb: 0.7, Seed: 13}),
		garnet.WithActuationRetry(500*time.Millisecond, 30),
	)
	defer g.Stop()
	g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(0, 0), Radius: 100})
	g.AddTransmitter(garnet.TransmitterConfig{Position: garnet.Pt(0, 0), Range: 100})
	if _, err := g.AddSensor(garnet.SensorConfig{
		ID: 1, Capabilities: garnet.CapReceive,
		Mobility: garnet.Static{P: garnet.Pt(1, 0)}, TxRange: 100,
		Streams: []garnet.StreamConfig{{
			Index: 0, Sampler: garnet.SizedSampler(4), Period: time.Second, Enabled: true,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	tok, err := g.Register("op", garnet.PermActuate)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(time.Second)
	acked := false
	if err := g.Ping(tok, garnet.MustStreamID(1, 0), func(ok bool) { acked = ok }); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Second)
	if !acked {
		t.Fatalf("ping never acked despite retries: %+v", g.Stats().Actuation)
	}
	if g.Stats().Actuation.Retries == 0 {
		t.Fatal("no retries at 70% loss — loss injection broken")
	}
}

func TestRelayThroughPublicAPI(t *testing.T) {
	clock := garnet.NewVirtualClock(epoch)
	g := garnet.New(garnet.WithClock(clock), garnet.WithSecret([]byte("s")))
	defer g.Stop()
	g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(0, 0), Radius: 150})
	if _, err := g.AddSensor(garnet.SensorConfig{
		ID: 1, Mobility: garnet.Static{P: garnet.Pt(260, 0)}, TxRange: 160,
		Streams: []garnet.StreamConfig{{
			Index: 0, Sampler: garnet.SizedSampler(4), Period: time.Second, Enabled: true,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddSensor(garnet.SensorConfig{
		ID: 2, Mobility: garnet.Static{P: garnet.Pt(130, 0)}, TxRange: 160,
		Relay: garnet.RelayConfig{Enabled: true},
	}); err != nil {
		t.Fatal(err)
	}
	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	rec := garnet.NewRecorder("app", 16)
	if _, err := g.Subscribe(tok, garnet.BySensor(1), rec); err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(3 * time.Second)
	if rec.Count() != 3 {
		t.Fatalf("relayed deliveries = %d, want 3", rec.Count())
	}
	last, _ := rec.Last()
	if !last.Msg.Flags.Has(garnet.FlagRelayed) {
		t.Fatal("delivery not marked relayed")
	}
}

func TestWithDispatchShardsAndBatchSize(t *testing.T) {
	clock := garnet.NewVirtualClock(epoch)
	g := garnet.New(
		garnet.WithClock(clock),
		garnet.WithSecret([]byte("s")),
		garnet.WithShards(4),
		garnet.WithAsyncDispatch(64),
		garnet.WithBatchSize(8),
	)
	g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(0, 0), Radius: 100})
	// Two sensors → streams land in (very likely distinct) shards; either
	// way both must be delivered and the shard count must be observable.
	for id := garnet.SensorID(1); id <= 2; id++ {
		if _, err := g.AddSensor(garnet.SensorConfig{
			ID: id, Mobility: garnet.Static{P: garnet.Pt(float64(id), 0)}, TxRange: 100,
			Streams: []garnet.StreamConfig{{
				Index: 0, Sampler: garnet.SizedSampler(4), Period: time.Second, Enabled: true,
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	tok, err := g.Register("app", garnet.PermSubscribe)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var batched, total int
	if _, err := g.Subscribe(tok, garnet.All(), &garnet.BatchConsumerFunc{
		ConsumerName: "batch-app",
		Fn: func(ds []garnet.Delivery) {
			mu.Lock()
			batched++
			total += len(ds)
			mu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	g.Start()
	clock.Advance(10 * time.Second)
	g.Stop()
	mu.Lock()
	defer mu.Unlock()
	if total != 20 {
		t.Fatalf("batched deliveries = %d, want 20 (2 sensors × 10 ticks)", total)
	}
	if batched > total {
		t.Fatalf("ConsumeBatch called %d times for %d deliveries", batched, total)
	}
	if shards := g.Stats().Dispatch.Shards; shards != 4 {
		t.Fatalf("Stats.Dispatch.Shards = %d, want 4", shards)
	}
}

func TestWithFilterShards(t *testing.T) {
	run := func(shards int, opts ...garnet.Option) garnet.Snapshot {
		clock := garnet.NewVirtualClock(epoch)
		opts = append([]garnet.Option{garnet.WithClock(clock), garnet.WithSecret([]byte("s"))}, opts...)
		g := garnet.New(opts...)
		defer g.Stop()
		// Two overlapping receivers duplicate every transmission; the
		// filter must reconstruct each stream regardless of sharding.
		g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(0, 0), Radius: 100})
		g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(1, 0), Radius: 100})
		for id := garnet.SensorID(1); id <= 3; id++ {
			if _, err := g.AddSensor(garnet.SensorConfig{
				ID: id, Mobility: garnet.Static{P: garnet.Pt(float64(id), 0)}, TxRange: 100,
				Streams: []garnet.StreamConfig{{
					Index: 0, Sampler: garnet.SizedSampler(4), Period: time.Second, Enabled: true,
				}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		g.Start()
		clock.Advance(10 * time.Second)
		g.Stop()
		st := g.Stats()
		if st.Filter.Shards != shards {
			t.Fatalf("Stats.Filter.Shards = %d, want %d", st.Filter.Shards, shards)
		}
		return st
	}
	sharded := run(4, garnet.WithShards(4))
	single := run(1, garnet.WithShards(1))
	// Same deployment, same virtual schedule: the sharded filter must
	// make identical accept/duplicate decisions to the single table.
	if sharded.Filter.Delivered != single.Filter.Delivered ||
		sharded.Filter.Duplicates != single.Filter.Duplicates ||
		sharded.Filter.Received != single.Filter.Received {
		t.Fatalf("sharded filter stats %+v diverge from single-table %+v", sharded.Filter, single.Filter)
	}
	if sharded.Filter.Delivered != 30 { // 3 sensors × 10 ticks
		t.Fatalf("Delivered = %d, want 30", sharded.Filter.Delivered)
	}
	if sharded.Filter.Duplicates != 30 { // second overlapping receiver
		t.Fatalf("Duplicates = %d, want 30", sharded.Filter.Duplicates)
	}
}

func TestWithActuationCoalescingCollapsesBursts(t *testing.T) {
	clock := garnet.NewVirtualClock(epoch)
	g := garnet.New(
		garnet.WithClock(clock),
		garnet.WithSecret([]byte("s")),
		garnet.WithShards(4),
		garnet.WithActuationCoalescing(100*time.Millisecond),
		// Applied after coalescing: must compose, not clobber.
		garnet.WithActuationRetry(time.Hour, 1),
	)
	defer g.Stop()
	tok, err := g.Register("op", garnet.PermActuate)
	if err != nil {
		t.Fatal(err)
	}
	target := garnet.MustStreamID(1, 0)
	for i := 0; i < 5; i++ {
		// Every flip changes the effective setting, so each one reaches
		// the actuation service.
		if _, err := g.Actuate(tok, garnet.Demand{
			Target: target, Op: garnet.OpSetRate, Value: uint32(1000 + i*500),
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats().Actuation
	if st.Issued != 1 || st.Coalesced != 4 {
		t.Fatalf("burst: actuation stats %+v, want 1 issued / 4 coalesced", st)
	}
	clock.Advance(100 * time.Millisecond)
	st = g.Stats().Actuation
	if st.Issued != 2 {
		t.Fatalf("trailing actuation missing: %+v", st)
	}
}
