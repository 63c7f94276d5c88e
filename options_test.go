package garnet_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	garnet "github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Options coverage: each With* option must observably change deployment
// behaviour through the public API.

// optionReasons names, for each facade option that no example, command,
// benchmark or internal package calls, why it stays anyway. An option
// with neither a caller nor an entry here is a knob nothing turns and
// should be deleted.
var optionReasons = map[string]string{
	"WithPolicy":             "§4.2 names the Resource Manager's mediation policies (TestWithPolicyMediatesConflictingRates)",
	"WithCensusPolicy":       "§4.2: the Super Coordinator may change the Resource Manager's strategy (TestWithCensusPolicySwitchesMediation)",
	"WithFloodingReplicator": "E6's location-neutral baseline",
	"WithArchiveRetention":   "a growth bound: without it the archive tier grows without limit",
}

// maxOptions is the budget of facade Option constructors. A new option
// raises it in the same change, with a CHANGES.md line saying why.
const maxOptions = 15

// TestEveryOptionHasACallerOrAReason keeps the facade's knobs honest:
// every exported func in garnet.go returning Option must be called as
// garnet.<Name>( from a non-test file under examples/, cmd/, bench/ or
// internal/, or carry an entry in optionReasons. An entry for an option
// that is gone, or that has since gained a caller, is stale and fails
// too, and so do more than maxOptions constructors.
func TestEveryOptionHasACallerOrAReason(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "garnet.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var options []string
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
			continue
		}
		if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
			options = append(options, fn.Name.Name)
		}
	}
	if len(options) == 0 {
		t.Fatal("found no Option constructors in garnet.go")
	}
	if len(options) > maxOptions {
		t.Errorf("garnet.go declares %d Option constructors, over the budget of %d", len(options), maxOptions)
	}

	callers := make(map[string][]string)
	for _, root := range []string{"examples", "cmd", "bench", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, name := range options {
				if strings.Contains(string(src), "garnet."+name+"(") {
					callers[name] = append(callers[name], path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	isOption := make(map[string]bool, len(options))
	for _, name := range options {
		isOption[name] = true
		reason, excused := optionReasons[name]
		switch {
		case len(callers[name]) > 0 && excused:
			t.Errorf("%s is called from %v: drop its optionReasons entry", name, callers[name])
		case len(callers[name]) > 0:
			t.Logf("%s: called from %s", name, strings.Join(callers[name], ", "))
		case excused:
			t.Logf("%s: %s", name, reason)
		default:
			t.Errorf("%s has no caller outside tests and no reason in optionReasons: delete it or say why it stays", name)
		}
	}
	var stale []string
	for name := range optionReasons {
		if !isOption[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("optionReasons names %s, which is not an Option in garnet.go", name)
	}
}

// newFieldlessDeployment is a deployment with no receivers, transmitters
// or sensors on a virtual clock: enough to exercise the Resource
// Manager's mediation through Actuate.
func newFieldlessDeployment(opts ...garnet.Option) *garnet.Deployment {
	return garnet.New(append([]garnet.Option{
		garnet.WithClock(garnet.NewVirtualClock(epoch)), garnet.WithSecret([]byte("s")),
	}, opts...)...)
}

// actuateRate submits one consumer's OpSetRate demand on target and
// returns the Resource Manager's decision.
func actuateRate(t *testing.T, g *garnet.Deployment, tok garnet.Token, target garnet.StreamID, mHz uint32) garnet.Decision {
	t.Helper()
	dec, err := g.Actuate(tok, garnet.Demand{Target: target, Op: garnet.OpSetRate, Value: mHz})
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestWithPolicyMediatesConflictingRates: two consumers' conflicting rate
// demands on one stream merge to the faster rate under the default
// policy and to the slower one under PolicyLeastDemanding.
func TestWithPolicyMediatesConflictingRates(t *testing.T) {
	run := func(opts ...garnet.Option) uint32 {
		g := newFieldlessDeployment(opts...)
		defer g.Stop()
		target := garnet.MustStreamID(1, 0)
		var dec garnet.Decision
		for i, mHz := range []uint32{1000, 4000} {
			tok, err := g.Register(fmt.Sprintf("app-%d", i), garnet.PermActuate)
			if err != nil {
				t.Fatal(err)
			}
			dec = actuateRate(t, g, tok, target, mHz)
		}
		return dec.Effective
	}
	if got := run(); got != 4000 {
		t.Fatalf("default policy: effective rate %d mHz, want 4000 (most demanding)", got)
	}
	if got := run(garnet.WithPolicy(garnet.PolicyLeastDemanding)); got != 1000 {
		t.Fatalf("WithPolicy(PolicyLeastDemanding): effective rate %d mHz, want 1000", got)
	}
}

// TestWithCensusPolicySwitchesMediation: a census selector that answers a
// trusted consumer's "quiet" state with PolicyLeastDemanding changes the
// very next Actuate decision; without the option the policy stays put.
func TestWithCensusPolicySwitchesMediation(t *testing.T) {
	quietMeansLeast := func(census map[string]int) garnet.Policy {
		if census["quiet"] > 0 {
			return garnet.PolicyLeastDemanding
		}
		return 0
	}
	run := func(opts ...garnet.Option) uint32 {
		g := newFieldlessDeployment(opts...)
		defer g.Stop()
		target := garnet.MustStreamID(1, 0)
		slow, err := g.Register("slow", garnet.PermActuate)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := g.Register("fast", garnet.PermActuate)
		if err != nil {
			t.Fatal(err)
		}
		actuateRate(t, g, slow, target, 1000)
		if dec := actuateRate(t, g, fast, target, 4000); dec.Effective != 4000 {
			t.Fatalf("before the report: effective rate %d mHz, want 4000", dec.Effective)
		}
		coord, err := g.Register("coord", garnet.PermTrusted)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RegisterStateModel(coord, map[string][]garnet.Demand{"quiet": nil}); err != nil {
			t.Fatal(err)
		}
		if err := g.ReportState(coord, "quiet"); err != nil {
			t.Fatal(err)
		}
		return actuateRate(t, g, slow, target, 1000).Effective
	}
	if got := run(); got != 4000 {
		t.Fatalf("without a selector: effective rate %d mHz after the report, want 4000", got)
	}
	if got := run(garnet.WithCensusPolicy(quietMeansLeast)); got != 1000 {
		t.Fatalf("WithCensusPolicy: effective rate %d mHz after the report, want 1000", got)
	}
}

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
		garnet.WithAsyncDispatch(64),
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
	if shards := g.Stats().Dispatch.Shards; shards != wire.Shards {
		t.Fatalf("Stats.Dispatch.Shards = %d, want %d", shards, wire.Shards)
	}
}

// TestWithFilterShards: a deployment screens in wire.Shards partitions
// (Stats.Filter.Shards reports the store's count) and reconstructs every
// stream from the copies two overlapping receivers hear.
func TestWithFilterShards(t *testing.T) {
	clock := garnet.NewVirtualClock(epoch)
	g := garnet.New(garnet.WithClock(clock), garnet.WithSecret([]byte("s")))
	defer g.Stop()
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
	st := g.Stats().Filter
	if st.Shards != wire.Shards {
		t.Fatalf("Stats.Filter.Shards = %d, want %d", st.Shards, wire.Shards)
	}
	if st.Delivered != 30 { // 3 sensors × 10 ticks
		t.Fatalf("Delivered = %d, want 30", st.Delivered)
	}
	if st.Duplicates != 30 { // second overlapping receiver
		t.Fatalf("Duplicates = %d, want 30", st.Duplicates)
	}
}
