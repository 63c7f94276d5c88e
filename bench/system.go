package main

import (
	"fmt"
	"time"

	"github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/location"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/replicator"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// system is what a workload drives. The facade is the real deployment,
// whose runs give every end-to-end metric; the chain is the same layers
// wired inside this package with a span around each call, whose runs give
// the per-layer costs. A workload is written once against this interface so
// both receive the same seeded script.
type system interface {
	// register creates a consumer identity and returns its handle.
	register(name string, perms garnet.Permission) (int, error)
	addReceiver(cfg garnet.ReceiverConfig)
	addTransmitter(cfg garnet.TransmitterConfig)
	addSensor(cfg garnet.SensorConfig) (*garnet.SensorNode, error)
	subscribe(who int, p garnet.Pattern, c garnet.Consumer) (garnet.SubscriptionID, error)
	unsubscribe(id garnet.SubscriptionID)
	start()
	stop()

	// sample makes a sensor take and transmit one sample of stream 0.
	sample(n *garnet.SensorNode)
	// inject feeds one reception to the fixed network as a receiver would.
	inject(rc receiver.Reception)
	// pump advances a simulated clock by d and runs what falls due. It does
	// nothing on the real clock, where the runtime's timers do that.
	pump(d time.Duration)

	replay(who int, stream garnet.StreamID, from, to uint64) ([]garnet.Delivery, error)
	latest(who int, stream garnet.StreamID) (garnet.Delivery, bool, error)
	join(who int, stream garnet.StreamID, from uint64, c garnet.Consumer) (garnet.SubscriptionID, int, error)
	actuate(who int, d garnet.Demand) (garnet.Decision, error)

	stats() garnet.Snapshot
	air() *radio.Metrics
	tracer() *tracer
}

var secret = []byte("garnet-bench")

// facade adapts the public garnet.Deployment to system.
type facade struct {
	g      *garnet.Deployment
	vclock *garnet.VirtualClock // nil on the real clock
	toks   []garnet.Token
}

func newFacade(vclock *garnet.VirtualClock, opts ...garnet.Option) *facade {
	opts = append([]garnet.Option{garnet.WithSecret(secret)}, opts...)
	if vclock != nil {
		opts = append(opts, garnet.WithClock(vclock))
	}
	return &facade{g: garnet.New(opts...), vclock: vclock}
}

func (f *facade) register(name string, perms garnet.Permission) (int, error) {
	tok, err := f.g.Register(name, perms)
	if err != nil {
		return 0, err
	}
	f.toks = append(f.toks, tok)
	return len(f.toks) - 1, nil
}

func (f *facade) addReceiver(cfg garnet.ReceiverConfig)       { f.g.AddReceiver(cfg) }
func (f *facade) addTransmitter(cfg garnet.TransmitterConfig) { f.g.AddTransmitter(cfg) }
func (f *facade) addSensor(cfg garnet.SensorConfig) (*garnet.SensorNode, error) {
	return f.g.AddSensor(cfg)
}
func (f *facade) subscribe(who int, p garnet.Pattern, c garnet.Consumer) (garnet.SubscriptionID, error) {
	return f.g.Subscribe(f.toks[who], p, c)
}
func (f *facade) unsubscribe(id garnet.SubscriptionID) { f.g.Unsubscribe(id) }
func (f *facade) start()                               { f.g.Start() }
func (f *facade) stop()                                { f.g.Stop() }

func (f *facade) sample(n *garnet.SensorNode) {
	_ = n.TriggerSample(0) // every bench sensor has stream 0
}
func (f *facade) inject(rc receiver.Reception) { f.g.Core().InjectReception(rc) }
func (f *facade) pump(d time.Duration) {
	if f.vclock != nil {
		f.vclock.Advance(d)
	}
}

func (f *facade) replay(who int, stream garnet.StreamID, from, to uint64) ([]garnet.Delivery, error) {
	return f.g.Replay(f.toks[who], stream, from, to)
}
func (f *facade) latest(who int, stream garnet.StreamID) (garnet.Delivery, bool, error) {
	return f.g.LatestValue(f.toks[who], stream)
}
func (f *facade) join(who int, stream garnet.StreamID, from uint64, c garnet.Consumer) (garnet.SubscriptionID, int, error) {
	return f.g.SubscribeWithReplay(f.toks[who], stream, from, c)
}
func (f *facade) actuate(who int, d garnet.Demand) (garnet.Decision, error) {
	return f.g.Actuate(f.toks[who], d)
}

func (f *facade) stats() garnet.Snapshot { return f.g.Stats() }
func (f *facade) air() *radio.Metrics    { return f.g.Core().Medium().Metrics() }
func (f *facade) tracer() *tracer        { return nil }

// chain is the deployment rebuilt from the layers' own constructors, wired
// as core.New, AddReceiver, onFiltered, publish and SubmitDemand wire them,
// with a span around every call into a layer. It leaves out what no
// workload reaches: the Orphanage (every stream has a subscriber, and a nil
// orphan sink discards), the Super Coordinator, the ingest batch buffer and
// location publishing. TestChainMatchesDeployment holds the two together.
type chain struct {
	tr  *tracer
	clk *queueClock

	medium     *radio.Medium
	filter     *filtering.Filter
	st         *store.Store
	dispatcher *dispatch.Dispatcher
	locSvc     *location.Service
	registry   *registry.Registry
	rm         *resource.Manager
	acts       *actuation.Service
	repl       *replicator.Replicator

	receivers []*receiver.Receiver
	sensors   []*sensor.Node
	txs       []*transmit.Transmitter
	toks      []registry.Token
	started   bool
}

// chainEpoch is where the chain's virtual time starts.
var chainEpoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

func newChain(tr *tracer, opts ...garnet.Option) *chain {
	var cfg core.Config
	cfg.Replicator.Targeted = true // as garnet.New
	cfg.Secret = secret
	for _, o := range opts {
		o(&cfg)
	}
	c := &chain{tr: tr, clk: newQueueClock(chainEpoch, tr)}
	c.medium = radio.NewMedium(c.clk, cfg.Radio)
	storeOpts := cfg.Store
	if storeOpts.MaxMessages <= 0 {
		storeOpts.MaxMessages = store.DefaultMaxMessages
	}
	c.st = store.New(storeOpts)
	c.dispatcher = dispatch.New(cfg.Dispatch)
	c.filter = filtering.New(c.onFiltered, cfg.Filter)
	c.locSvc = location.New(c.clk, cfg.Location)
	c.registry = registry.New(cfg.Secret, c.clk)
	resOpts := cfg.Resource
	if resOpts.Policy == 0 {
		resOpts.Policy = cfg.Policy
	}
	c.rm = resource.NewWithOptions(resOpts)
	c.repl = replicator.New(c.locSvc, cfg.Replicator)
	c.acts = actuation.NewService(c.clk, c.send, cfg.Actuation)
	return c
}

// send is the Actuation Service's transmit hook, as in core.New. Downlink
// hand-offs scheduled while the replicator runs are sensor.downlink spans.
func (c *chain) send(cm wire.ControlMessage) {
	prev := c.clk.setKind(spSensorDownlink)
	sp := c.tr.begin(spReplicatorSend)
	_, _ = c.repl.Send(cm) // as core: ErrNoTransmitters shows in replicator stats
	c.tr.end(sp)
	c.clk.setKind(prev)
}

// onFiltered is the filter's sink: core.onFiltered followed by core.publish.
func (c *chain) onFiltered(del filtering.Delivery) {
	if del.Msg.Flags.Has(wire.FlagUpdateAck) {
		sp := c.tr.begin(spActuationHandleAck)
		c.acts.HandleAck(del.Msg.AckID, del.At)
		c.tr.end(sp)
	}
	sp := c.tr.begin(spStoreAppend)
	del.StoreSeq = c.st.Append(del)
	c.tr.end(sp)
	sp = c.tr.begin(spDispatch)
	c.dispatcher.Dispatch(del)
	c.tr.end(sp)
}

func (c *chain) register(name string, perms garnet.Permission) (int, error) {
	tok, err := c.registry.Register(name, perms)
	if err != nil {
		return 0, err
	}
	c.toks = append(c.toks, tok)
	return len(c.toks) - 1, nil
}

func (c *chain) require(who int, need registry.Permission) (registry.Identity, error) {
	sp := c.tr.begin(spRegistryRequire)
	id, err := c.registry.Require(c.toks[who], need)
	c.tr.end(sp)
	return id, err
}

func (c *chain) addReceiver(cfg garnet.ReceiverConfig) {
	rx := receiver.New(c.medium, cfg, func(rc receiver.Reception) {
		if !rc.Msg.Flags.Has(wire.FlagRelayed) {
			sp := c.tr.begin(spLocationObserve)
			_ = c.locSvc.ObserveReception(rc) // receiver registered below; cannot fail
			c.tr.end(sp)
		}
		c.inject(rc)
	})
	c.locSvc.RegisterReceiver(rx.Name(), rx.Position(), rx.Radius())
	c.receivers = append(c.receivers, rx)
	if c.started {
		rx.Start()
	}
}

func (c *chain) addTransmitter(cfg garnet.TransmitterConfig) {
	tx := transmit.New(c.medium, cfg)
	c.repl.AddTransmitter(tx)
	c.txs = append(c.txs, tx)
}

func (c *chain) addSensor(cfg garnet.SensorConfig) (*garnet.SensorNode, error) {
	n, err := sensor.New(c.clk, c.medium, cfg)
	if err != nil {
		return nil, err
	}
	c.sensors = append(c.sensors, n)
	if c.started {
		n.Start()
	}
	return n, nil
}

// subscribe is the facade's Subscribe for an identity holding PermLocation,
// for which every pattern kind passes to the dispatcher unchanged.
func (c *chain) subscribe(who int, p garnet.Pattern, cons garnet.Consumer) (garnet.SubscriptionID, error) {
	id, err := c.require(who, registry.PermSubscribe)
	if err != nil {
		return 0, err
	}
	if !id.Permissions.Has(registry.PermLocation) {
		return 0, fmt.Errorf("chain: %q needs PermLocation, pattern narrowing is not reproduced", id.Name)
	}
	return c.dispatcher.Subscribe(cons, p)
}

func (c *chain) unsubscribe(id garnet.SubscriptionID) { c.dispatcher.Unsubscribe(id) }

func (c *chain) start() {
	c.started = true
	c.dispatcher.Start()
	for _, rx := range c.receivers {
		rx.Start()
	}
	for _, n := range c.sensors {
		n.Start()
	}
}

func (c *chain) stop() {
	for _, n := range c.sensors {
		n.Stop()
	}
	for _, rx := range c.receivers {
		rx.Stop()
	}
	c.filter.Flush()
	c.acts.Stop()
	c.dispatcher.Stop()
	c.st.Close()
}

// sample spans the TriggerSample call; the uplink hand-offs it schedules
// are receiver.frame spans when pump runs them.
func (c *chain) sample(n *garnet.SensorNode) {
	prev := c.clk.setKind(spReceiverFrame)
	sp := c.tr.begin(spSensorSample)
	_ = n.TriggerSample(0) // every bench sensor has stream 0
	c.tr.end(sp)
	c.clk.setKind(prev)
}

func (c *chain) inject(rc receiver.Reception) {
	sp := c.tr.begin(spFilterIngest)
	c.filter.Ingest(rc)
	c.tr.end(sp)
}

func (c *chain) pump(d time.Duration) { c.clk.advance(d) }

func (c *chain) replay(who int, stream garnet.StreamID, from, to uint64) ([]garnet.Delivery, error) {
	if _, err := c.require(who, registry.PermSubscribe); err != nil {
		return nil, err
	}
	sp := c.tr.begin(spStoreRange)
	ds := c.st.Range(stream, from, to)
	c.tr.end(sp)
	return ds, nil
}

func (c *chain) latest(who int, stream garnet.StreamID) (garnet.Delivery, bool, error) {
	if _, err := c.require(who, registry.PermSubscribe); err != nil {
		return garnet.Delivery{}, false, err
	}
	sp := c.tr.begin(spStoreLatest)
	d, ok := c.st.Latest(stream)
	c.tr.end(sp)
	return d, ok, nil
}

func (c *chain) join(who int, stream garnet.StreamID, from uint64, cons garnet.Consumer) (garnet.SubscriptionID, int, error) {
	if _, err := c.require(who, registry.PermSubscribe); err != nil {
		return 0, 0, err
	}
	sp := c.tr.begin(spStoreJoin)
	id, n, err := c.dispatcher.SubscribeWithReplay(cons, stream, func() []filtering.Delivery {
		return c.st.Range(stream, from, ^uint64(0))
	})
	c.tr.end(sp)
	return id, n, err
}

// actuate is the facade's Actuate followed by core.SubmitDemand.
func (c *chain) actuate(who int, d garnet.Demand) (garnet.Decision, error) {
	id, err := c.require(who, registry.PermActuate)
	if err != nil {
		return garnet.Decision{}, err
	}
	d.Consumer = id.Name
	sp := c.tr.begin(spResourceSubmit)
	dec, err := c.rm.Submit(d)
	c.tr.end(sp)
	if err != nil {
		return dec, err
	}
	if dec.Changed && dec.Action != nil {
		sp = c.tr.begin(spActuationIssue)
		_, _ = c.acts.Issue(actuation.Request{
			Target: dec.Action.Target, Op: dec.Action.Op, Value: dec.Action.Value, Consumer: d.Consumer,
		}, nil)
		c.tr.end(sp)
	}
	return dec, nil
}

func (c *chain) stats() garnet.Snapshot {
	return garnet.Snapshot{
		Filter:     c.filter.Stats(),
		Dispatch:   c.dispatcher.Stats(),
		Store:      c.st.Stats(),
		Resource:   c.rm.Stats(),
		Actuation:  c.acts.Stats(),
		Replicator: c.repl.Stats(),
		Receivers:  len(c.receivers),
		Txs:        len(c.txs),
		Sensors:    len(c.sensors),
	}
}

func (c *chain) air() *radio.Metrics { return c.medium.Metrics() }
func (c *chain) tracer() *tracer     { return c.tr }
