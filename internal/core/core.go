// Package core assembles the complete Garnet middleware of Figure 1: the
// simulated wireless medium, the receiver array feeding the Filtering and
// Location Services, the Dispatching Service with its Orphanage, and the
// return actuation path (Resource Manager → Actuation Service → Message
// Replicator → Transmitters), coordinated by the Super Coordinator and
// guarded by the consumer registry.
//
// A Deployment owns every component's lifecycle. The data path is
//
//	sensors ⇒ medium ⇒ receivers ⇒ (location service, filter + store) ⇒
//	dispatcher ⇒ consumers | orphanage
//
// and the control path is
//
//	consumer demand ⇒ resource manager (admission + mediation) ⇒
//	actuation service (ids, timestamps, checksums, retries) ⇒
//	replicator (location-area targeting) ⇒ transmitters ⇒ medium ⇒ sensor
//
// with sensor acknowledgements detected on the data path and fed back to
// the actuation service.
//
// The Filtering Service's duplicate screen runs inside the Stream Store,
// whose per-stream record holds each stream's window beside its ring
// (store.Store.Ingest): a reception is screened, retained and routed
// under one store shard lock and delivered after it drops. A late
// joiner's subscription is installed under the same lock as its backlog
// is read, so appends and joins on a stream are ordered by it (the store
// and dispatch package comments name the lock order). The store, the
// dispatcher and the Location Service each hold wire.Shards shards keyed
// by wire.SensorID.Shard (Stats().Filter.Shards reports the store's
// count). Live delivery keeps the arrival order of each message's first
// accepted copy; retained history is in sequence order.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/coordinator"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/location"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/replicator"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Config assembles a Deployment. Zero values select sensible defaults:
// real clock, perfect radio, synchronous dispatch, most-demanding
// mediation.
type Config struct {
	Clock sim.Clock
	// Radio configures medium impairments: loss, corruption, delay and
	// the seed of their random stream.
	Radio radio.Params
	// Filter is not read: a deployment's duplicate screen runs in the
	// Stream Store's shards, with the default window. bench/'s hand-wired
	// chain hands it to filtering.New (ROADMAP item 2 deletes that chain).
	Filter      filtering.Options
	Dispatch    dispatch.Options
	Orphanage   orphanage.Options
	Location    location.Options
	Actuation   actuation.Options
	Replicator  replicator.Options
	Coordinator coordinator.Options
	// Resource configures the Resource Manager.
	Resource resource.Options
	// Store configures the Stream Store, the retention layer every
	// accepted delivery is appended to before dispatch and whose shards
	// the duplicate screen runs in (the garnet.WithStore* and
	// WithArchive* facade options thread fields here). Its per-stream
	// count bound is raised to at least the Orphanage's per-stream
	// capacity so orphan claims always find their full backlog window.
	Store store.Options
	// Policy is the initial mediation policy; it is folded into
	// Resource.Policy when that field is zero.
	Policy resource.Policy
	// Secret signs registry tokens. Required.
	Secret []byte
	// LocationPublishPeriod, when positive, publishes location estimates
	// as data streams (reserved index) at this period.
	LocationPublishPeriod time.Duration
}

// Deployment is a fully wired Garnet fixed-network instance plus the
// simulated field attached to it.
type Deployment struct {
	clock  sim.Clock
	medium *radio.Medium

	dispatcher *dispatch.Dispatcher
	st         *store.Store
	orphan     *orphanage.Orphanage
	locSvc     *location.Service
	registry   *registry.Registry
	rm         *resource.Manager
	acts       *actuation.Service
	repl       *replicator.Replicator
	coord      *coordinator.Coordinator

	// mu guards the component registries and lifecycle flags only — the
	// control path (demand submission, application, actuation) never
	// takes it; ownership bookkeeping lives in the resource manager's
	// ledger.
	mu           sync.Mutex
	receivers    []*receiver.Receiver
	transmitters []*transmit.Transmitter
	sensors      []*sensor.Node
	nextVirtual  wire.SensorID
	locTicker    *sim.Ticker
	started      bool
	stopped      bool
}

// ErrLifecycle is returned for operations against a stopped deployment.
var ErrLifecycle = errors.New("core: deployment stopped")

// New builds a Deployment from cfg. New panics on a missing Secret (a
// deployment configuration error surfaced at startup, not at first use).
func New(cfg Config) *Deployment {
	if cfg.Clock == nil {
		cfg.Clock = sim.RealClock{}
	}
	if len(cfg.Secret) == 0 {
		panic("core: Config.Secret required")
	}
	d := &Deployment{
		clock:       cfg.Clock,
		nextVirtual: consumer.VirtualSensorBase,
	}
	d.medium = radio.NewMedium(cfg.Clock, cfg.Radio)
	storeOpts := cfg.Store
	if storeOpts.MaxMessages <= 0 {
		storeOpts.MaxMessages = store.DefaultMaxMessages
	}
	orphCap := cfg.Orphanage.PerStreamCapacity
	if orphCap <= 0 {
		orphCap = orphanage.DefaultPerStreamCapacity
	}
	if storeOpts.MaxMessages < orphCap {
		storeOpts.MaxMessages = orphCap
	}
	d.st = store.New(storeOpts)
	d.orphan = orphanage.NewWithStore(cfg.Orphanage, d.st)
	d.dispatcher = dispatch.New(cfg.Dispatch)
	d.dispatcher.SetOrphanSink(d.orphan.Consume)

	d.locSvc = location.New(cfg.Clock, cfg.Location)
	d.registry = registry.New(cfg.Secret, cfg.Clock)
	resOpts := cfg.Resource
	if resOpts.Policy == 0 {
		resOpts.Policy = cfg.Policy
	}
	d.rm = resource.NewWithOptions(resOpts)
	d.repl = replicator.New(d.locSvc, cfg.Replicator)
	d.acts = actuation.NewService(cfg.Clock, func(c wire.ControlMessage) {
		// ErrNoTransmitters is visible through replicator stats; the
		// actuation retry loop covers transient emptiness.
		_, _ = d.repl.Send(c)
	}, cfg.Actuation)
	d.coord = coordinator.New(cfg.Clock, coordSink{d}, cfg.Coordinator)

	if cfg.LocationPublishPeriod > 0 {
		d.locTicker = sim.NewTicker(cfg.Clock, cfg.LocationPublishPeriod, func(now time.Time) {
			for _, msg := range d.locSvc.ComposeUpdates() {
				d.publish(filtering.Delivery{
					Msg: msg, At: now, Receiver: "location-service", RSSI: 1,
				})
			}
		})
	}
	return d
}

// publish tees one unscreened delivery (a derived stream's, a location
// update) into the Stream Store — stamping its 64-bit retention address
// onto Delivery.StoreSeq and resolving its route under the same lock —
// and hands it to the Dispatching Service. Receptions take ingest
// instead; either way every delivery entering the dispatcher is retained
// first, so retained history and live delivery share one address space.
func (d *Deployment) publish(del filtering.Delivery) {
	var route dispatch.Route
	stream := del.Msg.Stream
	del.StoreSeq = d.st.AppendFenced(del, func() { route = d.dispatcher.Resolve(stream) })
	d.dispatcher.Deliver(&del, route)
}

// ingest screens, retains and routes one reception in the Stream Store
// and, if it is accepted, surfaces a sensor acknowledgement to the
// Actuation Service and delivers it. The store's shard lock is dropped
// first, so a consumer may inject from inside Consume.
func (d *Deployment) ingest(rc receiver.Reception) {
	var route dispatch.Route
	stream := rc.Msg.Stream
	del, ok := d.st.Ingest(rc, func() { route = d.dispatcher.Resolve(stream) })
	if !ok {
		return
	}
	if del.Msg.Flags.Has(wire.FlagUpdateAck) {
		d.acts.HandleAck(del.Msg.AckID, del.At)
	}
	d.dispatcher.Deliver(&del, route)
}

// AddReceiver creates, registers and (if the deployment is running)
// starts a receiver. Its reception records feed both the Location Service
// (pre-filter, duplicates included) and the screened store.
func (d *Deployment) AddReceiver(cfg receiver.Config) *receiver.Receiver {
	rx := receiver.New(d.medium, cfg, func(rc receiver.Reception) {
		// Relayed copies (§8 multi-hop) carry the relay's bearing, not the
		// source's, so they feed the filter but never location inference.
		if !rc.Msg.Flags.Has(wire.FlagRelayed) {
			_ = d.locSvc.ObserveReception(rc) // receiver registered below; cannot fail
		}
		d.ingest(rc)
	})
	d.locSvc.RegisterReceiver(rx.Name(), rx.Position(), rx.Radius())
	d.mu.Lock()
	d.receivers = append(d.receivers, rx)
	started := d.started
	d.mu.Unlock()
	if started {
		rx.Start()
	}
	return rx
}

// AddTransmitter creates a transmitter and attaches it to the replicator.
func (d *Deployment) AddTransmitter(cfg transmit.Config) *transmit.Transmitter {
	tx := transmit.New(d.medium, cfg)
	d.repl.AddTransmitter(tx)
	d.mu.Lock()
	d.transmitters = append(d.transmitters, tx)
	d.mu.Unlock()
	return tx
}

// AddSensor creates a sensor node in the simulated field and (if the
// deployment is running) starts it.
func (d *Deployment) AddSensor(cfg sensor.Config) (*sensor.Node, error) {
	n, err := sensor.New(d.clock, d.medium, cfg)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.sensors = append(d.sensors, n)
	started := d.started
	d.mu.Unlock()
	if started {
		n.Start()
	}
	return n, nil
}

// Start brings every registered component up. Idempotent.
func (d *Deployment) Start() {
	d.mu.Lock()
	if d.started || d.stopped {
		d.mu.Unlock()
		return
	}
	d.started = true
	receivers := append([]*receiver.Receiver(nil), d.receivers...)
	sensors := append([]*sensor.Node(nil), d.sensors...)
	d.mu.Unlock()

	d.dispatcher.Start()
	for _, rx := range receivers {
		rx.Start()
	}
	for _, n := range sensors {
		n.Start()
	}
}

// Stop tears the deployment down: sensors first (no new uplink), then
// receivers, the actuation service, the dispatcher and the store.
// Idempotent.
func (d *Deployment) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	receivers := append([]*receiver.Receiver(nil), d.receivers...)
	sensors := append([]*sensor.Node(nil), d.sensors...)
	locTicker := d.locTicker
	d.mu.Unlock()

	for _, n := range sensors {
		n.Stop()
	}
	for _, rx := range receivers {
		rx.Stop()
	}
	if locTicker != nil {
		locTicker.Stop()
	}
	d.acts.Stop()
	d.dispatcher.Stop()
	d.st.Close()
}

// SubmitDemand runs one demand through admission control and actuates the
// resulting action when the effective sensor setting changed.
func (d *Deployment) SubmitDemand(dem resource.Demand) (resource.Decision, error) {
	dec, err := d.rm.Submit(dem)
	if err != nil {
		return dec, err
	}
	if dec.Changed && dec.Action != nil {
		d.actuateAction(*dec.Action, dem.Consumer)
	}
	return dec, nil
}

// WithdrawDemand removes a standing demand and actuates any relaxation.
func (d *Deployment) WithdrawDemand(consumerName string, target wire.StreamID, class resource.Class) (resource.Decision, bool) {
	dec, ok := d.rm.Withdraw(consumerName, target, class)
	if ok && dec.Changed && dec.Action != nil {
		d.actuateAction(*dec.Action, consumerName)
	}
	return dec, ok
}

func (d *Deployment) actuateAction(a resource.Action, owner string) {
	_, _ = d.acts.Issue(actuation.Request{
		Target:   a.Target,
		Op:       a.Op,
		Value:    a.Value,
		Consumer: owner,
	}, nil)
}

// coordSink is the Super Coordinator's sink: demand sets go through
// applyDemands, strategy changes straight to the Resource Manager.
type coordSink struct{ d *Deployment }

func (s coordSink) Apply(owner string, demands []resource.Demand) { s.d.applyDemands(owner, demands) }

func (s coordSink) SetPolicy(p resource.Policy) { s.d.rm.SetPolicy(p) }

// applyDemands replaces an owner's standing demand set — the Super
// Coordinator's sink. Demands present in the new set are submitted;
// demands the owner held before but not any more are withdrawn; every
// changed effective setting is actuated. The replacement runs under the
// resource manager's own lock (it owns the ownership bookkeeping);
// Deployment.mu is never taken.
func (d *Deployment) applyDemands(owner string, demands []resource.Demand) {
	for _, a := range d.rm.Apply(owner, demands) {
		d.actuateAction(a, owner)
	}
}

// PublishDerived implements consumer.Publisher: derived messages enter the
// Dispatching Service directly (their publisher already guarantees unique
// ascending sequence numbers, so the duplicate filter is unnecessary).
// They tee through the Stream Store like physical streams, so derived
// history replays the same way.
func (d *Deployment) PublishDerived(msg wire.Message, at time.Time) {
	d.publish(filtering.Delivery{Msg: msg, At: at, Receiver: "derived", RSSI: 1})
}

// SubscribeWithReplay subscribes c to a single stream, replaying the
// retained history from store sequence fromSeq onwards through c's
// dispatch port ahead of live delivery — the late-joiner catch-up path.
// The subscription is installed in the store critical section that reads
// the backlog, so each delivery of the stream is replayed or delivered
// live, not both; a consumer that already receives the stream through
// another subscription sees the replay repeat what it got live. The
// backlog is a fresh store.Range result nothing else
// references, as the port's ownership of it requires (dispatch.Join).
// The facade performs permission checks and calls this.
func (d *Deployment) SubscribeWithReplay(c dispatch.Consumer, stream wire.StreamID, fromSeq uint64) (dispatch.SubscriptionID, int, error) {
	j, err := d.dispatcher.Join(c, stream)
	if err != nil {
		return 0, 0, err
	}
	id, n := j.CatchUp(d.st.RangeFenced(stream, fromSeq, ^uint64(0), j.Install))
	return id, n, nil
}

// StreamInfo is one advertised stream, for discovery.
type StreamInfo struct {
	FirstSeen  time.Time // At of the stream's first published delivery
	LastSeen   time.Time // At of its latest
	Count      int64     // deliveries published on it
	Stream     wire.StreamID
	Subscribed bool // whether at least one subscription currently matches it
}

// Discover lists every stream the deployment has published, sorted by id
// — the advertising/discovery mechanism consumers use to find streams of
// interest, including un-configured ones currently flowing to the
// Orphanage. What a stream has published is the Stream Store's record,
// since every delivery passes through it before dispatch; the times are
// instants as the store returns them (Equal, not ==). Subscribed is asked
// of the dispatcher with no lock held, so a Where predicate may call back
// into the deployment.
func (d *Deployment) Discover() []StreamInfo {
	appended := d.st.Appended()
	out := make([]StreamInfo, len(appended))
	for i, a := range appended {
		out[i] = StreamInfo{FirstSeen: a.First, LastSeen: a.Latest, Count: a.Count,
			Stream: a.Stream, Subscribed: d.dispatcher.Subscribed(a.Stream)}
	}
	return out
}

// AllocateVirtualSensor reserves the next virtual sensor id for a
// derived-stream publisher.
func (d *Deployment) AllocateVirtualSensor() wire.SensorID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextVirtual
	d.nextVirtual++
	return id
}

// InjectReception feeds a hand-built reception into the pipeline exactly
// as a receiver would (used by tests and the experiment harness to drive
// the fixed network without a radio field).
func (d *Deployment) InjectReception(rc receiver.Reception) {
	d.ingest(rc)
}

// Component accessors. The facade package and the experiment harness
// reach individual services through these.

// Clock returns the deployment clock.
func (d *Deployment) Clock() sim.Clock { return d.clock }

// Medium returns the simulated wireless medium.
func (d *Deployment) Medium() *radio.Medium { return d.medium }

// Dispatcher returns the Dispatching Service.
func (d *Deployment) Dispatcher() *dispatch.Dispatcher { return d.dispatcher }

// Store returns the Stream Store.
func (d *Deployment) Store() *store.Store { return d.st }

// Orphanage returns the Orphanage.
func (d *Deployment) Orphanage() *orphanage.Orphanage { return d.orphan }

// Location returns the Location Service.
func (d *Deployment) Location() *location.Service { return d.locSvc }

// Registry returns the consumer registry.
func (d *Deployment) Registry() *registry.Registry { return d.registry }

// ResourceManager returns the Resource Manager.
func (d *Deployment) ResourceManager() *resource.Manager { return d.rm }

// ActuationService returns the Actuation Service.
func (d *Deployment) ActuationService() *actuation.Service { return d.acts }

// Replicator returns the Message Replicator.
func (d *Deployment) Replicator() *replicator.Replicator { return d.repl }

// Coordinator returns the Super Coordinator.
func (d *Deployment) Coordinator() *coordinator.Coordinator { return d.coord }

// Sensors returns the registered sensor nodes.
func (d *Deployment) Sensors() []*sensor.Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*sensor.Node, len(d.sensors))
	copy(out, d.sensors)
	return out
}

// Snapshot aggregates the headline statistics of every service.
type Snapshot struct {
	Filter     filtering.Stats
	Dispatch   dispatch.Stats
	Store      store.Stats
	Orphanage  orphanage.Stats
	Resource   resource.Stats
	Actuation  actuation.Stats
	Replicator replicator.Stats
	Coord      coordinator.Stats
	// Receiver and Transmitter sum the counters of every receiver and
	// every transmitter in the deployment's arrays.
	Receiver    receiver.Stats
	Transmitter transmit.Stats
	Receivers   int
	Txs         int
	Sensors     int
}

// Audit checks every conservation identity the snapshot's layers keep —
// each layer's Stats.Check, plus the replicator's Broadcasts against the
// transmitters' (only the replicator broadcasts on the downlink) — and
// returns the failures joined, each prefixed with its layer's name; nil
// when the books balance.
//
// The screen, store, resource and actuation counters are read under
// their layer's lock, so those identities hold on any snapshot. The
// receiver, replicator and transmitter counters are atomics bumped one
// after another, so those identities are exact only on a quiescent
// deployment: stopped, or on a VirtualClock between steps. Dispatch
// keeps no identity yet: a consumed or faulted copy is not counted.
func (s Snapshot) Audit() error {
	var errs []error
	for _, l := range []struct {
		name string
		err  error
	}{
		{"filter", s.Filter.Check()},
		{"store", s.Store.Check()},
		{"resource", s.Resource.Check()},
		{"actuation", s.Actuation.Check()},
		{"replicator", s.Replicator.Check()},
		{"receivers", s.Receiver.Check()},
	} {
		if l.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", l.name, l.err))
		}
	}
	if s.Replicator.Broadcasts != s.Transmitter.Broadcasts {
		errs = append(errs, fmt.Errorf("replicator → transmitters: %d broadcasts replicated, %d transmitted",
			s.Replicator.Broadcasts, s.Transmitter.Broadcasts))
	}
	return errors.Join(errs...)
}

// Stats returns a consistent-enough snapshot for dashboards and the
// experiment harness; Snapshot.Audit says which identities it keeps.
func (d *Deployment) Stats() Snapshot {
	d.mu.Lock()
	rx, tx, sn := len(d.receivers), len(d.transmitters), len(d.sensors)
	var rxs receiver.Stats
	for _, r := range d.receivers {
		st := r.Stats()
		rxs.FramesHeard += st.FramesHeard
		rxs.Corrupt += st.Corrupt
		rxs.Decoded += st.Decoded
	}
	var txs transmit.Stats
	for _, t := range d.transmitters {
		st := t.Stats()
		txs.Broadcasts += st.Broadcasts
		txs.Bytes += st.Bytes
	}
	d.mu.Unlock()
	return Snapshot{
		Filter:      d.st.ScreenStats(),
		Dispatch:    d.dispatcher.Stats(),
		Store:       d.st.Stats(),
		Orphanage:   d.orphan.Stats(),
		Resource:    d.rm.Stats(),
		Actuation:   d.acts.Stats(),
		Replicator:  d.repl.Stats(),
		Coord:       d.coord.Stats(),
		Receiver:    rxs,
		Transmitter: txs,
		Receivers:   rx,
		Txs:         tx,
		Sensors:     sn,
	}
}

// String summarises the deployment.
func (d *Deployment) String() string {
	s := d.Stats()
	return fmt.Sprintf("garnet deployment: %d sensors, %d receivers, %d transmitters, %d streams seen",
		s.Sensors, s.Receivers, s.Txs, s.Filter.ActiveStreams)
}
