// Package garnet is a Go implementation of Garnet, the data-stream-centric
// middleware for wireless sensor networks described in:
//
//	L. St. Ville and P. Dickman. “Garnet: A Middleware Architecture for
//	Distributing Data Streams Originating in Wireless Sensor Networks.”
//	Proc. 23rd ICDCS Workshops, pp. 235–240, Providence, RI, May 2003.
//
// Garnet treats data streams — not devices — as the primary abstraction.
// Mobile sensors transmit over an unreliable wireless medium into a fixed
// network of overlapping receivers; the middleware reconstructs streams
// (duplicate elimination), dispatches them to mutually-unaware
// publish/subscribe consumers, infers sensor locations from reception
// evidence plus application hints, and offers a return actuation path
// through which consumers manipulate sensor behaviour, mediated by a
// resource manager and anticipated by a predictive super coordinator.
//
// A minimal deployment:
//
//	g := garnet.New(garnet.WithSecret([]byte("deployment-secret")))
//	g.AddReceiver(garnet.ReceiverConfig{Position: garnet.Pt(0, 0), Radius: 100})
//	node, _ := g.AddSensor(garnet.SensorConfig{
//		ID: 1, Mobility: garnet.Static{P: garnet.Pt(10, 10)}, TxRange: 100,
//		Streams: []garnet.StreamConfig{{
//			Index:   0,
//			Sampler: garnet.FloatSampler(readThermometer),
//			Period:  time.Second, Enabled: true,
//		}},
//	})
//	tok, _ := g.Register("my-app", garnet.PermSubscribe)
//	g.Subscribe(tok, garnet.BySensor(node.ID()), myConsumer)
//	g.Start()
//	defer g.Stop()
//
// Every privileged operation takes the bearer token issued by Register and
// is checked against the consumer's permissions, including the protected
// location streams (PermLocation) and trusted state reporting to the super
// coordinator (PermTrusted).
package garnet

import (
	"fmt"
	"slices"
	"time"

	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/coordinator"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Option configures a Deployment.
type Option func(*core.Config)

// WithClock runs the deployment on the given clock (a VirtualClock makes
// whole deployments deterministic and replayable).
func WithClock(c Clock) Option {
	return func(cfg *core.Config) { cfg.Clock = c }
}

// WithSecret sets the registry signing secret. Required.
func WithSecret(secret []byte) Option {
	return func(cfg *core.Config) { cfg.Secret = secret }
}

// WithRadio configures the simulated wireless medium's impairments.
func WithRadio(p RadioParams) Option {
	return func(cfg *core.Config) { cfg.Radio = p }
}

// WithPolicy selects the Resource Manager's conflict-mediation policy.
func WithPolicy(p Policy) Option {
	return func(cfg *core.Config) { cfg.Policy = p }
}

// WithAsyncDispatch switches consumer delivery to per-consumer bounded
// queues drained by worker goroutines (for real-time deployments where
// consumers may be slow).
func WithAsyncDispatch(queueCapacity int) Option {
	return func(cfg *core.Config) {
		cfg.Dispatch.Mode = dispatch.ModeAsync
		cfg.Dispatch.QueueCapacity = queueCapacity
	}
}

// WithShards partitions the data-plane per-stream state — the Stream
// Store's records, which hold each stream's duplicate/reorder window
// beside its retained history, and the Dispatching Service's subscription
// table — into n shards. Both key on the sensor component of the StreamID
// through one partition function (wire.SensorID.Shard), so a message takes
// one shard-local lock to be screened and retained and one to be
// dispatched, and traffic of different sensors never contends. n <= 0
// selects each layer's default; 1 restores the single shared tables. The
// return path (Resource Manager, Actuation Service) is not partitioned.
func WithShards(n int) Option {
	return func(cfg *core.Config) {
		cfg.Filter.Shards = n
		cfg.Store.Shards = n
		cfg.Dispatch.Shards = n
	}
}

// WithReorderWindow holds deliveries up to d and releases them in sequence
// order (bounded-latency ordering on top of duplicate elimination).
func WithReorderWindow(d time.Duration) Option {
	return func(cfg *core.Config) { cfg.Filter.ReorderWindow = d }
}

// WithStoreRetention bounds the Stream Store's per-stream retained
// history: at most maxMessages deliveries (<= 0 keeps the default, 256),
// at most maxBytes of payload (<= 0 unbounded) and nothing older than
// maxAge (<= 0 unbounded). Every accepted delivery tees into the store
// before dispatch, so these bounds are the memory-vs-catch-up trade-off
// for Replay, SubscribeWithReplay and the Orphanage backlog (see README,
// "Retention & replay tuning"). maxMessages is raised to at least the
// Orphanage's per-stream capacity so orphan claims always find their
// full backlog.
func WithStoreRetention(maxMessages int, maxBytes int64, maxAge time.Duration) Option {
	return func(cfg *core.Config) {
		cfg.Store.MaxMessages = maxMessages
		cfg.Store.MaxBytes = maxBytes
		cfg.Store.MaxAge = maxAge
	}
}

// WithStoreCompression enables the Stream Store's sealed history:
// deliveries pushed out of the hot ring by the WithStoreRetention bounds
// are sealed into immutable compressed blocks instead of being dropped,
// and Replay, SubscribeWithReplay, Range and the Orphanage backlog read
// them back transparently. codec selects the block codec — "auto" picks
// per block ("gorilla" for fixed 64-bit numeric series, "rle" for
// repetitive payloads, "lz" for general bytes, "raw" to store
// uncompressed); naming one pins it. coldBudget bounds the compressed
// bytes kept in memory per stream (<= 0 keeps the default, 64 KiB) only
// when no archive is attached: the oldest blocks are dropped past it and
// the newest always survives. With WithArchive every sealed block goes to
// the archive and the budget holds nothing back. New panics on an
// unknown codec name, like a malformed retention bound would — a typo
// here must not silently turn history off. See README, "Running at
// scale".
func WithStoreCompression(codec string, coldBudget int64) Option {
	return func(cfg *core.Config) {
		cfg.Store.Codec = codec
		cfg.Store.ColdBudget = coldBudget
	}
}

// ArchiveBackend is the durable block store the Stream Store's archive
// tier spills to; see the archive package for the contract. Use
// NewFSArchive for the filesystem reference implementation or
// NewMemArchive for a volatile one.
type ArchiveBackend = archive.Backend

// NewFSArchive opens (or creates) a filesystem archive backend rooted at
// dir: per-shard append-only segment files carrying the store's
// compressed block wire format, indexed by a CRC-framed manifest that
// recovery replays to the last complete record — a torn tail truncates,
// it never corrupts. The same directory re-opened by a restarted
// deployment serves the history archived before the crash.
func NewFSArchive(dir string) (ArchiveBackend, error) {
	return archive.OpenFS(dir)
}

// NewMemArchive returns an in-memory archive backend: the full Backend
// contract with no durability, for tests and experiments. Sharing one
// across two deployments stands in for a restart.
func NewMemArchive() ArchiveBackend {
	return archive.NewMem()
}

// WithArchive attaches a durable archive tier to the Stream Store: every
// compressed block the store seals is spilled to the backend by an async
// per-shard archiver, staying in memory only until the backend has filed
// it, so WithStoreCompression's cold budget no longer bounds what is
// kept. Range, Replay, SubscribeWithReplay and the window queries stitch
// archive → sealed → hot → live transparently. Implies
// WithStoreCompression("auto", default budget) when no codec was chosen —
// the archive files sealed blocks, so sealing must be on. On
// construction the store recovers the backend's manifest and serves
// archived history for streams it has never seen live. See the store
// package comment, "Sealed history".
func WithArchive(b ArchiveBackend) Option {
	return func(cfg *core.Config) {
		cfg.Store.Archive = b
	}
}

// WithArchiveRetention bounds the archive tier per stream: blocks whose
// newest entry is older than maxAge relative to the newest archived
// entry, or beyond maxBytes of encoded bytes, are deleted oldest-first
// at spill commit (Stats.EvictedArchive). Zero disables a bound; the
// newest archived block always survives.
func WithArchiveRetention(maxAge time.Duration, maxBytes int64) Option {
	return func(cfg *core.Config) {
		cfg.Store.ArchiveMaxAge = maxAge
		cfg.Store.ArchiveMaxBytes = maxBytes
	}
}

// WithActuationRetry tunes the Actuation Service's retry loop.
func WithActuationRetry(interval time.Duration, maxAttempts int) Option {
	return func(cfg *core.Config) {
		cfg.Actuation.RetryInterval = interval
		cfg.Actuation.MaxAttempts = maxAttempts
	}
}

// WithLocationPublishing publishes location estimates as data streams on
// the reserved index at the given period.
func WithLocationPublishing(period time.Duration) Option {
	return func(cfg *core.Config) { cfg.LocationPublishPeriod = period }
}

// WithPredictiveCoordination turns on the Super Coordinator's predictive
// policy: the demands of a consumer's anticipated next state are pre-armed
// `horizon` before the expected transition, once predictions reach
// minConfidence.
func WithPredictiveCoordination(horizon time.Duration, minConfidence float64) Option {
	return func(cfg *core.Config) {
		cfg.Coordinator = coordinator.Options{
			Mode:          coordinator.ModePredictive,
			Horizon:       horizon,
			MinConfidence: minConfidence,
		}
	}
}

// WithCensusPolicy lets the Super Coordinator switch the Resource
// Manager's mediation policy based on the global consumer-state census —
// §4.2: “the Super Coordinator may invoke policy changes in the strategy
// used by the Resource Manager.” selector is called after every state
// report; returning 0 keeps the current policy.
func WithCensusPolicy(selector func(census map[string]int) Policy) Option {
	return func(cfg *core.Config) { cfg.Coordinator.PolicySelector = selector }
}

// WithFloodingReplicator disables location-targeted actuation: every
// control message is broadcast by every transmitter (the location-neutral
// baseline).
func WithFloodingReplicator() Option {
	return func(cfg *core.Config) { cfg.Replicator.Targeted = false }
}

// WithTargetedReplicator enables location-targeted actuation (the default
// behaviour). A located sensor is paged from the one transmitter whose
// coverage contains the receiver zone it was last heard best in; margin
// inflates only the fall-back used when no transmitter contains that zone
// — every transmitter intersecting the estimate's uncertainty disc, scaled
// by margin (0 keeps the default 1.5).
func WithTargetedReplicator(margin float64) Option {
	return func(cfg *core.Config) {
		cfg.Replicator.Targeted = true
		cfg.Replicator.Margin = margin
	}
}

// Deployment is a running Garnet middleware instance together with its
// (simulated) sensor field. Create one with New, populate it with
// receivers, transmitters and sensors, then Start it.
type Deployment struct {
	core *core.Deployment
}

// New assembles a Deployment. A secret must be provided via WithSecret.
func New(opts ...Option) *Deployment {
	var cfg core.Config
	cfg.Replicator.Targeted = true // location-targeted actuation by default
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Deployment{core: core.New(cfg)}
}

// Start brings the deployment up. Idempotent.
func (g *Deployment) Start() { g.core.Start() }

// Stop shuts the deployment down, draining queues. Idempotent.
func (g *Deployment) Stop() { g.core.Stop() }

// Clock returns the deployment clock.
func (g *Deployment) Clock() Clock { return g.core.Clock() }

// AddReceiver places a receiver (operator-level; no token required).
func (g *Deployment) AddReceiver(cfg ReceiverConfig) { g.core.AddReceiver(cfg) }

// AddTransmitter places a transmitter.
func (g *Deployment) AddTransmitter(cfg TransmitterConfig) { g.core.AddTransmitter(cfg) }

// AddSensor adds a sensor node to the simulated field.
func (g *Deployment) AddSensor(cfg SensorConfig) (*SensorNode, error) {
	return g.core.AddSensor(cfg)
}

// SetConstraints codifies a sensor's operating limits (see
// ParseConstraints for the textual form).
func (g *Deployment) SetConstraints(id SensorID, c Constraints) {
	g.core.ResourceManager().SetConstraints(id, c)
}

// SetDefaultConstraints applies limits to all sensors without specific
// constraints.
func (g *Deployment) SetDefaultConstraints(c Constraints) {
	g.core.ResourceManager().SetDefaultConstraints(c)
}

// Register creates a consumer identity with the given permissions and
// returns its bearer token.
func (g *Deployment) Register(name string, perms Permission) (Token, error) {
	return g.core.Registry().Register(name, perms)
}

// Revoke invalidates a consumer's tokens.
func (g *Deployment) Revoke(name string) bool { return g.core.Registry().Revoke(name) }

// Subscribe attaches consumer c to the streams matching pattern. It
// requires PermSubscribe; patterns that can select the protected location
// streams additionally require PermLocation — broad (All/Where) patterns
// from consumers without it are transparently narrowed to exclude
// location streams.
func (g *Deployment) Subscribe(tok Token, pattern Pattern, c Consumer) (SubscriptionID, error) {
	id, err := g.core.Registry().Require(tok, registry.PermSubscribe)
	if err != nil {
		return 0, err
	}
	hasLoc := id.Permissions.Has(registry.PermLocation)
	switch pattern.Kind {
	case dispatch.KindExact:
		if pattern.Stream.Index() == wire.LocationStreamIndex && !hasLoc {
			return 0, fmt.Errorf("%w: %q lacks location", registry.ErrPermission, id.Name)
		}
	case dispatch.KindSensor:
		if !hasLoc {
			// Narrow to the sensor's ordinary streams.
			sensorID := pattern.Sensor
			pattern = dispatch.Where(func(m wire.Message) bool {
				return m.Stream.Sensor() == sensorID && m.Stream.Index() != wire.LocationStreamIndex
			})
		}
	case dispatch.KindAll:
		if !hasLoc {
			pattern = dispatch.Where(func(m wire.Message) bool {
				return m.Stream.Index() != wire.LocationStreamIndex
			})
		}
	case dispatch.KindWhere:
		if !hasLoc {
			inner := pattern.Where
			pattern = dispatch.Where(func(m wire.Message) bool {
				return m.Stream.Index() != wire.LocationStreamIndex && inner(m)
			})
		}
	}
	return g.core.Dispatcher().Subscribe(c, pattern)
}

// Unsubscribe removes a subscription.
func (g *Deployment) Unsubscribe(id SubscriptionID) bool {
	return g.core.Dispatcher().Unsubscribe(id)
}

// Discover lists the streams the middleware has seen (PermSubscribe).
// Location streams are listed only to consumers holding PermLocation.
func (g *Deployment) Discover(tok Token) ([]StreamInfo, error) {
	id, err := g.core.Registry().Require(tok, registry.PermSubscribe)
	if err != nil {
		return nil, err
	}
	infos := g.core.Discover()
	if !id.Permissions.Has(registry.PermLocation) {
		infos = slices.DeleteFunc(infos, func(i StreamInfo) bool { return i.Stream.Index() == wire.LocationStreamIndex })
	}
	return infos, nil
}

// Orphans lists the unclaimed streams held by the Orphanage
// (PermSubscribe). Location streams are listed only to consumers holding
// PermLocation.
func (g *Deployment) Orphans(tok Token) ([]OrphanInfo, error) {
	id, err := g.core.Registry().Require(tok, registry.PermSubscribe)
	if err != nil {
		return nil, err
	}
	infos := g.core.Orphanage().Streams()
	if !id.Permissions.Has(registry.PermLocation) {
		infos = slices.DeleteFunc(infos, func(i OrphanInfo) bool { return i.Stream.Index() == wire.LocationStreamIndex })
	}
	return infos, nil
}

// Claim atomically hands over the Orphanage backlog of an unclaimed
// stream to a late subscriber (PermSubscribe, plus PermLocation for a
// location stream). A refused claim leaves the backlog held.
func (g *Deployment) Claim(tok Token, stream StreamID) ([]Delivery, error) {
	if err := g.requireStream(tok, stream); err != nil {
		return nil, err
	}
	backlog, _ := g.core.Orphanage().Claim(stream)
	return backlog, nil
}

// requireStream checks PermSubscribe plus, for the protected location
// stream, PermLocation.
func (g *Deployment) requireStream(tok Token, stream StreamID) error {
	if _, err := g.core.Registry().Require(tok, registry.PermSubscribe); err != nil {
		return err
	}
	if stream.Index() == wire.LocationStreamIndex {
		if _, err := g.core.Registry().Require(tok, registry.PermLocation); err != nil {
			return err
		}
	}
	return nil
}

// SubscribeWithReplay subscribes c to a single stream and replays the
// Stream Store's retained history from store sequence fromSeq onwards
// (oldest first, fromSeq 0 meaning everything retained) before live
// delivery begins. Catch-up is routed through the consumer's dispatch
// port — live deliveries that race the subscription queue up behind the
// replayed history and duplicates are screened out by store sequence —
// so replayed and live messages can never invert or repeat, even under
// an asynchronous dispatcher. It returns the subscription id and how
// many messages were replayed.
func (g *Deployment) SubscribeWithReplay(tok Token, stream StreamID, fromSeq uint64, c Consumer) (SubscriptionID, int, error) {
	if err := g.requireStream(tok, stream); err != nil {
		return 0, 0, err
	}
	return g.core.SubscribeWithReplay(c, stream, fromSeq)
}

// SubscribeWithBacklog subscribes c to a single stream and, when the
// Orphanage holds a backlog for it, replays the buffered messages into c
// (oldest first) before live delivery begins — the complete late-subscriber
// handover in one call. It returns the subscription id and how many
// backlog messages were replayed.
//
// It is a thin wrapper over SubscribeWithReplay: claiming the orphan
// backlog is a store-cursor hand-off and the replay flows through the
// consumer's dispatch port, so — unlike the historical implementation —
// backlog and live delivery cannot interleave out of order under an
// asynchronous dispatcher.
func (g *Deployment) SubscribeWithBacklog(tok Token, stream StreamID, c Consumer) (SubscriptionID, int, error) {
	if err := g.requireStream(tok, stream); err != nil {
		return 0, 0, err
	}
	// Peek first, claim only after the subscription succeeded: a failed
	// subscribe (nil consumer, stopped dispatcher) must not destroy the
	// orphan backlog.
	from, _, _, held := g.core.Orphanage().PeekCursor(stream)
	if !held {
		// No orphan backlog: replay nothing, but still subscribe through
		// the catch-up gate so nothing slips between the two.
		last, _ := g.core.Store().LastSeq(stream)
		from = last + 1
	}
	id, n, err := g.core.SubscribeWithReplay(c, stream, from)
	if err == nil && held {
		g.core.Orphanage().ClaimCursor(stream)
	}
	return id, n, err
}

// Replay returns copies of the Stream Store's retained deliveries for
// stream with store sequences in [fromSeq, toSeq], oldest first
// (PermSubscribe; the location stream additionally needs PermLocation).
// Store sequences are the 64-bit extended addresses stamped on
// Delivery.StoreSeq — fromSeq 0 and toSeq ^uint64(0) select everything
// retained. The result is the caller's to keep or change; its payloads
// share one allocation made for this call, so copy out a payload that
// should outlive the rest.
func (g *Deployment) Replay(tok Token, stream StreamID, fromSeq, toSeq uint64) ([]Delivery, error) {
	if err := g.requireStream(tok, stream); err != nil {
		return nil, err
	}
	return g.core.Store().Range(stream, fromSeq, toSeq), nil
}

// LatestValue returns the newest retained delivery of a stream — the
// last-value cache a dashboard primes from (PermSubscribe; the location
// stream additionally needs PermLocation). ok is false when nothing is
// retained.
func (g *Deployment) LatestValue(tok Token, stream StreamID) (Delivery, bool, error) {
	if err := g.requireStream(tok, stream); err != nil {
		return Delivery{}, false, err
	}
	d, ok := g.core.Store().Latest(stream)
	return d, ok, nil
}

// Actuate submits a stream-setting demand through admission control
// (PermActuate) and, when the effective sensor configuration changes,
// issues the stream-update request down the actuation path. The demand's
// Consumer field is overwritten with the token's identity.
func (g *Deployment) Actuate(tok Token, d Demand) (Decision, error) {
	id, err := g.core.Registry().Require(tok, registry.PermActuate)
	if err != nil {
		return Decision{}, err
	}
	d.Consumer = id.Name
	return g.core.SubmitDemand(d)
}

// WithdrawDemand removes the caller's standing demand on (target, class),
// actuating any relaxation (PermActuate).
func (g *Deployment) WithdrawDemand(tok Token, target StreamID, class DemandClass) (Decision, bool, error) {
	id, err := g.core.Registry().Require(tok, registry.PermActuate)
	if err != nil {
		return Decision{}, false, err
	}
	dec, ok := g.core.WithdrawDemand(id.Name, target, class)
	return dec, ok, nil
}

// Ping probes a sensor's reachability (PermActuate): it bypasses demand
// mediation (a ping changes nothing) and reports asynchronously whether
// the sensor acknowledged.
func (g *Deployment) Ping(tok Token, target StreamID, done func(acked bool)) error {
	id, err := g.core.Registry().Require(tok, registry.PermActuate)
	if err != nil {
		return err
	}
	var cb func(actuation.Result)
	if done != nil {
		cb = func(r actuation.Result) { done(r.Outcome == actuation.OutcomeAcked) }
	}
	_, err = g.core.ActuationService().Issue(actuation.Request{
		Target: target, Op: wire.OpPing, Consumer: id.Name,
	}, cb)
	return err
}

// Hint supplies a consumer-derived location hint (PermHint).
func (g *Deployment) Hint(tok Token, sensorID SensorID, pos Point, confidence float64, ttl time.Duration) error {
	id, err := g.core.Registry().Require(tok, registry.PermHint)
	if err != nil {
		return err
	}
	return g.core.Location().AddHint(sensorID, pos, confidence, ttl, id.Name)
}

// Locate returns the Location Service's estimate for a sensor
// (PermLocation).
func (g *Deployment) Locate(tok Token, sensorID SensorID) (Estimate, error) {
	if _, err := g.core.Registry().Require(tok, registry.PermLocation); err != nil {
		return Estimate{}, err
	}
	return g.core.Location().Locate(sensorID)
}

// RegisterStateModel teaches the Super Coordinator the caller's state
// machine and the demands each state implies (PermTrusted).
func (g *Deployment) RegisterStateModel(tok Token, demandsByState map[string][]Demand) error {
	id, err := g.core.Registry().Require(tok, registry.PermTrusted)
	if err != nil {
		return err
	}
	return g.core.Coordinator().Register(id.Name, demandsByState)
}

// ReportState forwards a trusted consumer's state change to the Super
// Coordinator (PermTrusted), which applies (or has pre-armed) the state's
// demands.
func (g *Deployment) ReportState(tok Token, state string) error {
	id, err := g.core.Registry().Require(tok, registry.PermTrusted)
	if err != nil {
		return err
	}
	return g.core.Coordinator().ReportState(id.Name, state)
}

// PredictNext exposes the Super Coordinator's prediction for the caller's
// next state change (PermTrusted).
func (g *Deployment) PredictNext(tok Token) (Prediction, bool, error) {
	id, err := g.core.Registry().Require(tok, registry.PermTrusted)
	if err != nil {
		return Prediction{}, false, err
	}
	p, ok := g.core.Coordinator().PredictNext(id.Name)
	return p, ok, nil
}

// NewDerivedStream allocates a virtual sensor id and returns a publisher
// for a derived stream on it (PermSubscribe — every consumer may derive).
// The derived stream flows through the same dispatching, discovery and
// orphanage machinery as physical streams.
func (g *Deployment) NewDerivedStream(tok Token, index StreamIndex, flags Flags) (*DerivedStream, error) {
	if _, err := g.core.Registry().Require(tok, registry.PermSubscribe); err != nil {
		return nil, err
	}
	vid := g.core.AllocateVirtualSensor()
	return consumer.NewDerivedStream(g.core, wire.MustStreamID(vid, index), flags), nil
}

// Stats aggregates every service's statistics.
func (g *Deployment) Stats() Snapshot { return g.core.Stats() }

// Core exposes the underlying assembly for advanced integrations and the
// experiment harness.
func (g *Deployment) Core() *core.Deployment { return g.core }

// Ensure interface satisfaction where the facade promises it.
var (
	_ consumer.Publisher = (*core.Deployment)(nil)
	_ dispatch.Consumer  = (*consumer.Recorder)(nil)
	_ sensor.Sampler     = Sampler(nil)
	_                    = filtering.DefaultWindowSize
	_                    = receiver.Config{}
	_                    = transmit.Config{}
	_                    = resource.Demand{}
)
