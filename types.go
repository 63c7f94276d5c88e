package garnet

import (
	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/coordinator"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/location"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/registry"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/security"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// This file re-exports the library's vocabulary so downstream users never
// import internal packages directly. Aliases are used (rather than wrapper
// types) so values flow between the facade and the component accessors
// without conversion.

// Identifiers and wire format (Figure 2).
type (
	// SensorID identifies a sensor node (24 bits).
	SensorID = wire.SensorID
	// StreamIndex selects one of a sensor's internal streams (8 bits).
	StreamIndex = wire.StreamIndex
	// StreamID is the composite 32-bit stream identifier.
	StreamID = wire.StreamID
	// Seq is the 16-bit message sequence number.
	Seq = wire.Seq
	// Message is a decoded Garnet data message.
	Message = wire.Message
	// Flags is the message header flag set.
	Flags = wire.Flags
	// ControlMessage is a downlink stream-update request.
	ControlMessage = wire.ControlMessage
	// Op is a stream-update operation.
	Op = wire.Op
)

// Wire format constants (the paper's §1 capacity claims).
const (
	MaxSensorID         = wire.MaxSensorID
	MaxStreamIndex      = wire.MaxStreamIndex
	SeqCount            = wire.SeqCount
	MaxPayload          = wire.MaxPayload
	LocationStreamIndex = wire.LocationStreamIndex
)

// Header flags.
const (
	FlagUpdateAck     = wire.FlagUpdateAck
	FlagRelayed       = wire.FlagRelayed
	FlagFused         = wire.FlagFused
	FlagEncrypted     = wire.FlagEncrypted
	FlagLocationAware = wire.FlagLocationAware
)

// Stream-update operations.
const (
	OpSetRate         = wire.OpSetRate
	OpEnableStream    = wire.OpEnableStream
	OpDisableStream   = wire.OpDisableStream
	OpSetPayloadLimit = wire.OpSetPayloadLimit
	OpSetParam        = wire.OpSetParam
	OpPing            = wire.OpPing
)

// Identifier helpers.
var (
	NewStreamID   = wire.NewStreamID
	MustStreamID  = wire.MustStreamID
	ParseStreamID = wire.ParseStreamID
)

// Geometry and field.
type (
	// Point is a position on the deployment plane, metres.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Mobility is a sensor movement model.
	Mobility = field.Mobility
	// Static is a motionless Mobility.
	Static = field.Static
	// Linear drifts at constant velocity (e.g. flow-borne sensors).
	Linear = field.Linear
	// Patrol loops over waypoints at constant speed.
	Patrol = field.Patrol
	// RandomWaypoint is the classic random-waypoint mobility model.
	RandomWaypoint = field.RandomWaypoint
)

// Geometry/field helpers.
var (
	Pt                = geo.Pt
	RectWH            = geo.RectWH
	GridPositions     = field.GridPositions
	RandomPositions   = field.RandomPositions
	NewRandomWaypoint = field.NewRandomWaypoint
)

// Clocks (the middleware is clock-agnostic; simulations use VirtualClock).
type (
	// Clock abstracts time.
	Clock = sim.Clock
	// RealClock is the wall clock.
	RealClock = sim.RealClock
	// VirtualClock is the deterministic simulation clock.
	VirtualClock = sim.VirtualClock
)

// NewVirtualClock creates a deterministic clock for simulations.
var NewVirtualClock = sim.NewVirtualClock

// Sensors.
type (
	// SensorConfig configures a sensor node.
	SensorConfig = sensor.Config
	// StreamConfig configures one internal stream of a node.
	StreamConfig = sensor.StreamConfig
	// Sampler produces stream payloads.
	Sampler = sensor.Sampler
	// EnergyParams models node energy costs.
	EnergyParams = sensor.EnergyParams
	// SensorNode is a simulated sensor/actuator.
	SensorNode = sensor.Node
	// Capability is a sensor capability set.
	Capability = sensor.Capability
	// RelayConfig enables §8 multi-hop relaying on a node.
	RelayConfig = sensor.RelayConfig
)

// Sensor capabilities.
const (
	CapReceive       = sensor.CapReceive
	CapLocationAware = sensor.CapLocationAware
)

// Sampler helpers and the scalar-reading payload convention.
var (
	ConstantSampler = sensor.ConstantSampler
	SizedSampler    = sensor.SizedSampler
	FloatSampler    = sensor.FloatSampler
	EncodeReading   = sensor.EncodeReading
	DecodeReading   = sensor.DecodeReading
)

// Fixed-network components.
type (
	// ReceiverConfig places one receiver.
	ReceiverConfig = receiver.Config
	// TransmitterConfig places one transmitter.
	TransmitterConfig = transmit.Config
	// RadioParams configures medium impairments (loss, jitter, corruption).
	RadioParams = radio.Params
)

// Subscriptions and delivery.
type (
	// Delivery is one reconstructed stream message.
	Delivery = filtering.Delivery
	// Consumer receives deliveries.
	Consumer = dispatch.Consumer
	// ConsumerFunc adapts a function to Consumer.
	ConsumerFunc = dispatch.ConsumerFunc
	// BatchConsumer receives coalesced delivery batches in async mode.
	BatchConsumer = dispatch.BatchConsumer
	// BatchConsumerFunc adapts a batch function to BatchConsumer.
	BatchConsumerFunc = dispatch.BatchConsumerFunc
	// Pattern selects streams for a subscription.
	Pattern = dispatch.Pattern
	// SubscriptionID identifies a subscription.
	SubscriptionID = dispatch.SubscriptionID
	// StreamInfo is a discovered stream.
	StreamInfo = core.StreamInfo
	// OrphanInfo describes an unclaimed stream held by the Orphanage.
	OrphanInfo = orphanage.Info
	// StoreStats is the Stream Store's aggregate snapshot (retention,
	// eviction and replay accounting; part of Snapshot).
	StoreStats = store.Stats
	// StoreStreamStats describes one stream's retained window.
	StoreStreamStats = store.StreamStats
)

// Subscription pattern helpers.
var (
	Exact    = dispatch.Exact
	BySensor = dispatch.BySensor
	All      = dispatch.All
	Where    = dispatch.Where
)

// Registry: identity, tokens and permissions.
type (
	// Token is a consumer bearer credential.
	Token = registry.Token
	// Permission is a consumer capability set.
	Permission = registry.Permission
	// Identity is a registered consumer.
	Identity = registry.Identity
)

// Permissions.
const (
	PermSubscribe = registry.PermSubscribe
	PermActuate   = registry.PermActuate
	PermHint      = registry.PermHint
	PermLocation  = registry.PermLocation
	PermTrusted   = registry.PermTrusted
)

// Resource management.
type (
	// Demand is a standing stream-setting request.
	Demand = resource.Demand
	// Decision is an admission-control outcome.
	Decision = resource.Decision
	// Constraints codifies sensor limits.
	Constraints = resource.Constraints
	// Policy selects the conflict-mediation policy.
	Policy = resource.Policy
	// DemandClass groups competing operations.
	DemandClass = resource.Class
	// Verdict classifies a Decision.
	Verdict = resource.Verdict
)

// Policies, classes and verdicts.
const (
	PolicyMostDemanding  = resource.PolicyMostDemanding
	PolicyLeastDemanding = resource.PolicyLeastDemanding
	PolicyPriority       = resource.PolicyPriority
	PolicyFirstComeDeny  = resource.PolicyFirstComeDeny

	ClassRate    = resource.ClassRate
	ClassEnable  = resource.ClassEnable
	ClassPayload = resource.ClassPayload

	VerdictApproved = resource.VerdictApproved
	VerdictModified = resource.VerdictModified
	VerdictDenied   = resource.VerdictDenied
)

// ParseConstraints parses the textual sensor-constraint language.
var ParseConstraints = resource.ParseConstraints

// Location.
type (
	// Estimate is the Location Service's belief about a sensor position.
	Estimate = location.Estimate
)

// DecodeEstimate parses a location-stream payload.
var DecodeEstimate = location.DecodeEstimate

// Actuation.
type (
	// ActuationResult reports how an issued request ended.
	ActuationResult = actuation.Result
	// ActuationOutcome is the terminal state of a request.
	ActuationOutcome = actuation.Outcome
)

// Actuation outcomes.
const (
	OutcomeAcked     = actuation.OutcomeAcked
	OutcomeExpired   = actuation.OutcomeExpired
	OutcomeCancelled = actuation.OutcomeCancelled
)

// Super Coordinator.
type (
	// CoordinatorMode selects reactive or predictive coordination.
	CoordinatorMode = coordinator.Mode
	// Prediction is an anticipated consumer state change.
	Prediction = coordinator.Prediction
)

// Coordination modes.
const (
	ModeReactive   = coordinator.ModeReactive
	ModePredictive = coordinator.ModePredictive
)

// Consumer framework.
type (
	// Recorder stores received deliveries.
	Recorder = consumer.Recorder
	// DerivedStream publishes a derived data stream.
	DerivedStream = consumer.DerivedStream
	// WindowAggregator folds reading windows into aggregates.
	WindowAggregator = consumer.WindowAggregator
	// ThresholdDetector fires events on threshold crossings.
	ThresholdDetector = consumer.ThresholdDetector
	// Event is a threshold crossing.
	Event = consumer.Event
	// Fusion merges the latest readings of several streams.
	Fusion = consumer.Fusion
	// AggregateKind selects a window aggregate.
	AggregateKind = consumer.AggregateKind
)

// Aggregates and the virtual (derived) sensor-id space.
const (
	AggregateMean = consumer.AggregateMean
	AggregateMin  = consumer.AggregateMin
	AggregateMax  = consumer.AggregateMax

	VirtualSensorBase = consumer.VirtualSensorBase
)

// Consumer helpers.
var (
	NewRecorder          = consumer.NewRecorder
	NewWindowAggregator  = consumer.NewWindowAggregator
	NewThresholdDetector = consumer.NewThresholdDetector
	NewFusion            = consumer.NewFusion
)

// End-to-end security.
type (
	// KeyStore holds per-stream payload keys.
	KeyStore = security.KeyStore
)

// Sealing helpers.
var (
	Seal              = security.Seal
	OpenPayload       = security.Open
	NewKeyStore       = security.NewKeyStore
	EncryptingSampler = security.EncryptingSampler
)

// Snapshot aggregates every service's statistics.
type Snapshot = core.Snapshot

// Errors surfaced through the facade.
var (
	ErrPermission    = registry.ErrPermission
	ErrBadToken      = registry.ErrBadToken
	ErrNameTaken     = registry.ErrNameTaken
	ErrUnknownSensor = location.ErrUnknownSensor
	ErrAuth          = security.ErrAuth
)
