// Package sensor implements the sensor/actuator nodes of the paper's §4.2:
// mobile devices that periodically sample their internal data streams and
// transmit Garnet data messages over the wireless uplink. Two classes
// coexist, exactly as the design requires (§5 “simplicity of sensor
// requirements”):
//
//   - simple, transmit-only nodes that never listen to the downlink, and
//   - sophisticated, receive-capable nodes that accept stream-update
//     requests (set rate, enable/disable stream, payload limit, device
//     parameter, ping) and acknowledge them by piggy-backing the update id
//     on their next data message (FlagUpdateAck, §4.3).
//
// Nodes carry an energy model (per-transmission, per-byte and per-sample
// costs) and an optional battery so the energy experiments (E4, E12) can
// compare middleware policies by their effect on the field's lifetime.
//
// Every receive-capable node in range hears every control frame, and only
// the addressee acts on it. What overhearing costs follows one rule: a
// node that pays to listen (EnergyParams.RxPerByte > 0) is handed every
// downlink frame in range and charged for all of its bytes, its own or
// not, so its energy and battery death count what it overhears. A node
// that listens for free declares its id to the medium as an address filter
// (radio.Listener.FiltersByAddr), as an 802.15.4-class radio filters in
// hardware, and is woken only by frames addressed to it: a foreign frame
// would cost it nothing and change nothing.
package sensor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Capability is the bit set of optional behaviours a node supports.
type Capability uint8

const (
	// CapReceive marks a sophisticated send-receive node that listens on
	// the downlink and applies stream-update requests.
	CapReceive Capability = 1 << iota
	// CapLocationAware marks a node that knows its own position; its data
	// messages carry wire.FlagLocationAware so consumers can choose to
	// supply location hints derived from its payloads.
	CapLocationAware
)

// Has reports whether every capability in q is present.
func (c Capability) Has(q Capability) bool { return c&q == q }

// Sampler produces the opaque payload for one data message of a stream.
type Sampler func(now time.Time, seq wire.Seq) []byte

// StreamConfig configures one of a node's (up to 256) internal streams.
type StreamConfig struct {
	Index        wire.StreamIndex
	Sampler      Sampler
	Period       time.Duration // sampling period; must be > 0
	Enabled      bool          // transmit from the start
	PayloadLimit int           // truncate payloads to this many bytes; 0 = wire.MaxPayload
	// Encrypted marks the stream's payloads as end-to-end sealed (the
	// sampler must produce sealed bytes, e.g. security.EncryptingSampler);
	// messages carry wire.FlagEncrypted. Note that payload-limit
	// truncation destroys sealed payloads, so constrain the plaintext
	// instead when combining the two.
	Encrypted bool
}

// EnergyParams models node energy costs in millijoules. Zero values make
// the node energy-free (useful in functional tests).
type EnergyParams struct {
	TxBase    float64 // cost to key the radio for one transmission
	TxPerByte float64 // marginal cost per transmitted byte
	RxPerByte float64 // cost per received downlink byte
	PerSample float64 // cost of taking one sample
}

// RelayConfig configures the §8 multi-hop extension: a relaying node
// re-broadcasts overheard uplink frames — tagged wire.FlagRelayed with an
// incremented hop count, exactly the header tagging §8 describes — so
// sensors outside every reception zone still reach the fixed network
// through neighbours. A bounded seen-cache and the hop limit prevent
// relay storms.
type RelayConfig struct {
	Enabled bool
	// MaxHops bounds how many relay hops a frame may accumulate
	// (default 3).
	MaxHops uint8
	// ListenRadius is the overhearing radius (default TxRange).
	ListenRadius float64
}

// Config configures a Node.
type Config struct {
	ID           wire.SensorID
	Capabilities Capability
	Mobility     field.Mobility
	TxRange      float64 // uplink transmission range, metres
	RxRadius     float64 // downlink listening radius; defaults to TxRange
	Streams      []StreamConfig
	Energy       EnergyParams
	Battery      float64 // millijoules; 0 = unlimited
	Relay        RelayConfig
}

// Stats is a snapshot of a node's activity counters.
type Stats struct {
	MessagesSent     int64
	BytesSent        int64
	SamplesTaken     int64
	ControlsReceived int64 // downlink frames addressed to this node and decoded
	ControlsApplied  int64
	ControlsIgnored  int64 // addressed here but not applicable (unknown stream, bad value)
	AcksSent         int64
	FramesRelayed    int64   // §8 multi-hop: overheard frames re-broadcast
	RelayDropsHops   int64   // frames not relayed: hop limit reached
	RelayDropsSeen   int64   // frames not relayed: already relayed recently
	EnergyUsed       float64 // millijoules
	Alive            bool
}

type streamState struct {
	cfg     StreamConfig
	seq     wire.Seq
	period  time.Duration
	limit   int
	enabled bool
	ticker  *sim.Ticker
	// lastSet holds, per mediated setting (rate, enable, payload), the
	// issue timestamp of the last applied control message. The downlink
	// has no ordering guarantee — jitter can reorder transmissions, and a
	// retry of a superseded request can reach the air after its
	// replacement — so the device applies settings in issue order, not
	// arrival order: anything older than the last applied is ignored.
	lastSet [3]time.Time
}

// Node is one simulated sensor/actuator.
type Node struct {
	cfg    Config
	clock  sim.Clock
	medium *radio.Medium

	posMu sync.Mutex // guards Mobility (stateful models are not self-synchronised)
	// Same-instant position memo: the medium polls every mobile
	// listener's position once per broadcast on its band, and a node may
	// listen twice (downlink + relay). Mobility models are deterministic
	// per query time, so repeated queries at one simulated instant reuse
	// the last answer instead of re-running the model.
	posCachedAt   time.Time
	posCached     geo.Point
	posCacheValid bool

	mu          sync.Mutex
	streams     map[wire.StreamIndex]*streamState
	pendingAcks []uint16
	params      map[uint8]uint32
	energyUsed  float64
	dead        bool
	started     bool
	detach      func()
	detachRelay func()

	// Relay seen-cache: FIFO over (stream, seq) keys.
	relaySeen  map[uint64]struct{}
	relayOrder []uint64

	msgsSent     metrics.Counter
	bytesSent    metrics.Counter
	samples      metrics.Counter
	ctrlReceived metrics.Counter
	ctrlApplied  metrics.Counter
	ctrlIgnored  metrics.Counter
	acksSent     metrics.Counter
	relayed      metrics.Counter
	relayHops    metrics.Counter
	relayDup     metrics.Counter
}

// Validation errors returned by New.
var (
	ErrNoMobility  = errors.New("sensor: config needs a Mobility")
	ErrBadStream   = errors.New("sensor: invalid stream config")
	ErrDuplicateIx = errors.New("sensor: duplicate stream index")
)

// New validates cfg and creates a stopped Node. Call Start to bring it up.
func New(clock sim.Clock, medium *radio.Medium, cfg Config) (*Node, error) {
	if cfg.ID > wire.MaxSensorID {
		return nil, fmt.Errorf("sensor %d: %w", cfg.ID, wire.ErrSensorRange)
	}
	if cfg.Mobility == nil {
		return nil, ErrNoMobility
	}
	if cfg.TxRange <= 0 {
		return nil, fmt.Errorf("%w: TxRange must be positive", ErrBadStream)
	}
	if cfg.RxRadius == 0 {
		cfg.RxRadius = cfg.TxRange
	}
	if cfg.Relay.MaxHops == 0 {
		cfg.Relay.MaxHops = 3
	}
	if cfg.Relay.ListenRadius == 0 {
		cfg.Relay.ListenRadius = cfg.TxRange
	}
	n := &Node{
		cfg:       cfg,
		clock:     clock,
		medium:    medium,
		streams:   make(map[wire.StreamIndex]*streamState, len(cfg.Streams)),
		params:    make(map[uint8]uint32),
		relaySeen: make(map[uint64]struct{}),
	}
	for _, sc := range cfg.Streams {
		if sc.Period <= 0 {
			return nil, fmt.Errorf("%w: stream %d period %v", ErrBadStream, sc.Index, sc.Period)
		}
		if sc.Sampler == nil {
			return nil, fmt.Errorf("%w: stream %d has no sampler", ErrBadStream, sc.Index)
		}
		if _, dup := n.streams[sc.Index]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateIx, sc.Index)
		}
		limit := sc.PayloadLimit
		if limit <= 0 || limit > wire.MaxPayload {
			limit = wire.MaxPayload
		}
		n.streams[sc.Index] = &streamState{cfg: sc, period: sc.Period, limit: limit, enabled: sc.Enabled}
	}
	return n, nil
}

// ID returns the node's sensor id.
func (n *Node) ID() wire.SensorID { return n.cfg.ID }

// Capabilities returns the node's capability set.
func (n *Node) Capabilities() Capability { return n.cfg.Capabilities }

// Position returns the node's current ground-truth position. A
// field.Static node is where its configuration put it whatever the time,
// so it is answered without reading the clock or taking posMu.
func (n *Node) Position() geo.Point {
	if s, ok := n.cfg.Mobility.(field.Static); ok {
		return s.P
	}
	now := n.clock.Now()
	n.posMu.Lock()
	defer n.posMu.Unlock()
	if n.posCacheValid && now.Equal(n.posCachedAt) {
		return n.posCached
	}
	p := n.cfg.Mobility.Position(now)
	n.posCachedAt, n.posCached, n.posCacheValid = now, p, true
	return p
}

// Start brings the node up: sampling tickers for enabled streams and, for
// receive-capable nodes, a downlink listener. Start is idempotent.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || n.dead {
		n.mu.Unlock()
		return
	}
	n.started = true
	for _, st := range n.streams {
		if st.enabled {
			n.armTickerLocked(st)
		}
	}
	n.mu.Unlock()

	// A sensor whose mobility model is field.Static cannot move — the
	// type says so — and attaches Static: the medium indexes it once and
	// never reads its Position again. Any other model stays non-Static:
	// the medium re-reads Position on every broadcast on the band and
	// lazily re-buckets the node in its spatial index when it has roamed
	// into another grid cell.
	_, static := n.cfg.Mobility.(field.Static)
	if n.cfg.Capabilities.Has(CapReceive) {
		n.detach = n.medium.Attach(radio.BandDownlink, &radio.Listener{
			Name:     fmt.Sprintf("sensor/%d", n.cfg.ID),
			Position: n.Position,
			Radius:   n.cfg.RxRadius,
			Deliver:  n.onDownlink,
			Static:   static,
			Borrows:  true, // DecodeControl copies every field out of the frame
			Addr:     uint32(n.cfg.ID),
			// A foreign frame is free to ignore only if listening is free.
			FiltersByAddr: n.cfg.Energy.RxPerByte == 0,
		})
	}
	if n.cfg.Relay.Enabled {
		n.detachRelay = n.medium.Attach(radio.BandUplink, &radio.Listener{
			Name:     fmt.Sprintf("relay/%d", n.cfg.ID),
			Position: n.Position,
			Radius:   n.cfg.Relay.ListenRadius,
			Deliver:  n.onOverheard,
			Static:   static,
			Borrows:  true, // DecodeMessage copies the payload; the relay re-encodes what it sends
		})
	}
}

// Stop halts sampling and detaches from the medium. Stop is idempotent.
func (n *Node) Stop() {
	n.mu.Lock()
	n.started = false
	for _, st := range n.streams {
		if st.ticker != nil {
			st.ticker.Stop()
			st.ticker = nil
		}
	}
	detach := n.detach
	n.detach = nil
	detachRelay := n.detachRelay
	n.detachRelay = nil
	n.mu.Unlock()
	if detach != nil {
		detach()
	}
	if detachRelay != nil {
		detachRelay()
	}
}

func (n *Node) armTickerLocked(st *streamState) {
	index := st.cfg.Index
	st.ticker = sim.NewTicker(n.clock, st.period, func(now time.Time) {
		n.transmit(index, now)
	})
}

// TriggerSample forces one immediate sample+transmit on the given stream,
// independent of its ticker. It is used by tests and by event-driven
// samplers.
func (n *Node) TriggerSample(index wire.StreamIndex) error {
	n.mu.Lock()
	_, ok := n.streams[index]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: no stream %d", ErrBadStream, index)
	}
	n.transmit(index, n.clock.Now())
	return nil
}

func (n *Node) transmit(index wire.StreamIndex, now time.Time) {
	n.mu.Lock()
	st, ok := n.streams[index]
	if !ok || n.dead || !n.started {
		n.mu.Unlock()
		return
	}
	seq := st.seq
	st.seq = st.seq.Next()

	payload := st.cfg.Sampler(now, seq)
	n.samples.Inc()
	if len(payload) > st.limit {
		payload = payload[:st.limit]
	}

	msg := wire.Message{
		Stream:  wire.MustStreamID(n.cfg.ID, index),
		Seq:     seq,
		Payload: payload,
	}
	if n.cfg.Capabilities.Has(CapLocationAware) {
		msg.Flags |= wire.FlagLocationAware
	}
	if st.cfg.Encrypted {
		msg.Flags |= wire.FlagEncrypted
	}
	ackPiggybacked := false
	if len(n.pendingAcks) > 0 {
		msg.Flags |= wire.FlagUpdateAck
		msg.AckID = n.pendingAcks[0]
		n.pendingAcks = n.pendingAcks[1:]
		ackPiggybacked = true
	}

	frame, err := msg.Encode()
	if err != nil {
		// Sampler produced an impossible payload; drop the message but keep
		// the node alive (a real node would clamp similarly).
		n.mu.Unlock()
		return
	}

	cost := n.cfg.Energy.PerSample + n.cfg.Energy.TxBase + n.cfg.Energy.TxPerByte*float64(len(frame))
	if n.cfg.Battery > 0 && n.energyUsed+cost > n.cfg.Battery {
		n.dieLocked()
		n.mu.Unlock()
		return
	}
	n.energyUsed += cost
	n.msgsSent.Inc()
	n.bytesSent.Add(int64(len(frame)))
	if ackPiggybacked {
		n.acksSent.Inc()
	}
	n.mu.Unlock()

	n.medium.Broadcast(radio.BandUplink, n.Position(), n.cfg.TxRange, frame)
}

func (n *Node) dieLocked() {
	n.dead = true
	for _, st := range n.streams {
		if st.ticker != nil {
			st.ticker.Stop()
			st.ticker = nil
		}
	}
}

// onDownlink processes a control frame heard on the downlink band.
func (n *Node) onDownlink(f radio.Frame) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead || !n.started {
		return
	}
	// Listening costs energy whether or not the frame is ours.
	rxCost := n.cfg.Energy.RxPerByte * float64(len(f.Data))
	if n.cfg.Battery > 0 && n.energyUsed+rxCost > n.cfg.Battery {
		n.dieLocked()
		return
	}
	n.energyUsed += rxCost

	// A sensor that pays to listen is handed every control frame in range
	// and all but one are foreign: read the address first and spend the
	// checksum only on a frame that claims to be ours.
	if target, ok := wire.ControlTarget(f.Data); !ok || target.Sensor() != n.cfg.ID {
		return // truncated, or addressed to another sensor
	}
	ctrl, err := wire.DecodeControl(f.Data)
	if err != nil {
		return // corrupt or foreign frame
	}
	n.ctrlReceived.Inc()

	applied := n.applyLocked(ctrl)
	if applied {
		n.ctrlApplied.Inc()
		n.queueAckLocked(ctrl.UpdateID)
	} else {
		n.ctrlIgnored.Inc()
	}
}

// settingIdx maps a mediated operation to its streamState.lastSet slot;
// mediated is false for operations outside staleness ordering (ping,
// device params).
func settingIdx(op wire.Op) (idx int, mediated bool) {
	switch op {
	case wire.OpSetRate:
		return 0, true
	case wire.OpEnableStream, wire.OpDisableStream:
		return 1, true
	case wire.OpSetPayloadLimit:
		return 2, true
	default:
		return 0, false
	}
}

func (n *Node) applyLocked(ctrl wire.ControlMessage) bool {
	st, ok := n.streams[ctrl.Target.Index()]
	idx, mediated := settingIdx(ctrl.Op)
	if mediated && ok && ctrl.Issued.Before(st.lastSet[idx]) {
		// Stale by issue order: a newer setting for this slot has already
		// been applied. Ignored without an ack, so the middleware retires
		// the stale request through its own retry/expiry accounting.
		return false
	}
	applied := n.applyOpLocked(st, ok, ctrl)
	if applied && mediated {
		st.lastSet[idx] = ctrl.Issued
	}
	return applied
}

func (n *Node) applyOpLocked(st *streamState, ok bool, ctrl wire.ControlMessage) bool {
	switch ctrl.Op {
	case wire.OpPing:
		return true // reachability probe acks regardless of stream state
	case wire.OpSetParam:
		n.params[ctrl.Param] = ctrl.Value
		return true
	case wire.OpSetRate:
		if !ok || ctrl.Value == 0 {
			return false
		}
		period := time.Duration(float64(time.Second) * 1000.0 / float64(ctrl.Value))
		if period <= 0 {
			return false
		}
		st.period = period
		if st.ticker != nil {
			st.ticker.SetPeriod(period)
		}
		return true
	case wire.OpEnableStream:
		if !ok {
			return false
		}
		if !st.enabled {
			st.enabled = true
			if n.started && st.ticker == nil {
				n.armTickerLocked(st)
			}
		}
		return true
	case wire.OpDisableStream:
		if !ok {
			return false
		}
		if st.enabled {
			st.enabled = false
			if st.ticker != nil {
				st.ticker.Stop()
				st.ticker = nil
			}
		}
		return true
	case wire.OpSetPayloadLimit:
		if !ok || ctrl.Value == 0 {
			return false
		}
		limit := int(ctrl.Value)
		if limit > wire.MaxPayload {
			limit = wire.MaxPayload
		}
		st.limit = limit
		return true
	default:
		return false
	}
}

func (n *Node) queueAckLocked(updateID uint16) {
	for _, id := range n.pendingAcks {
		if id == updateID {
			return // already queued (duplicate delivery of a retried request)
		}
	}
	n.pendingAcks = append(n.pendingAcks, updateID)
}

// onOverheard handles an uplink frame overheard by a relaying node: it
// re-broadcasts foreign data messages with wire.FlagRelayed and an
// incremented hop count (§8), subject to the hop limit and a seen-cache
// that suppresses relay storms.
func (n *Node) onOverheard(f radio.Frame) {
	msg, _, err := wire.DecodeMessage(f.Data)
	if err != nil {
		return // corrupt or foreign-format frame
	}
	if msg.Stream.Sensor() == n.cfg.ID {
		return // never relay our own traffic (including our own relays' echoes)
	}
	hops := uint8(0)
	if msg.Flags.Has(wire.FlagRelayed) {
		hops = msg.HopCount
	}

	n.mu.Lock()
	if n.dead || !n.started {
		n.mu.Unlock()
		return
	}
	// Overhearing costs listening energy like any reception.
	rxCost := n.cfg.Energy.RxPerByte * float64(len(f.Data))
	if n.cfg.Battery > 0 && n.energyUsed+rxCost > n.cfg.Battery {
		n.dieLocked()
		n.mu.Unlock()
		return
	}
	n.energyUsed += rxCost

	if hops >= n.cfg.Relay.MaxHops {
		n.relayHops.Inc()
		n.mu.Unlock()
		return
	}
	key := uint64(msg.Stream)<<16 | uint64(msg.Seq)
	if _, dup := n.relaySeen[key]; dup {
		n.relayDup.Inc()
		n.mu.Unlock()
		return
	}
	const relayCacheSize = 512
	n.relaySeen[key] = struct{}{}
	n.relayOrder = append(n.relayOrder, key)
	if len(n.relayOrder) > relayCacheSize {
		delete(n.relaySeen, n.relayOrder[0])
		n.relayOrder = n.relayOrder[1:]
	}

	msg.Flags |= wire.FlagRelayed
	msg.HopCount = hops + 1
	frame, err := msg.Encode()
	if err != nil {
		n.mu.Unlock()
		return
	}
	txCost := n.cfg.Energy.TxBase + n.cfg.Energy.TxPerByte*float64(len(frame))
	if n.cfg.Battery > 0 && n.energyUsed+txCost > n.cfg.Battery {
		n.dieLocked()
		n.mu.Unlock()
		return
	}
	n.energyUsed += txCost
	n.relayed.Inc()
	n.bytesSent.Add(int64(len(frame)))
	n.mu.Unlock()

	n.medium.Broadcast(radio.BandUplink, n.Position(), n.cfg.TxRange, frame)
}

// Param returns the value of a device parameter set via OpSetParam.
func (n *Node) Param(key uint8) (uint32, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.params[key]
	return v, ok
}

// StreamPeriod returns the current sampling period of a stream.
func (n *Node) StreamPeriod(index wire.StreamIndex) (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.streams[index]
	if !ok {
		return 0, false
	}
	return st.period, true
}

// StreamEnabled reports whether a stream is currently transmitting.
func (n *Node) StreamEnabled(index wire.StreamIndex) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.streams[index]
	return ok && st.enabled
}

// EnergyUsed returns the total energy consumed so far, in millijoules.
func (n *Node) EnergyUsed() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.energyUsed
}

// Alive reports whether the node still has battery.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.dead
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	energy, dead := n.energyUsed, n.dead
	n.mu.Unlock()
	return Stats{
		MessagesSent:     n.msgsSent.Value(),
		BytesSent:        n.bytesSent.Value(),
		SamplesTaken:     n.samples.Value(),
		ControlsReceived: n.ctrlReceived.Value(),
		ControlsApplied:  n.ctrlApplied.Value(),
		ControlsIgnored:  n.ctrlIgnored.Value(),
		AcksSent:         n.acksSent.Value(),
		FramesRelayed:    n.relayed.Value(),
		RelayDropsHops:   n.relayHops.Value(),
		RelayDropsSeen:   n.relayDup.Value(),
		EnergyUsed:       energy,
		Alive:            !dead,
	}
}
