// Package location implements the Location Service of §4.2: it “receives
// location information which is inferred by the Receivers”, merges it with
// location hints supplied by consumers processing location-aware streams,
// and answers the Message Replicator's queries when control messages must
// be targeted at a sensor's expected location area.
//
// Per §5, location is inferred “without the active involvement of the
// sensors”: the only inputs are which receivers heard a sensor and how
// strongly (an RSSI-weighted centroid of receiver positions), plus
// consumer hints with explicit confidence and expiry. Location estimates
// are themselves published as data streams on the reserved stream index
// wire.LocationStreamIndex, protected by registry.PermLocation — “location
// data [treated] as any other data stream … protected by additional
// security mechanisms” (§2).
//
// The service keeps exactly what Locate reads. A sensor's track holds one
// observation per receiver that has heard it — the one with the greatest
// timestamp — as a 24-byte record of receiver index, RSSI and nanoseconds:
// no string, no time.Time, nothing for the garbage collector to walk.
// Tracks are partitioned into wire.Shards shards by wire.SensorID.Shard,
// the key and count the Stream Store and the Dispatching Service partition
// by, each shard under its own lock; the receiver registry is a
// copy-on-write table read with one atomic load, so receptions of
// different sensors never meet on a lock.
package location

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Source records what produced an estimate.
type Source int

const (
	// SourceInferred means only reception data contributed.
	SourceInferred Source = iota + 1
	// SourceHint means only consumer hints contributed.
	SourceHint
	// SourceMerged means both contributed.
	SourceMerged
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceInferred:
		return "inferred"
	case SourceHint:
		return "hint"
	case SourceMerged:
		return "merged"
	default:
		return "source(?)"
	}
}

// Estimate is the service's belief about one sensor's position.
type Estimate struct {
	Sensor      wire.SensorID
	Pos         geo.Point
	Uncertainty float64 // radius (metres) of the expected location area
	Confidence  float64 // (0, 1]
	At          time.Time
	Source      Source
	Receivers   int // distinct receivers contributing
	Hints       int // unexpired hints contributing
	// Heard is the zone — registered position and radius — of the receiver
	// whose in-window observation weighs most (RSSI × freshness; ties go to
	// the first in receiver-name order). It is a zone, not a position: the
	// hard fact behind the estimate is that this receiver heard the sensor,
	// so the sensor was inside this circle, wherever the centroid falls. Zero
	// when only hints contribute. It is not part of the location stream's
	// payload, so a decoded estimate never carries one.
	Heard geo.Circle
}

// hintUncertaintyBase scales hint uncertainty: a hint with confidence c
// has uncertainty (1-c)*hintUncertaintyBase + 1 metres.
const hintUncertaintyBase = 50

// Options configures the Service. The zero value uses the defaults; only
// tests set its fields, to reach a track's edges with few receptions.
type Options struct {
	// observationWindow is how long a reception contributes to estimates.
	// Default 10s.
	observationWindow time.Duration
	// maxObservationsPerSensor bounds per-sensor reception state: a track
	// remembers one observation for each of at most this many distinct
	// receivers, and a further receiver replaces the stalest. It does not
	// age anything out — only observationWindow does. Default 64.
	maxObservationsPerSensor int
}

// Service errors.
var (
	ErrUnknownSensor  = errors.New("location: no data for sensor")
	ErrUnknownRx      = errors.New("location: reception from unregistered receiver")
	ErrBadHint        = errors.New("location: invalid hint")
	ErrEstimateFormat = errors.New("location: bad estimate payload")
)

// observation is a receiver's freshest reception of one sensor. It holds no
// pointers, so a field's worth of tracks costs the collector nothing. at is
// wall-clock nanoseconds since the Unix epoch, without time.Time's monotonic
// reading: if the wall clock steps back, observations stamped before the
// step look newer than now and weigh as perfectly fresh until it catches up;
// if it steps forward, they age by the step and may expire early.
type observation struct {
	rssi float64
	at   int64
	rx   uint32 // index into siteTable.sites
}

type hint struct {
	pos        geo.Point
	confidence float64
	expires    time.Time
	from       string
}

type track struct {
	obs    []observation // one per receiver heard, at most maxObservationsPerSensor
	hints  []hint
	locSeq wire.Seq // sequence counter for published location messages
}

// shard owns the tracks of the sensors that wire.SensorID.Shard maps to it,
// and the scratch Locate builds an estimate in.
type shard struct {
	mu      sync.Mutex
	sensors map[wire.SensorID]*track
	pts     []geo.Point
	wts     []float64
}

type receiverSite struct {
	name   string
	pos    geo.Point
	radius float64
}

// siteTable is one published state of the receiver registry. It is never
// mutated once stored: RegisterReceiver publishes a copy.
type siteTable struct {
	index map[string]uint32
	sites []receiverSite
}

// Service is the Location Service.
type Service struct {
	clock sim.Clock
	opts  Options

	regMu     sync.Mutex // serialises RegisterReceiver; readers take no lock
	receivers atomic.Pointer[siteTable]
	shards    [wire.Shards]shard
}

// New creates a Service.
func New(clock sim.Clock, opts Options) *Service {
	if opts.observationWindow <= 0 {
		opts.observationWindow = 10 * time.Second
	}
	if opts.maxObservationsPerSensor <= 0 {
		opts.maxObservationsPerSensor = 64
	}
	s := &Service{clock: clock, opts: opts}
	s.receivers.Store(&siteTable{index: map[string]uint32{}})
	for i := range s.shards {
		s.shards[i].sensors = make(map[wire.SensorID]*track)
	}
	return s
}

// RegisterReceiver teaches the service where a receiver sits and how far
// its zone reaches. Receptions from unregistered receivers are rejected.
func (s *Service) RegisterReceiver(name string, pos geo.Point, radius float64) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	cur := s.receivers.Load()
	next := &siteTable{index: maps.Clone(cur.index), sites: slices.Clone(cur.sites)}
	site := receiverSite{name: name, pos: pos, radius: radius}
	if i, ok := next.index[name]; ok {
		next.sites[i] = site
	} else {
		next.index[name] = uint32(len(next.sites))
		next.sites = append(next.sites, site)
	}
	s.receivers.Store(next)
}

// ObserveReception folds one reception record into the sensor's track.
// Duplicate copies from overlapping receivers are valuable here (each
// contributes an independent bearing), so the core feeds this from the
// receivers directly, before duplicate elimination.
//
// The track keeps, per receiver, the reception with the greatest timestamp
// and among equal timestamps the first to arrive; anything older is dropped
// on arrival. An observation leaves an estimate when it is older than
// the observation window, never because later receptions pushed it out.
func (s *Service) ObserveReception(rc receiver.Reception) error {
	rx, ok := s.receivers.Load().index[rc.Receiver]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRx, rc.Receiver)
	}
	id := rc.Msg.Stream.Sensor()
	o := observation{rssi: rc.RSSI, at: rc.At.UnixNano(), rx: rx}
	sh := &s.shards[id.Shard(wire.Shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tr := sh.track(id)
	// The reception competes with the one remembered for its receiver or,
	// if the track is full of other receivers, with the stalest of them (the
	// earliest-registered among equally stale), and wins only if fresher.
	slot := slices.IndexFunc(tr.obs, func(c observation) bool { return c.rx == rx })
	if slot < 0 && len(tr.obs) < s.opts.maxObservationsPerSensor {
		tr.obs = append(tr.obs, o)
		return nil
	}
	if slot < 0 {
		slot = 0
		for i, c := range tr.obs {
			if m := tr.obs[slot]; c.at < m.at || c.at == m.at && c.rx < m.rx {
				slot = i
			}
		}
	}
	if o.at > tr.obs[slot].at {
		tr.obs[slot] = o
	}
	return nil
}

func (sh *shard) track(id wire.SensorID) *track {
	tr, ok := sh.sensors[id]
	if !ok {
		tr = &track{}
		sh.sensors[id] = tr
	}
	return tr
}

// AddHint records a consumer-supplied location hint. Confidence must lie
// in (0, 1] and ttl must be positive.
func (s *Service) AddHint(sensor wire.SensorID, pos geo.Point, confidence float64, ttl time.Duration, from string) error {
	if confidence <= 0 || confidence > 1 {
		return fmt.Errorf("%w: confidence %v", ErrBadHint, confidence)
	}
	if ttl <= 0 {
		return fmt.Errorf("%w: ttl %v", ErrBadHint, ttl)
	}
	now := s.clock.Now()
	sh := &s.shards[sensor.Shard(wire.Shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tr := sh.track(sensor)
	tr.hints = append(liveHints(tr.hints, now), hint{
		pos:        pos,
		confidence: confidence,
		expires:    now.Add(ttl),
		from:       from,
	})
	return nil
}

// liveHints drops the hints that have expired by now, in place.
func liveHints(hints []hint, now time.Time) []hint {
	return slices.DeleteFunc(hints, func(h hint) bool { return !h.expires.After(now) })
}

// Locate computes the current estimate for a sensor by merging fresh
// reception evidence with unexpired hints.
func (s *Service) Locate(sensor wire.SensorID) (Estimate, error) {
	sh := &s.shards[sensor.Shard(wire.Shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.locateLocked(sh, sensor)
}

func (s *Service) locateLocked(sh *shard, sensor wire.SensorID) (Estimate, error) {
	tr, ok := sh.sensors[sensor]
	if !ok {
		return Estimate{}, fmt.Errorf("%w: %d", ErrUnknownSensor, sensor)
	}
	now := s.clock.Now()
	nowNs, window := now.UnixNano(), int64(s.opts.observationWindow)
	sites := s.receivers.Load().sites

	// Each receiver's observation still inside the window, weighted by
	// RSSI × freshness, summed in receiver-name order for determinism (a
	// track's own order carries no meaning, so it is sorted where it lies).
	slices.SortFunc(tr.obs, func(a, b observation) int { return strings.Compare(sites[a.rx].name, sites[b.rx].name) })
	pts, wts := sh.pts[:0], sh.wts[:0]
	var radiusWt, totalW, heardW float64
	var heard geo.Circle
	for _, o := range tr.obs {
		if o.at < nowNs-window {
			continue
		}
		site := sites[o.rx]
		// A stamp ahead of now (a receiver's clock running fast, a wall-clock
		// step) is no fresher than fresh.
		freshness := min(max(1-float64(nowNs-o.at)/float64(window), 0.05), 1)
		w := o.rssi * freshness
		pts = append(pts, site.pos)
		wts = append(wts, w)
		radiusWt += site.radius * w
		totalW += w
		if w > heardW {
			heardW, heard = w, geo.Circle{Center: site.pos, R: site.radius}
		}
	}
	sh.pts, sh.wts = pts, wts

	tr.hints = liveHints(tr.hints, now)

	est := Estimate{Sensor: sensor, At: now, Receivers: len(pts), Hints: len(tr.hints), Heard: heard}
	// WeightedCentroid refuses an empty set, so a source with nothing fresh
	// contributes no estimate.
	var inferred *Estimate
	if c, err := geo.WeightedCentroid(pts, wts); err == nil {
		e := Estimate{Pos: c, Confidence: float64(len(pts)) / float64(len(pts)+1)}
		if len(pts) == 1 {
			// One receiver: the sensor is somewhere in its zone, biased
			// towards the RSSI-implied range ring.
			e.Uncertainty = (radiusWt / totalW) * (1 - wts[0]*0.5)
		} else {
			e.Uncertainty = max(spread(pts, wts, c), 5)
		}
		inferred = &e
	}

	var hinted *Estimate
	hp := make([]geo.Point, len(tr.hints))
	hw := make([]float64, len(tr.hints))
	var bestConf float64
	for i, h := range tr.hints {
		hp[i], hw[i] = h.pos, h.confidence
		if h.confidence > bestConf {
			bestConf = h.confidence
		}
	}
	if c, err := geo.WeightedCentroid(hp, hw); err == nil {
		hinted = &Estimate{
			Pos:         c,
			Confidence:  bestConf,
			Uncertainty: (1-bestConf)*hintUncertaintyBase + 1,
		}
	}

	switch {
	case inferred != nil && hinted != nil:
		wi, wh := inferred.Confidence, hinted.Confidence
		c, err := geo.WeightedCentroid([]geo.Point{inferred.Pos, hinted.Pos}, []float64{wi, wh})
		if err != nil {
			return Estimate{}, fmt.Errorf("%w: %d", ErrUnknownSensor, sensor)
		}
		est.Pos = c
		est.Confidence = 1 - (1-wi)*(1-wh) // probabilistic OR
		est.Uncertainty = (inferred.Uncertainty*wi + hinted.Uncertainty*wh) / (wi + wh)
		est.Source = SourceMerged
	case inferred != nil:
		est.Pos, est.Confidence, est.Uncertainty = inferred.Pos, inferred.Confidence, inferred.Uncertainty
		est.Source = SourceInferred
	case hinted != nil:
		est.Pos, est.Confidence, est.Uncertainty = hinted.Pos, hinted.Confidence, hinted.Uncertainty
		est.Source = SourceHint
	default:
		return Estimate{}, fmt.Errorf("%w: %d (no fresh data)", ErrUnknownSensor, sensor)
	}
	return est, nil
}

// spread is the weighted RMS distance of points from c — the service's
// uncertainty proxy when several receivers triangulate a sensor.
func spread(pts []geo.Point, wts []float64, c geo.Point) float64 {
	var sum, total float64
	for i, p := range pts {
		d := p.Dist(c)
		sum += wts[i] * d * d
		total += wts[i]
	}
	if total == 0 {
		return 0
	}
	return math.Sqrt(sum / total)
}

// sensors lists every sensor with any track state, sorted.
func (s *Service) sensors() []wire.SensorID {
	var out []wire.SensorID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out = slices.AppendSeq(out, maps.Keys(sh.sensors))
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// EstimatePayloadSize is the encoded size of a published location
// estimate payload.
const EstimatePayloadSize = 8*4 + 8

// ComposeUpdates builds one location data message per locatable sensor,
// on the reserved stream index, with per-sensor sequence numbers — the
// mechanism by which location data becomes “any other data stream”. The
// caller (the deployment core) injects these into the Dispatching Service.
// Each sensor is located and numbered under its own shard's lock, so
// receptions keep flowing while a field's worth of updates is composed.
func (s *Service) ComposeUpdates() []wire.Message {
	var msgs []wire.Message
	for _, id := range s.sensors() {
		sh := &s.shards[id.Shard(wire.Shards)]
		sh.mu.Lock()
		if est, err := s.locateLocked(sh, id); err == nil {
			tr := sh.sensors[id]
			msgs = append(msgs, wire.Message{
				Stream:  wire.MustStreamID(id, wire.LocationStreamIndex),
				Seq:     tr.locSeq,
				Payload: encodeEstimate(est),
			})
			tr.locSeq = tr.locSeq.Next()
		}
		sh.mu.Unlock()
	}
	return msgs
}

// encodeEstimate serialises an estimate into the location stream payload
// convention: X, Y, Confidence, Uncertainty as IEEE-754 doubles, then the
// estimate time in µs since the Unix epoch; all big-endian.
func encodeEstimate(e Estimate) []byte {
	buf := make([]byte, EstimatePayloadSize)
	binary.BigEndian.PutUint64(buf[0:], math.Float64bits(e.Pos.X))
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(e.Pos.Y))
	binary.BigEndian.PutUint64(buf[16:], math.Float64bits(e.Confidence))
	binary.BigEndian.PutUint64(buf[24:], math.Float64bits(e.Uncertainty))
	binary.BigEndian.PutUint64(buf[32:], uint64(e.At.UnixMicro()))
	return buf
}

// DecodeEstimate parses a location-stream payload (ComposeUpdates). The Sensor,
// Source, Receivers, Hints and Heard fields are not carried on the wire.
func DecodeEstimate(payload []byte) (Estimate, error) {
	if len(payload) < EstimatePayloadSize {
		return Estimate{}, fmt.Errorf("%w: %d bytes", ErrEstimateFormat, len(payload))
	}
	return Estimate{
		Pos: geo.Pt(
			math.Float64frombits(binary.BigEndian.Uint64(payload[0:])),
			math.Float64frombits(binary.BigEndian.Uint64(payload[8:])),
		),
		Confidence:  math.Float64frombits(binary.BigEndian.Uint64(payload[16:])),
		Uncertainty: math.Float64frombits(binary.BigEndian.Uint64(payload[24:])),
		At:          time.UnixMicro(int64(binary.BigEndian.Uint64(payload[32:]))).UTC(),
	}, nil
}
