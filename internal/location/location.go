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
package location

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
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
}

// Options configures the Service. The zero value uses the defaults.
type Options struct {
	// ObservationWindow is how long a reception contributes to estimates.
	// Default 10s.
	ObservationWindow time.Duration
	// MaxObservationsPerSensor bounds per-sensor reception history.
	// Default 64.
	MaxObservationsPerSensor int
	// HintUncertaintyBase scales hint uncertainty: a hint with confidence
	// c has uncertainty (1-c)*HintUncertaintyBase + 1 metres. Default 50.
	HintUncertaintyBase float64
}

// Service errors.
var (
	ErrUnknownSensor  = errors.New("location: no data for sensor")
	ErrUnknownRx      = errors.New("location: reception from unregistered receiver")
	ErrBadHint        = errors.New("location: invalid hint")
	ErrEstimateFormat = errors.New("location: bad estimate payload")
)

type observation struct {
	receiver string
	rssi     float64
	at       time.Time
}

type hint struct {
	pos        geo.Point
	confidence float64
	expires    time.Time
	from       string
}

type track struct {
	// obs is the bounded reception window. It grows to the bound by append
	// and is a ring from then on: oldest is the index of the oldest
	// observation, which the next one overwrites.
	obs    []observation
	oldest int
	hints  []hint
	locSeq wire.Seq // sequence counter for published location messages
}

// Service is the Location Service.
type Service struct {
	clock sim.Clock
	opts  Options

	mu        sync.Mutex
	receivers map[string]receiverSite
	sensors   map[wire.SensorID]*track
	latest    []observation // locateLocked's scratch: one observation per receiver
}

type receiverSite struct {
	pos    geo.Point
	radius float64
}

// New creates a Service.
func New(clock sim.Clock, opts Options) *Service {
	if opts.ObservationWindow <= 0 {
		opts.ObservationWindow = 10 * time.Second
	}
	if opts.MaxObservationsPerSensor <= 0 {
		opts.MaxObservationsPerSensor = 64
	}
	if opts.HintUncertaintyBase <= 0 {
		opts.HintUncertaintyBase = 50
	}
	return &Service{
		clock:     clock,
		opts:      opts,
		receivers: make(map[string]receiverSite),
		sensors:   make(map[wire.SensorID]*track),
	}
}

// RegisterReceiver teaches the service where a receiver sits and how far
// its zone reaches. Receptions from unregistered receivers are rejected.
func (s *Service) RegisterReceiver(name string, pos geo.Point, radius float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.receivers[name] = receiverSite{pos: pos, radius: radius}
}

// ObserveReception folds one reception record into the sensor's track.
// Duplicate copies from overlapping receivers are valuable here (each
// contributes an independent bearing), so the core feeds this from the
// receivers directly, before duplicate elimination.
func (s *Service) ObserveReception(rc receiver.Reception) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.receivers[rc.Receiver]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRx, rc.Receiver)
	}
	tr := s.trackLocked(rc.Msg.Stream.Sensor())
	o := observation{receiver: rc.Receiver, rssi: rc.RSSI, at: rc.At}
	if len(tr.obs) < s.opts.MaxObservationsPerSensor {
		tr.obs = append(tr.obs, o)
	} else {
		tr.obs[tr.oldest] = o
		tr.oldest = (tr.oldest + 1) % len(tr.obs)
	}
	return nil
}

func (s *Service) trackLocked(id wire.SensorID) *track {
	tr, ok := s.sensors[id]
	if !ok {
		tr = &track{}
		s.sensors[id] = tr
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
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.trackLocked(sensor)
	tr.hints = append(tr.hints, hint{
		pos:        pos,
		confidence: confidence,
		expires:    s.clock.Now().Add(ttl),
		from:       from,
	})
	return nil
}

// Locate computes the current estimate for a sensor by merging fresh
// reception evidence with unexpired hints.
func (s *Service) Locate(sensor wire.SensorID) (Estimate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.locateLocked(sensor)
}

func (s *Service) locateLocked(sensor wire.SensorID) (Estimate, error) {
	tr, ok := s.sensors[sensor]
	if !ok {
		return Estimate{}, fmt.Errorf("%w: %d", ErrUnknownSensor, sensor)
	}
	now := s.clock.Now()
	cutoff := now.Add(-s.opts.ObservationWindow)

	// Latest fresh observation per receiver, weighted by RSSI × freshness.
	// Few receivers hear one sensor, so a linear scan of a reused scratch
	// stands in for a map. Walking newest-first and letting an equal
	// timestamp replace keeps, among equals, the one that arrived first.
	latest := s.latest[:0]
	for i := len(tr.obs) - 1; i >= 0; i-- {
		o := tr.obs[(tr.oldest+i)%len(tr.obs)]
		if o.at.Before(cutoff) {
			continue
		}
		at := slices.IndexFunc(latest, func(l observation) bool { return l.receiver == o.receiver })
		if at < 0 {
			latest = append(latest, o)
		} else if !o.at.Before(latest[at].at) {
			latest[at] = o
		}
	}
	s.latest = latest
	slices.SortFunc(latest, func(a, b observation) int { return strings.Compare(a.receiver, b.receiver) }) // determinism
	var (
		pts      []geo.Point
		wts      []float64
		radiusWt float64
	)
	for _, o := range latest {
		site := s.receivers[o.receiver]
		freshness := 1 - float64(now.Sub(o.at))/float64(s.opts.ObservationWindow)
		if freshness < 0.05 {
			freshness = 0.05
		}
		w := o.rssi * freshness
		pts = append(pts, site.pos)
		wts = append(wts, w)
		radiusWt += site.radius * w
	}

	// Unexpired hints.
	live := tr.hints[:0]
	for _, h := range tr.hints {
		if h.expires.After(now) {
			live = append(live, h)
		}
	}
	tr.hints = live

	est := Estimate{Sensor: sensor, At: now, Receivers: len(pts), Hints: len(live)}
	var inferred *Estimate
	if len(pts) > 0 {
		c, err := geo.WeightedCentroid(pts, wts)
		if err == nil {
			var totalW float64
			for _, w := range wts {
				totalW += w
			}
			e := Estimate{
				Pos:        c,
				Confidence: float64(len(pts)) / float64(len(pts)+1),
			}
			if len(pts) == 1 {
				// One receiver: the sensor is somewhere in its zone, biased
				// towards the RSSI-implied range ring.
				e.Uncertainty = (radiusWt / totalW) * (1 - wts[0]*0.5)
			} else {
				e.Uncertainty = spread(pts, wts, c)
				if e.Uncertainty < 5 {
					e.Uncertainty = 5
				}
			}
			inferred = &e
		}
	}

	var hinted *Estimate
	if len(live) > 0 {
		hp := make([]geo.Point, len(live))
		hw := make([]float64, len(live))
		var bestConf float64
		for i, h := range live {
			hp[i], hw[i] = h.pos, h.confidence
			if h.confidence > bestConf {
				bestConf = h.confidence
			}
		}
		c, err := geo.WeightedCentroid(hp, hw)
		if err == nil {
			hinted = &Estimate{
				Pos:         c,
				Confidence:  bestConf,
				Uncertainty: (1-bestConf)*s.opts.HintUncertaintyBase + 1,
			}
		}
	}

	switch {
	case inferred != nil && hinted != nil:
		wi, wh := inferred.Confidence, hinted.Confidence
		c, err := geo.WeightedCentroid(
			[]geo.Point{inferred.Pos, hinted.Pos}, []float64{wi, wh})
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

// Sensors lists every sensor with any track state, sorted.
func (s *Service) Sensors() []wire.SensorID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]wire.SensorID, 0, len(s.sensors))
	for id := range s.sensors {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EstimatePayloadSize is the encoded size of a published location
// estimate payload.
const EstimatePayloadSize = 8*4 + 8

// ComposeUpdates builds one location data message per locatable sensor,
// on the reserved stream index, with per-sensor sequence numbers — the
// mechanism by which location data becomes “any other data stream”. The
// caller (the deployment core) injects these into the Dispatching Service.
func (s *Service) ComposeUpdates() []wire.Message {
	s.mu.Lock()
	ids := make([]wire.SensorID, 0, len(s.sensors))
	for id := range s.sensors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var msgs []wire.Message
	for _, id := range ids {
		est, err := s.locateLocked(id)
		if err != nil {
			continue
		}
		tr := s.sensors[id]
		msg := wire.Message{
			Stream:  wire.MustStreamID(id, wire.LocationStreamIndex),
			Seq:     tr.locSeq,
			Payload: EncodeEstimate(est),
		}
		tr.locSeq = tr.locSeq.Next()
		msgs = append(msgs, msg)
	}
	s.mu.Unlock()
	return msgs
}

// EncodeEstimate serialises an estimate into the location stream payload
// convention: X, Y, Confidence, Uncertainty as IEEE-754 doubles, then the
// estimate time in µs since the Unix epoch; all big-endian.
func EncodeEstimate(e Estimate) []byte {
	buf := make([]byte, EstimatePayloadSize)
	binary.BigEndian.PutUint64(buf[0:], math.Float64bits(e.Pos.X))
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(e.Pos.Y))
	binary.BigEndian.PutUint64(buf[16:], math.Float64bits(e.Confidence))
	binary.BigEndian.PutUint64(buf[24:], math.Float64bits(e.Uncertainty))
	binary.BigEndian.PutUint64(buf[32:], uint64(e.At.UnixMicro()))
	return buf
}

// DecodeEstimate parses a payload produced by EncodeEstimate. The Sensor,
// Source, Receivers and Hints fields are not carried on the wire.
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
