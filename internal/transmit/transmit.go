// Package transmit implements the transmitter array of §4.2: the fixed
// network elements that broadcast approved, replicated control messages
// into the wireless downlink, “whereupon [they] may be received by the
// sensor node”.
//
// A control frame names the one sensor it is for, and a transmitter
// broadcasts it addressed to that sensor (radio.Medium.BroadcastTo): every
// sensor in range still hears it on the air, but one that filters by
// address (see package sensor) is woken only by its own frames. A frame
// too short to carry a target goes out unaddressed.
package transmit

import (
	"fmt"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Config configures a Transmitter.
type Config struct {
	Name     string
	Position geo.Point
	Range    float64 // broadcast range, metres
}

// Transmitter broadcasts control frames over the downlink band.
type Transmitter struct {
	cfg      Config
	medium   *radio.Medium
	coverage geo.Circle // precomputed: Coverage sits on the replicator's selection path

	broadcasts metrics.Counter
	bytes      metrics.Counter
}

// Stats is a snapshot of a transmitter's counters.
type Stats struct {
	Broadcasts int64
	Bytes      int64
}

// New creates a Transmitter. New panics on a non-positive range (a
// configuration programming error).
func New(medium *radio.Medium, cfg Config) *Transmitter {
	if cfg.Range <= 0 {
		panic("transmit: range must be positive")
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("tx@%s", cfg.Position)
	}
	return &Transmitter{
		cfg:      cfg,
		medium:   medium,
		coverage: geo.Circle{Center: cfg.Position, R: cfg.Range},
	}
}

// Name returns the transmitter's name.
func (t *Transmitter) Name() string { return t.cfg.Name }

// Coverage returns the area this transmitter can reach.
func (t *Transmitter) Coverage() geo.Circle { return t.coverage }

// Broadcast sends one frame into the downlink, addressed to the sensor its
// control header targets.
func (t *Transmitter) Broadcast(frame []byte) {
	t.broadcasts.Inc()
	t.bytes.Add(int64(len(frame)))
	if target, ok := wire.ControlTarget(frame); ok {
		t.medium.BroadcastTo(radio.BandDownlink, t.cfg.Position, t.cfg.Range, uint32(target.Sensor()), frame)
		return
	}
	t.medium.Broadcast(radio.BandDownlink, t.cfg.Position, t.cfg.Range, frame)
}

// Stats returns a snapshot of the transmitter's counters.
func (t *Transmitter) Stats() Stats {
	return Stats{Broadcasts: t.broadcasts.Value(), Bytes: t.bytes.Value()}
}
