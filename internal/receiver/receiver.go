// Package receiver implements the fixed-network receiver array of §4.2:
// receivers “are arranged such that their effective receiving areas may
// overlap. Such coverage improves data reception but causes potential
// duplication of data messages.”
//
// Each Receiver owns a reception zone on the uplink band, screens frames
// through the wire checksum, stamps every surviving message with a
// reception record — receiver identity, a received-signal-strength proxy
// and the reception time — and hands it to its sink (the Filtering
// Service, with a copy of the reception metadata feeding the Location
// Service).
package receiver

import (
	"fmt"
	"math"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Reception is one decoded data message together with the reception
// metadata the rest of the fixed network relies on. The transmit position
// itself is deliberately absent: the middleware only ever sees receiver
// identity and signal strength, from which location must be inferred (§5
// “inferred location data”).
type Reception struct {
	Msg      wire.Message
	Receiver string    // name of the receiver that heard this copy
	RSSI     float64   // signal-strength proxy in (0, 1]; larger = closer
	At       time.Time // reception time at the fixed network
	// Borrowed marks a zero-copy reception: Msg.Payload aliases the radio
	// frame buffer and is only valid for the duration of the sink call.
	// A sink that keeps the message past its return must detach the
	// payload with a copy first (the Filtering Service does this for
	// accepted receptions; dropped duplicates are never copied).
	Borrowed bool
}

// Config configures a Receiver.
type Config struct {
	Name     string
	Position geo.Point
	Radius   float64 // reception zone radius, metres
}

// Stats is a snapshot of one receiver's counters.
type Stats struct {
	FramesHeard int64 // raw frames delivered by the medium
	Corrupt     int64 // frames failing decode or checksum
	Decoded     int64 // receptions passed to the sink
}

// Check verifies FramesHeard == Corrupt + Decoded. The counters are
// separate atomics, so the identity is exact only while no frame is
// being handled.
func (s Stats) Check() error {
	if s.FramesHeard != s.Corrupt+s.Decoded {
		return fmt.Errorf("frames heard %d != corrupt %d + decoded %d", s.FramesHeard, s.Corrupt, s.Decoded)
	}
	return nil
}

// Receiver is one element of the receiver array.
type Receiver struct {
	cfg    Config
	medium *radio.Medium
	sink   func(Reception)
	detach func()

	heard   metrics.Counter
	corrupt metrics.Counter
	decoded metrics.Counter
}

// New creates a stopped Receiver delivering to sink. New panics on a nil
// sink or a non-positive radius (programming errors).
func New(medium *radio.Medium, cfg Config, sink func(Reception)) *Receiver {
	if sink == nil {
		panic("receiver: nil sink")
	}
	if cfg.Radius <= 0 {
		panic("receiver: radius must be positive")
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("rx@%s", cfg.Position)
	}
	return &Receiver{cfg: cfg, medium: medium, sink: sink}
}

// Name returns the receiver's name.
func (r *Receiver) Name() string { return r.cfg.Name }

// Position returns the receiver's fixed position.
func (r *Receiver) Position() geo.Point { return r.cfg.Position }

// Radius returns the reception zone radius.
func (r *Receiver) Radius() float64 { return r.cfg.Radius }

// Start attaches the receiver to the medium. Idempotent.
func (r *Receiver) Start() {
	if r.detach != nil {
		return
	}
	r.detach = r.medium.Attach(radio.BandUplink, &radio.Listener{
		Name:     r.cfg.Name,
		Position: func() geo.Point { return r.cfg.Position },
		Radius:   r.cfg.Radius,
		Deliver:  r.onFrame,
		// Receivers are fixed infrastructure: the medium indexes the
		// reception zone once and never position-checks it again, so a
		// dense array costs a broadcast only the receivers it reaches.
		Static: true,
		// onFrame decodes in place and the filter detaches what it accepts
		// before the sink returns: nothing aliases the frame afterwards.
		Borrows: true,
	})
}

// Stop detaches the receiver. Idempotent.
func (r *Receiver) Stop() {
	if r.detach != nil {
		r.detach()
		r.detach = nil
	}
}

func (r *Receiver) onFrame(f radio.Frame) {
	r.heard.Inc()
	// Borrow-mode decode: the payload aliases the frame buffer, so a
	// duplicate that the filter drops is screened out without a single
	// payload copy. The filter detaches the payload of accepted
	// receptions before Ingest returns, which keeps the listener's
	// Borrows promise — the medium reuses the buffer once we return.
	var msg wire.Message
	if _, err := wire.DecodeMessageBorrowed(f.Data, &msg); err != nil {
		r.corrupt.Inc()
		return
	}
	r.decoded.Inc()
	d2 := f.DistSq
	if d2 == 0 && f.From != r.cfg.Position {
		// Hand-built frame without the medium's precomputed distance.
		d2 = r.cfg.Position.DistSq(f.From)
	}
	r.sink(Reception{
		Msg:      msg,
		Receiver: r.cfg.Name,
		RSSI:     r.rssi(d2),
		At:       f.At,
		Borrowed: true,
	})
}

// rssi converts squared transmitter distance into the signal-strength
// proxy: 1 at the receiver itself falling linearly to a small floor at
// the zone edge. A real deployment would read this from the radio
// hardware; the linear proxy preserves the only property the location
// service needs, namely that strength decreases monotonically with
// distance.
//
// The frame's squared distance — computed once by the medium for its
// range check and carried on the frame — gates the square root behind a
// cheap squared compare, so no per-frame distance recomputation happens
// here for any transmitter, static or mobile.
func (r *Receiver) rssi(d2 float64) float64 {
	const floor = 0.01
	if d2 >= r.cfg.Radius*r.cfg.Radius {
		return floor
	}
	v := 1 - math.Sqrt(d2)/r.cfg.Radius
	if v < floor {
		return floor
	}
	return v
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() Stats {
	return Stats{
		FramesHeard: r.heard.Value(),
		Corrupt:     r.corrupt.Value(),
		Decoded:     r.decoded.Value(),
	}
}
