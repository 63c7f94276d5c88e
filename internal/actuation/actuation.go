// Package actuation implements the Actuation Service of §4.2: after the
// Resource Manager approves a stream-update request, this service
// “processes the request with timestamps, and checksums, before forwarding
// to the message replicator”.
//
// Because the downlink is as unreliable as the uplink, the service also
// tracks every outstanding request and retries it until the target
// sensor's acknowledgement (the update id piggy-backed on a data message,
// wire.FlagUpdateAck) is observed or the retry budget is exhausted. The
// request-to-acknowledgement latency distribution it records is the metric
// the Super Coordinator's predictive policies exist to improve.
//
// # Locking
//
// One mutex guards the outstanding table, the update-id allocator, the
// issue-stamp sequence and the counters; the latency histogram is
// lock-free. Update ids come from the whole 16-bit wire space (0
// reserved), so an id is reused only after 65 535 later allocations — as
// far from a late duplicate ack as the wire format allows. A 16-way
// partition of this state could not be told from one lock in paired runs
// on the hardware we have (CHANGES.md, PR 24). The transmit hook runs
// outside the lock.
//
// # Retry timers
//
// Every clock takes one path: each attempt arms its retry (or expiry)
// timer with Clock.AfterFunc and keeps the handle, and an ack, the expiry
// and Stop release it, so the clock holds a timer only for a request that
// is still outstanding. A fire that races its release is screened by a
// pointer+attempt generation check.
package actuation

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Request is an approved stream-update request entering the service.
type Request struct {
	Target   wire.StreamID
	Op       wire.Op
	Param    uint8
	Value    uint32
	Consumer string // originating consumer, for diagnostics
}

// Outcome reports how an issued request ended.
type Outcome int

const (
	// OutcomeAcked means the sensor acknowledged the request.
	OutcomeAcked Outcome = iota + 1
	// OutcomeExpired means the retry budget ran out without an ack —
	// expected for simple transmit-only sensors and roaming sensors.
	OutcomeExpired
	// OutcomeCancelled means the service was stopped first.
	OutcomeCancelled
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeAcked:
		return "acked"
	case OutcomeExpired:
		return "expired"
	case OutcomeCancelled:
		return "cancelled"
	default:
		return "outcome(?)"
	}
}

// Result is delivered to the completion callback of Issue.
type Result struct {
	UpdateID uint16
	Request  Request
	Outcome  Outcome
	Attempts int
	Latency  time.Duration // issue → ack; zero unless acked
}

// Options configures the Service.
type Options struct {
	// RetryInterval separates transmission attempts. Default 2s.
	RetryInterval time.Duration
	// MaxAttempts bounds transmissions per request (first + retries).
	// Default 5.
	MaxAttempts int
}

// Stats is a snapshot of service counters; Check states how they
// balance.
type Stats struct {
	Issued        int64
	Acked         int64
	Expired       int64
	Cancelled     int64
	Retries       int64
	DuplicateAcks int64
	Outstanding   int
}

// Check verifies
//
//	Issued == Acked + Expired + Cancelled + Outstanding
//
// every issued request resolves into exactly one outcome, or is still
// outstanding.
func (s Stats) Check() error {
	if s.Issued != s.Acked+s.Expired+s.Cancelled+int64(s.Outstanding) {
		return fmt.Errorf("issued %d != acked %d + expired %d + cancelled %d + outstanding %d",
			s.Issued, s.Acked, s.Expired, s.Cancelled, s.Outstanding)
	}
	return nil
}

// Service is the Actuation Service.
type Service struct {
	clock sim.Clock
	send  func(wire.ControlMessage)
	opts  Options

	// mu guards everything below except latency.
	mu sync.Mutex
	// nextID is the last update id handed out; allocation skips ids still
	// outstanding, so wrap-around reuses only acked/expired ids.
	nextID      uint16
	outstanding map[uint16]*pending
	stopped     bool
	// lastStamp is the previous wire issue timestamp; see stampLocked.
	lastStamp time.Time

	issued    int64
	acked     int64
	expired   int64
	cancelled int64
	retries   int64
	dupAcks   int64

	// latency records request→ack latencies (milliseconds).
	latency metrics.Histogram
}

// Service errors.
var (
	ErrStopped   = errors.New("actuation: service stopped")
	ErrSaturated = errors.New("actuation: all update ids outstanding")
)

// NewService creates a Service that forwards encoded-ready control
// messages to send (the Message Replicator). NewService panics on a nil
// send (programming error).
func NewService(clock sim.Clock, send func(wire.ControlMessage), opts Options) *Service {
	if send == nil {
		panic("actuation: nil send")
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 2 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	return &Service{
		clock:       clock,
		send:        send,
		opts:        opts,
		outstanding: make(map[uint16]*pending),
	}
}

type pending struct {
	req      Request
	issuedAt time.Time // for latency measurement
	stamp    time.Time // wire issue timestamp, strictly ordered across requests
	attempts int
	done     func(Result)
	// timer is the armed retry/expiry timer (nil until the first attempt
	// is sent): an ack or Stop stops it at once, so neither the clock nor
	// this record, with the done callback it captures, outlives the
	// request by up to RetryInterval.
	timer sim.Timer
}

// stampLocked returns a strictly-increasing wire issue timestamp: now,
// pushed one µs (the wire timestamp's precision) past the previous stamp
// when the clock has not advanced. Distinct requests therefore never tie,
// so the device's apply-in-issue-order staleness guard totally orders
// competing settings even for flips within one clock instant;
// retransmissions of one request reuse its stamp and still re-ack. Caller
// holds s.mu.
func (s *Service) stampLocked(now time.Time) time.Time {
	// Quantize to the wire precision first: two real-clock instants
	// within one µs would otherwise compare After here yet encode to the
	// identical wire value, resurrecting the tie this function exists to
	// break.
	now = now.Truncate(time.Microsecond)
	if !now.After(s.lastStamp) {
		now = s.lastStamp.Add(time.Microsecond)
	}
	s.lastStamp = now
	return now
}

// allocateLocked hands out the next free update id, skipping ids still
// outstanding so wrap-around never double-books a pending request. Wire
// id 0 is never allocated. ok is false when all 65 535 ids are
// outstanding. Caller holds s.mu.
func (s *Service) allocateLocked() (uint16, bool) {
	if len(s.outstanding) == math.MaxUint16 {
		return 0, false
	}
	for {
		s.nextID++
		if s.nextID == 0 {
			continue
		}
		if _, inUse := s.outstanding[s.nextID]; !inUse {
			return s.nextID, true
		}
	}
}

// Issue allocates an update id for one approved request, stamps it,
// tracks it and transmits it. done (optional) is invoked exactly once with
// the final outcome.
func (s *Service) Issue(req Request, done func(Result)) (uint16, error) {
	if !req.Op.Valid() {
		return 0, fmt.Errorf("actuation: %w", wire.ErrBadOp)
	}
	now := s.clock.Now()
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return 0, ErrStopped
	}
	id, ok := s.allocateLocked()
	if !ok {
		s.mu.Unlock()
		return 0, ErrSaturated
	}
	p := &pending{req: req, issuedAt: now, stamp: s.stampLocked(now), done: done}
	s.outstanding[id] = p
	s.issued++
	s.transmitLocked(id, p)
	s.mu.Unlock()
	return id, nil
}

// transmitLocked sends one attempt and arms the retry (or expiry) timer.
// Caller holds s.mu; the send itself runs unlocked.
func (s *Service) transmitLocked(id uint16, p *pending) {
	p.attempts++
	if p.attempts > 1 {
		s.retries++
	}
	msg := wire.ControlMessage{
		UpdateID: id,
		Target:   p.req.Target,
		Op:       p.req.Op,
		Param:    p.req.Param,
		Value:    p.req.Value,
		// The §4.2 timestamp is the request's issue stamp, stable across
		// retries and strictly ordered across requests: the sensor
		// applies the highest issue stamp it has seen per setting, so a
		// delayed retransmission of a superseded value (or a radio-jitter
		// reordering) can never revert a newer one.
		Issued: p.stamp,
	}
	// Send outside the lock: the replicator fans out to transmitters and
	// the medium, and every other issue and ack would wait behind them.
	send := s.send
	s.mu.Unlock()
	send(msg)
	s.mu.Lock()
	if s.outstanding[id] != p {
		return // acked (or cancelled) while transmitting
	}
	// The timer callbacks capture (id, p, gen): a fire is stale — and
	// ignored — unless the very same pending is still outstanding at the
	// same attempt count. A real clock may already be running a callback
	// whose Stop came too late, and an id may be reused after an ack; the
	// handle releases the timer, the check keeps a late fire harmless.
	gen := p.attempts
	if p.attempts >= s.opts.MaxAttempts {
		p.timer = s.clock.AfterFunc(s.opts.RetryInterval, func() { s.expire(id, p, gen) })
		return
	}
	p.timer = s.clock.AfterFunc(s.opts.RetryInterval, func() { s.retry(id, p, gen) })
}

func (s *Service) retry(id uint16, p *pending, gen int) {
	s.mu.Lock()
	if s.stopped || s.outstanding[id] != p || p.attempts != gen {
		s.mu.Unlock()
		return
	}
	s.transmitLocked(id, p)
	s.mu.Unlock()
}

func (s *Service) expire(id uint16, p *pending, gen int) {
	s.mu.Lock()
	if s.outstanding[id] != p || p.attempts != gen {
		s.mu.Unlock()
		return
	}
	delete(s.outstanding, id)
	s.expired++
	s.mu.Unlock()
	if p.done != nil {
		p.done(Result{UpdateID: id, Request: p.req, Outcome: OutcomeExpired, Attempts: p.attempts})
	}
}

// HandleAck completes the outstanding request acknowledged by a data
// message carrying update id ackID. The deployment core calls this for
// every delivery with wire.FlagUpdateAck set. Unknown or repeated ids
// are counted and ignored (acks ride an at-least-once channel).
func (s *Service) HandleAck(ackID uint16, at time.Time) {
	s.mu.Lock()
	p, ok := s.outstanding[ackID]
	if !ok {
		s.dupAcks++
		s.mu.Unlock()
		return
	}
	delete(s.outstanding, ackID)
	s.acked++
	if p.timer != nil {
		p.timer.Stop()
	}
	s.mu.Unlock()
	latency := at.Sub(p.issuedAt)
	s.latency.ObserveDuration(latency)
	if p.done != nil {
		p.done(Result{
			UpdateID: ackID,
			Request:  p.req,
			Outcome:  OutcomeAcked,
			Attempts: p.attempts,
			Latency:  latency,
		})
	}
}

// Stop cancels all outstanding requests (OutcomeCancelled) and rejects
// further Issues. Idempotent.
func (s *Service) Stop() {
	type doneCall struct {
		r Result
		f func(Result)
	}
	var calls []doneCall
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	for id, p := range s.outstanding {
		if p.timer != nil {
			p.timer.Stop()
		}
		if p.done != nil {
			calls = append(calls, doneCall{
				r: Result{UpdateID: id, Request: p.req, Outcome: OutcomeCancelled, Attempts: p.attempts},
				f: p.done,
			})
		}
	}
	s.cancelled += int64(len(s.outstanding))
	s.outstanding = make(map[uint16]*pending)
	s.mu.Unlock()
	for _, c := range calls {
		c.f(c.r)
	}
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Issued:        s.issued,
		Acked:         s.acked,
		Expired:       s.expired,
		Cancelled:     s.cancelled,
		Retries:       s.retries,
		DuplicateAcks: s.dupAcks,
		Outstanding:   len(s.outstanding),
	}
}

// Latency returns the request→ack latency distribution (milliseconds).
// It is the live histogram: safe to read while acks keep recording.
func (s *Service) Latency() *metrics.Histogram {
	return &s.latency
}
