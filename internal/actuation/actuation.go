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
// # Sharding
//
// The outstanding table is partitioned into N shards (Options.Shards)
// keyed by the target's sensor — the same wire.SensorID.Shard function the
// rest of the pipeline partitions on — and the 16-bit wire update-id space
// is carved into per-shard sub-spaces (top bits = shard), so issue, ack
// and retry for one sensor's requests take exactly one shard lock and an
// ack routes home from the id alone. Retry timers are fire-and-forget
// (the pooled sim.Scheduler path when the clock offers it) and re-lock
// only their own shard; stale fires are screened by pointer+attempt
// generation checks instead of cancellation handles.
//
// An optional coalescing window (Options.CoalesceWindow) absorbs bursts
// of requests against the same sensor setting: the first request of a
// burst transmits immediately, later ones replace each other inside the
// window (completing their predecessors with OutcomeSuperseded), and only
// the latest is issued when the window closes — a storm of conflicting
// demand flips costs one trailing actuation instead of a retry storm.
package actuation

import (
	"errors"
	"fmt"
	"math/bits"
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
	// OutcomeSuperseded means a later request against the same sensor
	// setting replaced this one inside a coalescing window — either
	// before it was ever transmitted (Result.UpdateID is 0), or while it
	// was still awaiting an ack when the newer value was transmitted (its
	// remaining retries are abandoned so the stale value can never be
	// retransmitted after the newer one).
	OutcomeSuperseded
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
	case OutcomeSuperseded:
		return "superseded"
	default:
		return "outcome(?)"
	}
}

// Result is delivered to the completion callback of Issue. UpdateID is 0
// for requests that were never transmitted (superseded inside a
// coalescing window, or cancelled while held in one).
type Result struct {
	UpdateID uint16
	Request  Request
	Outcome  Outcome
	Attempts int
	Latency  time.Duration // issue → ack; zero unless acked
}

// DefaultShards partitions the outstanding table unless Options.Shards
// says otherwise; it matches the resource manager's default so a demand
// meets the same partition at both control-plane layers.
const DefaultShards = 16

// MaxShards bounds the shard count: with 256 shards each sub-space still
// holds 256 update ids.
const MaxShards = 256

// Options configures the Service.
type Options struct {
	// RetryInterval separates transmission attempts. Default 2s.
	RetryInterval time.Duration
	// MaxAttempts bounds transmissions per request (first + retries).
	// Default 5.
	MaxAttempts int
	// Shards partitions the outstanding table by target sensor and carves
	// the 16-bit update-id space into per-shard sub-spaces. <= 0 selects
	// DefaultShards; the value is rounded up to a power of two and capped
	// at MaxShards. 1 restores the historical single table with the full
	// 64K id space.
	//
	// Trade-off: each sub-space holds 65536/Shards ids, and acks ride an
	// at-least-once channel — an id freed by an ack can be reallocated to
	// a new request while a duplicate ack for its previous owner is still
	// in flight, which would falsely complete the new request. The
	// allocator cycles the whole sub-space before reusing an id, so keep
	// Shards small enough that a shard cannot burn through its sub-space
	// within one downlink round-trip (at the 256-shard cap that is 256
	// issue+ack cycles per sensor-shard per RTT).
	Shards int
	// CoalesceWindow, when positive, absorbs bursts of requests against
	// the same sensor setting: within the window only the latest request
	// is issued, earlier ones complete with OutcomeSuperseded. Pings
	// never coalesce. 0 disables coalescing.
	CoalesceWindow time.Duration
}

// Stats is a snapshot of service counters, summed across shards. Every
// issued request resolves into exactly one of Acked, Expired, Cancelled
// or Superseded; Cancelled additionally counts coalescing-held requests
// cancelled before they were ever transmitted (their Result carries
// update id 0 and they were never Issued), so with coalescing enabled
// Acked+Expired+Cancelled+Superseded may exceed Issued by that number.
type Stats struct {
	Issued        int64
	Acked         int64
	Expired       int64
	Cancelled     int64
	Superseded    int64 // transmitted requests retired by a newer coalesced value
	Retries       int64
	DuplicateAcks int64
	Coalesced     int64 // requests absorbed into a coalescing window
	Outstanding   int
	Shards        int
}

// Service is the Actuation Service.
type Service struct {
	clock sim.Clock
	sched sim.Scheduler // non-nil when clock supports pooled fire-and-forget timers
	send  func(wire.ControlMessage)
	opts  Options

	idBits uint // width of each shard's id sub-space
	shards []*ashard
}

// Service errors.
var (
	ErrStopped   = errors.New("actuation: service stopped")
	ErrSaturated = errors.New("actuation: all update ids of the target's shard outstanding")
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
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	opts.Shards = ceilPow2(opts.Shards)
	if opts.Shards > MaxShards {
		opts.Shards = MaxShards
	}
	s := &Service{
		clock:  clock,
		send:   send,
		opts:   opts,
		idBits: uint(16 - (bits.Len(uint(opts.Shards)) - 1)),
		shards: make([]*ashard, opts.Shards),
	}
	// Pooled fire-and-forget timers only pay off on the virtual clock,
	// whose scheduler recycles heap events. On real clocks (whose
	// ScheduleFunc of a positive delay is a bare time.AfterFunc) the
	// service keeps the AfterFunc cancellation handle instead, so an ack
	// stops its retry timer immediately rather than retaining the pending
	// record — and the consumer callback graph it captures — until the
	// dead timer fires up to RetryInterval later.
	if _, virtual := clock.(*sim.VirtualClock); virtual {
		s.sched, _ = clock.(sim.Scheduler)
	}
	// One contiguous padded backing array: a multiple-of-64 allocation is
	// 64-aligned by the Go size classes, so every shard starts on a cache
	// line boundary.
	backing := make([]paddedAShard, opts.Shards)
	for i := range s.shards {
		sh := &backing[i].ashard
		sh.base = uint16(i) << s.idBits
		sh.mask = uint16(1<<s.idBits - 1)
		sh.outstanding = make(map[uint16]*pending)
		sh.coal = make(map[coalKey]*coalEntry)
		s.shards[i] = sh
	}
	return s
}

// schedule arms a timer: fire-and-forget on the pooled virtual-clock
// Scheduler path (returns nil), a plain AfterFunc with its cancellation
// handle otherwise. Callbacks must tolerate stale fires either way (the
// service screens them with generation checks); the handle only exists
// so completed requests can release their timers early.
func (s *Service) schedule(d time.Duration, f func()) sim.Timer {
	if s.sched != nil {
		s.sched.ScheduleFunc(d, f)
		return nil
	}
	return s.clock.AfterFunc(d, f)
}

// Issue stamps, tracks and transmits one approved request. done (optional)
// is invoked exactly once with the final outcome. When coalescing is
// enabled and a window is already open for the request's sensor setting,
// the request is held instead of transmitted (Issue returns id 0); it is
// issued when the window closes unless a yet-newer request supersedes it.
func (s *Service) Issue(req Request, done func(Result)) (uint16, error) {
	if !req.Op.Valid() {
		return 0, fmt.Errorf("actuation: %w", wire.ErrBadOp)
	}
	now := s.clock.Now()
	sh := s.shardFor(req.Target)
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		return 0, ErrStopped
	}
	coalesce := false
	var windowKey coalKey
	if s.opts.CoalesceWindow > 0 {
		if key, ok := coalesceKeyOf(req); ok {
			if ce := sh.coal[key]; ce != nil {
				// Window open: absorb, superseding any earlier held request.
				superseded := ce.held
				ce.held = &heldRequest{req: req, done: done}
				sh.coalesced++
				sh.mu.Unlock()
				completeHeld(superseded, OutcomeSuperseded)
				return 0, nil
			}
			coalesce, windowKey = true, key
		}
	}
	// Allocate before opening a window: a saturated sub-space must not
	// leave a window (and its armed close timer) behind, or the orphan
	// timer would later cut short a different window for the same key.
	id, ok := sh.allocateLocked()
	if !ok {
		sh.mu.Unlock()
		return 0, ErrSaturated
	}
	var window *coalEntry
	if coalesce {
		// First of a potential burst: transmit immediately and open a
		// window that absorbs followers.
		window = &coalEntry{}
		sh.coal[windowKey] = window
		s.schedule(s.opts.CoalesceWindow, func() { s.closeWindow(sh, windowKey) })
	}
	p := &pending{req: req, issuedAt: now, stamp: sh.stampLocked(now), done: done}
	sh.outstanding[id] = p
	sh.issued++
	if window != nil {
		window.lastID, window.lastP = id, p
	}
	s.transmitLocked(sh, id, p)
	sh.mu.Unlock()
	return id, nil
}

// closeWindow ends one coalescing round: if a held request accumulated,
// it is issued now and the window re-arms (continued churn keeps
// collapsing to one actuation per window); otherwise the window closes.
func (s *Service) closeWindow(sh *ashard, key coalKey) {
	sh.mu.Lock()
	ce := sh.coal[key]
	if ce == nil {
		sh.mu.Unlock()
		return
	}
	if sh.stopped || ce.held == nil {
		delete(sh.coal, key)
		held := ce.held
		if held != nil {
			sh.cancelled++
		}
		sh.mu.Unlock()
		completeHeld(held, OutcomeCancelled)
		return
	}
	h := ce.held
	ce.held = nil
	s.schedule(s.opts.CoalesceWindow, func() { s.closeWindow(sh, key) })
	id, ok := sh.allocateLocked()
	if !ok {
		// Sub-space exhausted: the held request cannot be transmitted.
		sh.cancelled++
		sh.mu.Unlock()
		completeHeld(h, OutcomeCancelled)
		return
	}
	// The trailing actuation replaces the key's previous transmission: if
	// that one is still unacked, retire it now so a pending retry cannot
	// retransmit the superseded value after the newer one. (A retry whose
	// send is already in flight can still reach the air after the newer
	// value — radio jitter can reorder any two transmissions anyway — but
	// it carries the older issue timestamp, so the sensor ignores it.)
	var priorResult Result
	var priorDone func(Result)
	if ce.lastP != nil && sh.outstanding[ce.lastID] == ce.lastP {
		delete(sh.outstanding, ce.lastID)
		sh.superseded++
		if ce.lastP.timer != nil {
			ce.lastP.timer.Stop()
		}
		priorResult = Result{
			UpdateID: ce.lastID,
			Request:  ce.lastP.req,
			Outcome:  OutcomeSuperseded,
			Attempts: ce.lastP.attempts,
		}
		priorDone = ce.lastP.done
	}
	now := s.clock.Now()
	p := &pending{req: h.req, issuedAt: now, stamp: sh.stampLocked(now), done: h.done}
	sh.outstanding[id] = p
	sh.issued++
	ce.lastID, ce.lastP = id, p
	s.transmitLocked(sh, id, p)
	sh.mu.Unlock()
	if priorDone != nil {
		priorDone(priorResult)
	}
}

// transmitLocked sends one attempt and arms the retry (or expiry) timer.
// Caller holds sh.mu; the send itself runs unlocked.
func (s *Service) transmitLocked(sh *ashard, id uint16, p *pending) {
	p.attempts++
	if p.attempts > 1 {
		sh.retries++
	}
	msg := wire.ControlMessage{
		UpdateID: id,
		Target:   p.req.Target,
		Op:       p.req.Op,
		Param:    p.req.Param,
		Value:    p.req.Value,
		// The §4.2 timestamp is the request's issue stamp, stable across
		// retries and strictly ordered within the shard: the sensor
		// applies the highest issue stamp it has seen per setting, so a
		// delayed retransmission of a superseded value (or a radio-jitter
		// reordering) can never revert a newer one.
		Issued: p.stamp,
	}
	// Send outside the lock: the replicator fans out to transmitters and
	// the medium, none of which re-enter this shard while it is locked.
	send := s.send
	sh.mu.Unlock()
	send(msg)
	sh.mu.Lock()
	if sh.outstanding[id] != p {
		return // acked (or cancelled) while transmitting
	}
	// The timer callbacks capture (id, p, gen): a fire is stale — and
	// ignored — unless the very same pending is still outstanding at the
	// same attempt count, so correctness never needs a Stop handle even
	// when an id is reused after an ack. The handle, when schedule
	// returns one (real clocks), only releases completed requests'
	// timers early.
	gen := p.attempts
	if p.attempts >= s.opts.MaxAttempts {
		p.timer = s.schedule(s.opts.RetryInterval, func() { s.expire(sh, id, p, gen) })
		return
	}
	p.timer = s.schedule(s.opts.RetryInterval, func() { s.retry(sh, id, p, gen) })
}

func (s *Service) retry(sh *ashard, id uint16, p *pending, gen int) {
	sh.mu.Lock()
	if sh.stopped || sh.outstanding[id] != p || p.attempts != gen {
		sh.mu.Unlock()
		return
	}
	s.transmitLocked(sh, id, p)
	sh.mu.Unlock()
}

func (s *Service) expire(sh *ashard, id uint16, p *pending, gen int) {
	sh.mu.Lock()
	if sh.outstanding[id] != p || p.attempts != gen {
		sh.mu.Unlock()
		return
	}
	delete(sh.outstanding, id)
	sh.expired++
	sh.mu.Unlock()
	if p.done != nil {
		p.done(Result{UpdateID: id, Request: p.req, Outcome: OutcomeExpired, Attempts: p.attempts})
	}
}

// HandleAck completes the outstanding request acknowledged by a data
// message carrying update id ackID. The deployment core calls this for
// every delivery with wire.FlagUpdateAck set. The shard is recovered from
// the id's top bits, so the ack takes exactly one shard lock. Unknown or
// repeated ids are counted and ignored (acks ride an at-least-once
// channel).
func (s *Service) HandleAck(ackID uint16, at time.Time) {
	sh := s.shardForID(ackID)
	sh.mu.Lock()
	p, ok := sh.outstanding[ackID]
	if !ok {
		sh.dupAcks++
		sh.mu.Unlock()
		return
	}
	delete(sh.outstanding, ackID)
	sh.acked++
	if p.timer != nil {
		p.timer.Stop()
	}
	sh.mu.Unlock()
	latency := at.Sub(p.issuedAt)
	sh.latency.ObserveDuration(latency)
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

// Outstanding returns the number of unacknowledged requests.
func (s *Service) Outstanding() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.outstanding)
		sh.mu.Unlock()
	}
	return n
}

// Stop cancels all outstanding and coalescing-held requests
// (OutcomeCancelled) and rejects further Issues. Idempotent.
func (s *Service) Stop() {
	type doneCall struct {
		r Result
		f func(Result)
	}
	var calls []doneCall
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.stopped {
			sh.mu.Unlock()
			continue
		}
		sh.stopped = true
		for id, p := range sh.outstanding {
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
		sh.cancelled += int64(len(sh.outstanding))
		sh.outstanding = make(map[uint16]*pending)
		for key, ce := range sh.coal {
			if ce.held != nil {
				sh.cancelled++
				if ce.held.done != nil {
					calls = append(calls, doneCall{
						r: Result{Request: ce.held.req, Outcome: OutcomeCancelled},
						f: ce.held.done,
					})
				}
			}
			delete(sh.coal, key)
		}
		sh.mu.Unlock()
	}
	for _, c := range calls {
		c.f(c.r)
	}
}

// Stats returns a snapshot of the service counters summed across shards.
func (s *Service) Stats() Stats {
	st := Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Issued += sh.issued
		st.Acked += sh.acked
		st.Expired += sh.expired
		st.Cancelled += sh.cancelled
		st.Superseded += sh.superseded
		st.Retries += sh.retries
		st.DuplicateAcks += sh.dupAcks
		st.Coalesced += sh.coalesced
		st.Outstanding += len(sh.outstanding)
		sh.mu.Unlock()
	}
	return st
}

// Latency returns a merged snapshot of the per-shard request→ack latency
// distributions (milliseconds). Acks record into their shard's histogram
// — no cross-shard serial point on the ack path — and the merge happens
// only here, at read time.
func (s *Service) Latency() *metrics.Histogram {
	h := &metrics.Histogram{}
	for _, sh := range s.shards {
		h.Merge(&sh.latency)
	}
	return h
}
