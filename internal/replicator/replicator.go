// Package replicator implements the Message Replicator of §4.2: it
// “determines the expected location area of the target sensor. Based on
// the location area, the appropriate set of Transmitters broadcast the
// request, whereupon it may be received by the sensor node.”
//
// “Appropriate set” is decided by a three-step ladder, each step taken
// only when the one before it yields no transmitter (see Send):
//
//  1. the one transmitter whose coverage contains the receiver zone the
//     sensor was last heard best in — how a cellular network pages a
//     handset: answer on the cell that heard it;
//  2. every transmitter whose coverage intersects the estimate's expected
//     location area, inflated by Options.Margin;
//  3. every transmitter (the location-neutral flood).
//
// Step 1 is the §5 rationale for inferred location (“a refinement …
// required to reduce transmission costs when forwarding control messages”)
// taken to its end: one transmission, and one cell's worth of sensors that
// wake, pay for the bytes and discard them. It rests on containment, not
// intersection. “This receiver heard the sensor” is a fact about a zone;
// a transmitter whose circle contains that zone reaches the sensor wherever
// in the zone it is, whereas a circle that merely brushes a disc drawn
// around a centroid promises nothing — which is why step 2 has to use
// every such transmitter and still is no guarantee.
//
// What one copy costs: a sensor that left the heard cell since its last
// data message, or a downlink copy the channel drops, is a missed attempt.
// The Actuation Service's retry is the remedy — the sensor's next data
// message re-anchors the heard zone and the retry pages the new cell — so
// a lost single copy waits one RetryInterval where the overlapping copies
// of step 2 seldom all failed. Measured on a 16-site array with 30 % loss
// (core.TestPagedLossyDownlinkEveryDemandIsAcked): 1.6 attempts per demand
// against 1.2, for 1.6 broadcasts per demand against 8 — one-seventh of the
// airtime and listener energy per request, one-fifth per delivered demand.
package replicator

import (
	"errors"
	"sync"
	"sync/atomic"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/location"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Locator answers expected-location queries; satisfied by
// *location.Service.
type Locator interface {
	Locate(sensor wire.SensorID) (location.Estimate, error)
}

// Options configures a Replicator.
type Options struct {
	// Margin inflates the estimate's uncertainty radius before matching
	// transmitter coverage, to absorb sensor movement since the estimate.
	// It widens only the expected-area fall-back; a request paged from the
	// transmitter containing the heard zone does not consult it.
	// Default 1.5.
	Margin float64
	// Targeted disables the location lookup entirely when false, flooding
	// every control message — the location-neutral baseline in the
	// targeted-actuation experiment (E6). Default true.
	Targeted bool
}

// Stats is a snapshot of replicator counters.
type Stats struct {
	Requests   int64 // control messages replicated
	Targeted   int64 // requests sent to a located subset (Paged included)
	Paged      int64 // of those, sent from the one transmitter containing the heard zone
	Flooded    int64 // requests broadcast by every transmitter
	Broadcasts int64 // transmitter broadcasts used in total
}

// txSnapshot is an immutable view of the transmitter array: the attach-
// ordered slice plus a spatial index of the coverage circles (grid ids
// are indices into txs). Attach replaces the whole snapshot under the
// writer lock; Send loads it with one atomic read — attach is rare,
// replicate is hot, so the hot path takes no lock and copies nothing.
type txSnapshot struct {
	txs  []*transmit.Transmitter
	grid *geo.Grid
}

// Replicator fans control frames out to the right transmitters.
type Replicator struct {
	locator Locator
	opts    Options

	mu   sync.Mutex // serialises writers (AddTransmitter)
	snap atomic.Pointer[txSnapshot]

	requests   metrics.Counter
	targeted   metrics.Counter
	paged      metrics.Counter
	flooded    metrics.Counter
	broadcasts metrics.Counter
}

// idScratch pools the per-Send candidate-id buffer for the coverage
// query, keeping the targeted hot path allocation-free.
var idScratch = sync.Pool{New: func() any {
	s := make([]int, 0, 16)
	return &s
}}

// ErrNoTransmitters is returned when Send has nowhere to broadcast.
var ErrNoTransmitters = errors.New("replicator: no transmitters attached")

// New creates a Replicator. locator may be nil, in which case every
// request floods.
func New(locator Locator, opts Options) *Replicator {
	if opts.Margin <= 0 {
		opts.Margin = 1.5
	}
	return &Replicator{locator: locator, opts: opts}
}

// AddTransmitter attaches one transmitter to the array. The snapshot and
// its coverage index are rebuilt copy-on-write: in-flight Sends keep the
// old snapshot, later Sends atomically observe the new one.
func (r *Replicator) AddTransmitter(t *transmit.Transmitter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	var txs []*transmit.Transmitter
	if old != nil {
		txs = append(txs, old.txs...)
	}
	txs = append(txs, t)
	// Cell size: the largest coverage radius, so every circle spans only
	// a handful of cells and an estimate-area query touches few buckets.
	maxR := 0.0
	for _, tx := range txs {
		if r := tx.Coverage().R; r > maxR {
			maxR = r
		}
	}
	if maxR <= 0 {
		maxR = 1
	}
	grid := geo.NewGrid(maxR)
	for i, tx := range txs {
		grid.Insert(i, tx.Coverage())
	}
	r.snap.Store(&txSnapshot{txs: txs, grid: grid})
}

// Send encodes the control message once, picks the transmitters by the
// first rung of this ladder that yields any, and broadcasts from them. It
// returns the number of transmitters used.
//
//  1. Page the heard cell. The estimate names the zone of the receiver
//     that heard the sensor best (Estimate.Heard). Among the transmitters
//     covering that zone's centre, those whose coverage contains the whole
//     zone — dist(tx, centre) + zone radius ≤ range — can each reach the
//     sensor wherever in the zone it is, so one is enough: the nearest,
//     lowest attach index on a tie.
//  2. Expected area. When no transmitter contains the zone (a hint-only
//     estimate, transmitters smaller than receiver zones, arrays that are
//     not co-located), every transmitter whose coverage intersects the
//     estimate's uncertainty disc, inflated by Margin, broadcasts.
//  3. Flood. When that is empty too, or the sensor cannot be located (or
//     Targeted is off), every transmitter broadcasts.
//
// Containment, not intersection, is what makes one transmission a
// guarantee: a coverage circle that merely touches a guessed disc promises
// nothing about where in the disc the sensor is, which is why rung 2 needs
// every such transmitter and rung 1 needs one.
//
// Selection takes no lock: the snapshot is one atomic load, its grid is
// immutable, and rung 1 reads a single grid cell.
func (r *Replicator) Send(c wire.ControlMessage) (int, error) {
	frame, err := c.Encode()
	if err != nil {
		return 0, err
	}
	snap := r.snap.Load()
	if snap == nil || len(snap.txs) == 0 {
		return 0, ErrNoTransmitters
	}
	r.requests.Inc()

	used := 0
	if r.locator != nil && r.opts.Targeted {
		if est, err := r.locator.Locate(c.Target.Sensor()); err == nil {
			idsp := idScratch.Get().(*[]int)
			ids, paged := snap.pick(est, r.opts.Margin, (*idsp)[:0])
			for _, id := range ids {
				snap.txs[id].Broadcast(frame)
			}
			used = len(ids)
			if paged {
				r.paged.Inc()
			}
			*idsp = ids[:0]
			idScratch.Put(idsp)
		}
	}
	if used > 0 {
		r.targeted.Inc()
	} else {
		r.flooded.Inc()
		for _, t := range snap.txs {
			t.Broadcast(frame)
		}
		used = len(snap.txs)
	}
	r.broadcasts.Add(int64(used))
	return used, nil
}

// pick appends to ids the transmitters a located request goes out from:
// the one paging transmitter (paged true) or, failing that, the expected-
// area set, which may be empty.
func (s *txSnapshot) pick(est location.Estimate, margin float64, ids []int) (_ []int, paged bool) {
	if heard := est.Heard; heard.R > 0 {
		ids = s.grid.AppendCovering(ids, heard.Center)
		best, bestDist := -1, 0.0
		for _, id := range ids {
			cov := s.txs[id].Coverage()
			d := cov.Center.Dist(heard.Center)
			if d+heard.R > cov.R {
				continue
			}
			if best < 0 || d < bestDist || d == bestDist && id < best {
				best, bestDist = id, d
			}
		}
		if best >= 0 {
			return append(ids[:0], best), true
		}
		ids = ids[:0]
	}
	area := geo.Circle{Center: est.Pos, R: est.Uncertainty*margin + 1}
	return s.grid.AppendIntersecting(ids, area), false
}

// Stats returns a snapshot of the replicator counters.
func (r *Replicator) Stats() Stats {
	return Stats{
		Requests:   r.requests.Value(),
		Targeted:   r.targeted.Value(),
		Paged:      r.paged.Value(),
		Flooded:    r.flooded.Value(),
		Broadcasts: r.broadcasts.Value(),
	}
}
