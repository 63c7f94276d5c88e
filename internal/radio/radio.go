// Package radio simulates the unreliable wireless medium between the
// mobile sensor field and the fixed network (§3 of the paper: “mobile
// sensors transmit data over an unreliable wireless medium to a fixed
// network infrastructure”).
//
// The medium is a broadcast channel with range-limited delivery: a frame
// broadcast from a point reaches every attached listener whose reception
// zone covers the transmitter and that lies within the transmitter's
// range. Overlapping receiver zones therefore duplicate frames by
// construction — the phenomenon the Filtering Service exists to undo —
// and independent per-delivery loss, delay jitter and byte corruption
// model the unreliable channel. Uplink (sensor → receivers) and downlink
// (transmitters → sensors) are separate bands.
//
// Listeners are held in a uniform-grid spatial index (geo.Grid) keyed by
// their coverage circles, so a broadcast that reaches k of N attached
// listeners costs O(cells + k), not O(N): static listeners (the receiver
// array) index once at Attach; mobile listeners (roaming sensors) are
// lazily re-bucketed by a position check at broadcast time. All
// randomness is derived per delivery from (medium seed, broadcast
// counter, listener id) and all scheduling comes from a sim.Clock, so a
// run is reproducible bit-for-bit regardless of the order the index
// yields candidates in. A broadcast costs the clock one event per
// distinct delay among its copies — one, on a channel without jitter —
// not one per listener reached, and holds its bytes once: the copies that
// arrive intact share one read-only buffer, and only a corrupted copy
// carries private bytes.
//
// A broadcast may name one addressee (BroadcastTo), as a downlink control
// frame does, and a listener may declare the address it answers to and
// promise that a frame addressed elsewhere has no effect on it
// (Listener.FiltersByAddr). The medium then drops such a copy where a
// radio's hardware address filter would: after the range check and after
// the copy's loss, jitter and corruption draws, testing the destination
// the broadcaster named, not bytes the channel may have corrupted. A
// filtered copy reached a radio, so it counts in Metrics.Deliveries as well
// as in Metrics.Filtered, but it is never handed off: no clock event, no
// Deliver call. Every other counter and every random draw is what it would
// be without the filter, and a filtering listener receives exactly the
// copies addressed to it.
package radio

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/sim"
)

// Band separates uplink (data messages towards the receivers) from
// downlink (control messages towards the sensors); physically these would
// be distinct frequencies.
type Band uint8

const (
	// BandUplink carries sensor data messages to the receiver array.
	BandUplink Band = iota + 1
	// BandDownlink carries control messages from the transmitters to
	// receive-capable sensors.
	BandDownlink

	bandCount = 2
)

// String names the band.
func (b Band) String() string {
	switch b {
	case BandUplink:
		return "uplink"
	case BandDownlink:
		return "downlink"
	default:
		return "band(?)"
	}
}

// Frame is a delivered radio frame. Data is shared and read-only: the
// copies of one broadcast that arrive intact alias one buffer, so a
// recipient must not write into it (a corrupted copy carries private
// bytes, since corruption is simulated per delivery).
//
// A recipient may keep Data for as long as it likes unless its Listener
// set Borrows, in which case Data is the recipient's only until Deliver
// returns: the buffer behind it belongs to the pooled hand-off that
// delivered the frame and carries the next broadcast's bytes afterwards.
type Frame struct {
	Data []byte
	From geo.Point // transmit position (ground truth; used only by the simulator)
	At   time.Time // delivery time on the medium's clock
	// DistSq is the squared transmitter→listener distance at broadcast
	// time. The medium computes it anyway for the range check; carrying
	// it saves every recipient the recomputation (receivers derive their
	// RSSI proxy from it without a per-frame distance calculation).
	DistSq float64
}

// Listener is an attachment point on the medium: a reception zone plus a
// delivery callback. Position is queried at broadcast time so mobile nodes
// (sensors on the downlink band) are heard at their current location.
//
// Deliver runs on the clock's callback goroutine and must not block: the
// copies of one broadcast that share a delay are delivered back-to-back
// in ascending listener id on one callback, so a Deliver that blocks
// delays its siblings. On sim.RealClock a zero-delay callback runs on one
// of a few shared delivery workers rather than on a goroutine of its own:
// a Deliver that never returns no longer leaks just its own goroutine and
// frame, it holds a worker, and enough of them stall zero-delay delivery
// process-wide. Slow consumers belong behind an asynchronous port
// (garnet.WithAsyncDispatch), not inside Deliver.
type Listener struct {
	Name     string
	Position func() geo.Point
	Radius   float64
	Deliver  func(Frame)
	// Static promises that Position never changes after Attach. Static
	// listeners — the fixed receiver array above all — are indexed once
	// and never position-checked again, so broadcasts cost O(listeners
	// actually nearby). Leave false for anything that moves: the medium
	// then re-reads Position on every broadcast on the band and
	// re-buckets the listener when it has drifted.
	Static bool
	// Borrows promises that Deliver keeps nothing that aliases Frame.Data
	// past its return: it decodes, copies or drops the bytes before then.
	// A hand-off whose copies all went to borrowing listeners is recycled
	// buffer and all, so delivery allocates nothing in steady state. Leave
	// false for a Deliver that retains Data (or hands it to code that
	// might): the frame's bytes then go to the garbage collector rather
	// than back to the pool, and stay valid for as long as they are held.
	Borrows bool
	// FiltersByAddr promises that a frame addressed to anyone but Addr has
	// no effect on this listener: Deliver would drop it and change
	// nothing, not even a counter or an energy charge. The medium then
	// drops such copies before the hand-off. Leave false for a listener
	// that pays for, counts or otherwise notices what it overhears; it is
	// then handed every copy in range, as on an unaddressed broadcast.
	FiltersByAddr bool
	// Addr is the address this listener answers to on an addressed
	// broadcast (BroadcastTo). It is read only when FiltersByAddr is set.
	Addr uint32
}

// Params configures medium impairments. The zero value is a perfect,
// zero-latency channel.
type Params struct {
	// LossProb is the probability an individual delivery is lost.
	LossProb float64
	// CorruptProb is the probability an individual delivery has one byte
	// flipped (screened out downstream by the frame checksum).
	CorruptProb float64
	// DelayMin and DelayMax bound the uniform propagation+MAC delay applied
	// to each delivery.
	DelayMin, DelayMax time.Duration
	// Seed seeds the medium's private random stream.
	Seed uint64
	// gridCell is the cell edge length (metres) of the spatial index
	// holding the listeners. Tests set it; zero picks the first
	// listener's reception radius on each band, which suits fields whose
	// zones are of roughly one scale.
	gridCell float64
}

// Metrics counts medium activity. Read with atomic-safe Value calls.
type Metrics struct {
	Broadcasts metrics.Counter // frames offered to the medium
	Deliveries metrics.Counter // copies that reached a listener's radio, Filtered included
	Lost       metrics.Counter // copies dropped by the loss process
	Corrupted  metrics.Counter // copies delivered with a flipped byte
	OutOfRange metrics.Counter // broadcasts that reached zero listeners
	// Filtered counts copies of addressed broadcasts that a listener's
	// address filter dropped (Listener.FiltersByAddr) in place of
	// delivering them. They are counted when broadcast; the copies handed
	// to a Deliver are counted in Deliveries when they fire.
	Filtered metrics.Counter
}

// listenerEntry is one attached listener plus its index bookkeeping.
type listenerEntry struct {
	id  int
	l   *Listener
	pos geo.Point // the position the band grid currently has it bucketed at
}

// bandState indexes one band's listeners.
type bandState struct {
	grid   *geo.Grid        // coverage circles; created at first Attach
	order  []*listenerEntry // attach order (reference scans)
	mobile []*listenerEntry // attach-ordered subset with Static unset
}

// Medium is the simulated shared wireless channel.
type Medium struct {
	clock  sim.Clock
	sched  func(time.Duration, func()) // fire-and-forget scheduling
	params Params
	seed   uint64 // base for per-delivery stream derivation

	mu      sync.Mutex
	bands   [bandCount]bandState
	byID    []*listenerEntry // dense lookup by listener id; nil = detached
	freeIDs []int            // detached ids, reused so byID stays bounded by peak attachment
	nextID  int
	bcast   uint64 // broadcasts offered so far, keys per-delivery randomness

	// linearScan bypasses the spatial index and scans every listener in
	// attach order — the reference implementation the grid is
	// differentially tested against (outcomes must match bit-for-bit
	// because per-delivery randomness is iteration-order-independent).
	// Test-only; never set in production paths.
	linearScan bool

	metrics Metrics
}

// NewMedium creates a medium on the given clock. NewMedium panics if
// DelayMax < DelayMin (a configuration programming error).
func NewMedium(clock sim.Clock, p Params) *Medium {
	if p.DelayMax < p.DelayMin {
		panic("radio: DelayMax < DelayMin")
	}
	m := &Medium{
		clock:  clock,
		params: p,
		seed:   sim.SubSeed(p.Seed, "radio.medium"),
	}
	if s, ok := clock.(sim.Scheduler); ok {
		m.sched = s.ScheduleFunc
	} else {
		m.sched = func(d time.Duration, f func()) { clock.AfterFunc(d, f) }
	}
	return m
}

// gridCellFor picks the cell size for a band's index: the configured
// gridCell, or the first listener's radius (a circle then spans ~9
// cells and a point query scans one small bucket).
func (m *Medium) gridCellFor(l *Listener) float64 {
	if m.params.gridCell > 0 {
		return m.params.gridCell
	}
	if l.Radius > 0 && !math.IsInf(l.Radius, 1) {
		return l.Radius
	}
	return 1
}

// Attach registers a listener on a band and returns a function that
// detaches it. Attach panics on an undefined band or a nil Position or
// Deliver (programming errors).
func (m *Medium) Attach(band Band, l *Listener) (detach func()) {
	if band != BandUplink && band != BandDownlink {
		panic("radio: invalid band")
	}
	if l.Position == nil || l.Deliver == nil {
		panic("radio: listener needs Position and Deliver")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var id int
	if n := len(m.freeIDs); n > 0 {
		// Reuse a detached id so byID stays bounded by the peak attachment
		// count under attach/detach churn. Safe for reproducibility: id
		// assignment is a pure function of the attach/detach sequence, and
		// per-delivery randomness also keys on the broadcast counter.
		id = m.freeIDs[n-1]
		m.freeIDs = m.freeIDs[:n-1]
	} else {
		id = m.nextID
		m.nextID++
		m.byID = append(m.byID, nil) // id == len(byID)-1
	}
	bs := &m.bands[band-1]
	e := &listenerEntry{id: id, l: l, pos: l.Position()}
	if bs.grid == nil {
		bs.grid = geo.NewGrid(m.gridCellFor(l))
	}
	bs.grid.Insert(id, geo.Circle{Center: e.pos, R: l.Radius})
	bs.order = append(bs.order, e)
	if !l.Static {
		bs.mobile = append(bs.mobile, e)
	}
	m.byID[id] = e
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			bs.grid.Remove(id)
			m.byID[id] = nil
			m.freeIDs = append(m.freeIDs, id)
			bs.order = removeEntry(bs.order, e)
			if !l.Static {
				bs.mobile = removeEntry(bs.mobile, e)
			}
		})
	}
}

// removeEntry deletes e from s preserving order (clearing the vacated
// tail slot so the slice does not retain the listener).
func removeEntry(s []*listenerEntry, e *listenerEntry) []*listenerEntry {
	if i := slices.Index(s, e); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// delivery is one copy of a broadcast: decided under the medium lock,
// handed to its listener by a handoff.
type delivery struct {
	l       *Listener
	delay   time.Duration
	distSq  float64
	flipPos int
	flipBit byte // what corruption flips at flipPos; zero = delivered intact
	private int  // a corrupted copy's bytes start here in handoff.private
}

// handoff is the pooled working set of one broadcast — candidate ids from
// the grid query, then the decided copies — and, once scheduled, the one
// clock event that delivers the copies: they share a delay, so they arrive
// at one instant and fire back-to-back in ascending listener id.
//
// It also holds what the copies carry: the broadcast's bytes once, aliased
// by every intact copy, plus private bytes per corrupted copy. The handoff
// returns to its pool when run returns — with those buffers only if every
// recipient promised to have finished with them by then (Listener.Borrows).
type handoff struct {
	ids    []int
	copies []delivery
	m      *Medium
	from   geo.Point
	fire   func()

	data    []byte // the broadcast's bytes
	private []byte // the corrupted copies' bytes, len(data) each
}

var handoffPool = sync.Pool{New: func() any { return new(handoff) }}

// newHandoff draws a handoff for a broadcast from the given position.
func (m *Medium) newHandoff(from geo.Point) *handoff {
	h := handoffPool.Get().(*handoff)
	if h.fire == nil {
		h.fire = h.run // bound once per pooled object: scheduling allocates nothing
	}
	h.m, h.from, h.ids = m, from, h.ids[:0]
	return h
}

// recycle pools a handoff nothing refers to any more.
func (h *handoff) recycle() {
	clear(h.copies) // drop listener references before pooling
	h.copies, h.m = h.copies[:0], nil
	handoffPool.Put(h)
}

// schedule loads the broadcast's bytes — once, plus a private flipped copy
// per corrupted delivery — and hands the handoff to the clock. The caller
// must not touch h afterwards.
func (h *handoff) schedule(data []byte) {
	h.data = append(h.data[:0], data...)
	h.private = h.private[:0]
	for i := range h.copies {
		if c := &h.copies[i]; c.flipBit != 0 {
			c.private = len(h.private)
			h.private = append(h.private, data...)
			h.private[c.private+c.flipPos] ^= c.flipBit
		}
	}
	h.m.sched(h.copies[0].delay, h.fire)
}

// run delivers the copies and pools the handoff. A Deliver that broadcasts
// again draws another handoff (h is not pooled until run returns), which
// fires after h's other copies. A recipient that did not promise to borrow
// may still hold the bytes, so they are left to the collector.
func (h *handoff) run() {
	m, at := h.m, h.m.clock.Now() // one instant: the copies share a delay
	m.metrics.Deliveries.Add(int64(len(h.copies)))
	n := len(h.data)
	intact := h.data[:n:n] // capacity clipped: an append by a recipient cannot reach a sibling's bytes
	borrowed := true
	for _, c := range h.copies {
		data := intact
		if c.flipBit != 0 {
			data = h.private[c.private : c.private+n : c.private+n]
		}
		borrowed = borrowed && c.l.Borrows
		c.l.Deliver(Frame{Data: data, From: h.from, At: at, DistSq: c.distSq})
	}
	if !borrowed {
		h.data, h.private = nil, nil
	}
	h.recycle()
}

// Broadcast offers a frame to the medium from a transmit position with a
// transmit range. Every listener on the band whose zone covers the
// transmitter and that sits within txRange receives a copy, subject to
// loss, delay and corruption. The data slice is copied immediately; the
// caller may reuse it.
//
// Copies that share a delay share one clock event and fire in (delay,
// listener id) order: what one event per copy fires in on a VirtualClock.
//
// Cost is O(mobile listeners + grid cells + listeners reached): only the
// spatial-index candidates are distance-checked, and each candidate's
// loss/jitter/corruption comes from its own derived stream, so no global
// RNG serialises concurrent broadcasts.
func (m *Medium) Broadcast(band Band, from geo.Point, txRange float64, data []byte) {
	m.broadcast(band, from, txRange, 0, false, data)
}

// BroadcastTo is Broadcast for a frame addressed to dst: a copy bound for a
// listener that filters by address (Listener.FiltersByAddr) and answers to
// another address is counted in Deliveries and Filtered and goes no
// further. Every other listener in range receives its copy as from
// Broadcast.
func (m *Medium) BroadcastTo(band Band, from geo.Point, txRange float64, dst uint32, data []byte) {
	m.broadcast(band, from, txRange, dst, true, data)
}

func (m *Medium) broadcast(band Band, from geo.Point, txRange float64, dst uint32, addressed bool, data []byte) {
	m.metrics.Broadcasts.Inc()
	h := m.newHandoff(from)
	jitter := m.params.DelayMax - m.params.DelayMin
	impaired := m.params.LossProb > 0 || jitter > 0 || m.params.CorruptProb > 0

	m.mu.Lock()
	m.bcast++
	bs := &m.bands[band-1]
	// Lazily re-bucket mobile listeners: position functions are live (a
	// sensor roams between broadcasts), so each mobile listener gets one
	// position check per broadcast and a grid move only when it drifted.
	for _, e := range bs.mobile {
		if pos := e.l.Position(); pos != e.pos {
			bs.grid.Move(e.id, geo.Circle{Center: pos, R: e.l.Radius})
			e.pos = pos
		}
	}
	reached, filtered := 0, int64(0)
	txRangeSq := txRange * txRange
	if bs.grid != nil {
		if m.linearScan {
			for _, e := range bs.order {
				h.ids = append(h.ids, e.id)
			}
		} else {
			h.ids = bs.grid.AppendCovering(h.ids, from)
			// Canonical scheduling order: grid bucketing details (cell
			// size, overflow list, mobility re-bucket history) must never
			// leak into the order equal-time deliveries fire in, so the
			// candidate walk is pinned to ascending id. Grid cell size
			// stays a pure performance knob.
			slices.Sort(h.ids)
		}
	}
	for _, id := range h.ids {
		e := m.byID[id]
		d2 := from.DistSq(e.pos)
		if d2 > txRangeSq || d2 > e.l.Radius*e.l.Radius {
			continue
		}
		reached++
		var rng deliveryRand
		if impaired { // on a perfect channel nothing below draws from it
			rng = newDeliveryRand(m.seed, m.bcast, e.id)
		}
		if m.params.LossProb > 0 && rng.float64() < m.params.LossProb {
			m.metrics.Lost.Inc()
			continue
		}
		dv := delivery{l: e.l, delay: m.params.DelayMin, distSq: d2}
		if jitter > 0 {
			// Clamped as the clock clamps, so that every delay that means
			// "now" lands in one group.
			dv.delay = max(dv.delay+time.Duration(rng.int64n(int64(jitter)+1)), 0)
		}
		if m.params.CorruptProb > 0 && rng.float64() < m.params.CorruptProb && len(data) > 0 {
			dv.flipPos = rng.intn(len(data))
			dv.flipBit = byte(1) << rng.intn(8)
			m.metrics.Corrupted.Inc()
		}
		if addressed && e.l.FiltersByAddr && e.l.Addr != dst {
			filtered++
			continue
		}
		h.copies = append(h.copies, dv)
	}
	m.mu.Unlock()

	if reached == 0 {
		m.metrics.OutOfRange.Inc()
	}
	if filtered > 0 {
		m.metrics.Deliveries.Add(filtered)
		m.metrics.Filtered.Add(filtered)
	}
	if len(h.copies) == 0 {
		h.recycle()
		return
	}
	if jitter > 0 {
		// Distinct delays keep their own events: order by (delay, listener
		// id) and peel each later run of equal delay off into its own handoff.
		slices.SortStableFunc(h.copies, func(a, b delivery) int { return cmp.Compare(a.delay, b.delay) })
		for i := len(h.copies) - 1; i > 0; i-- {
			if h.copies[i-1].delay != h.copies[i].delay {
				t := m.newHandoff(from)
				t.copies = append(t.copies, h.copies[i:]...)
				h.copies = slices.Delete(h.copies, i, len(h.copies)) // zeroes the tail
				t.schedule(data)
			}
		}
	}
	h.schedule(data)
}

// Metrics exposes the medium's counters.
func (m *Medium) Metrics() *Metrics { return &m.metrics }
