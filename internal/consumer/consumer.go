// Package consumer provides the consumer-process framework of §4.2:
// building blocks for applications that subscribe to Garnet streams, and
// the multi-level consumption mechanism — “consumer processes may generate
// further derived data streams by performing additional processing on
// received data”, forming “an essentially arbitrary graph of consumer
// processes and data streams over the Garnet middleware” (§6).
//
// Derived streams are published under virtual sensor ids (the range from
// VirtualSensorBase up) so they flow through the same filtering,
// dispatching, discovery and orphanage machinery as physical streams, and
// higher-level consumers subscribe to them exactly as they would to a
// sensor.
package consumer

import (
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// VirtualSensorBase is the first sensor id reserved for derived-stream
// publishers. Physical sensors must use ids below it.
const VirtualSensorBase wire.SensorID = 0xF0_0000

// Publisher injects derived messages into the middleware; the deployment
// core implements it by feeding the Dispatching Service.
type Publisher interface {
	PublishDerived(msg wire.Message, at time.Time)
}

// PublisherFunc adapts a function to Publisher.
type PublisherFunc func(msg wire.Message, at time.Time)

// PublishDerived implements Publisher.
func (f PublisherFunc) PublishDerived(msg wire.Message, at time.Time) { f(msg, at) }

// DerivedStream manages sequence numbering and flags for one derived
// stream. Safe for concurrent use.
type DerivedStream struct {
	pub    Publisher
	stream wire.StreamID
	flags  wire.Flags

	mu  sync.Mutex
	seq wire.Seq
}

// NewDerivedStream creates a derived stream publisher. Panics on a nil
// Publisher (programming error).
func NewDerivedStream(pub Publisher, stream wire.StreamID, flags wire.Flags) *DerivedStream {
	if pub == nil {
		panic("consumer: nil publisher")
	}
	return &DerivedStream{pub: pub, stream: stream, flags: flags}
}

// Stream returns the derived stream's id.
func (d *DerivedStream) Stream() wire.StreamID { return d.stream }

// Emit publishes one derived message with the next sequence number.
func (d *DerivedStream) Emit(payload []byte, at time.Time) {
	d.emit(payload, at, 0)
}

// EmitFused publishes one derived message marked as fused from n sources.
func (d *DerivedStream) EmitFused(payload []byte, at time.Time, n int) {
	if n > 255 {
		n = 255
	}
	d.emit(payload, at, uint8(n))
}

func (d *DerivedStream) emit(payload []byte, at time.Time, fused uint8) {
	d.mu.Lock()
	seq := d.seq
	d.seq = d.seq.Next()
	d.mu.Unlock()
	msg := wire.Message{
		Flags:   d.flags,
		Stream:  d.stream,
		Seq:     seq,
		Payload: payload,
	}
	if fused > 0 {
		msg.Flags |= wire.FlagFused
		msg.FusedCount = fused
	}
	d.pub.PublishDerived(msg, at)
}

// Recorder is a consumer that stores the deliveries it receives, keeping
// at most its capacity (oldest discarded). It is the workhorse of tests,
// examples and the experiment harness.
type Recorder struct {
	name string
	cap  int

	mu         sync.Mutex
	deliveries []filtering.Delivery
	total      int64
}

// NewRecorder creates a Recorder keeping up to capacity deliveries
// (default 1024 when capacity <= 0).
func NewRecorder(name string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{name: name, cap: capacity}
}

// Name implements dispatch.Consumer.
func (r *Recorder) Name() string { return r.name }

// Consume implements dispatch.Consumer.
func (r *Recorder) Consume(d filtering.Delivery) {
	r.mu.Lock()
	if len(r.deliveries) >= r.cap {
		r.deliveries = r.deliveries[1:]
	}
	r.deliveries = append(r.deliveries, d)
	r.total++
	r.mu.Unlock()
}

// Deliveries returns a copy of the retained deliveries, oldest first.
func (r *Recorder) Deliveries() []filtering.Delivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]filtering.Delivery, len(r.deliveries))
	copy(out, r.deliveries)
	return out
}

// Count returns the total number of deliveries ever consumed.
func (r *Recorder) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns the most recent delivery.
func (r *Recorder) Last() (filtering.Delivery, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.deliveries) == 0 {
		return filtering.Delivery{}, false
	}
	return r.deliveries[len(r.deliveries)-1], true
}

// AggregateKind selects a window aggregate.
type AggregateKind int

const (
	// AggregateMean emits the arithmetic mean of the window.
	AggregateMean AggregateKind = iota + 1
	// AggregateMin emits the smallest reading.
	AggregateMin
	// AggregateMax emits the largest reading.
	AggregateMax
)

// WindowAggregator is a level-1 consumer: it consumes scalar readings
// (sensor.EncodeReading payloads), folds every `window` of them into one
// aggregate, and emits the aggregate on a derived stream — the canonical
// multi-level consumption example.
type WindowAggregator struct {
	name   string
	out    *DerivedStream
	window int
	kind   AggregateKind

	mu     sync.Mutex
	values []float64
	lastAt time.Time
}

// NewWindowAggregator creates an aggregator emitting on out every window
// readings. Panics on window < 1 or nil out (programming errors).
func NewWindowAggregator(name string, out *DerivedStream, window int, kind AggregateKind) *WindowAggregator {
	if window < 1 {
		panic("consumer: window must be >= 1")
	}
	if out == nil {
		panic("consumer: nil derived stream")
	}
	return &WindowAggregator{name: name, out: out, window: window, kind: kind}
}

// Name implements dispatch.Consumer.
func (w *WindowAggregator) Name() string { return w.name }

// Consume implements dispatch.Consumer. Non-reading payloads are ignored.
func (w *WindowAggregator) Consume(d filtering.Delivery) {
	v, at, ok := sensor.DecodeReading(d.Msg.Payload)
	if !ok {
		return
	}
	w.mu.Lock()
	w.values = append(w.values, v)
	w.lastAt = at
	if len(w.values) < w.window {
		w.mu.Unlock()
		return
	}
	agg := aggregate(w.kind, w.values)
	emitAt := w.lastAt
	w.values = w.values[:0]
	w.mu.Unlock()
	w.out.Emit(sensor.EncodeReading(agg, emitAt), emitAt)
}

func aggregate(kind AggregateKind, values []float64) float64 {
	switch kind {
	case AggregateMin:
		m := values[0]
		for _, v := range values[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggregateMax:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m
	default: // AggregateMean
		var sum float64
		for _, v := range values {
			sum += v
		}
		return sum / float64(len(values))
	}
}

// Event is a threshold crossing detected by a ThresholdDetector.
type Event struct {
	Stream wire.StreamID // source stream that crossed
	Value  float64
	At     time.Time
	Rising bool // true when crossing above the threshold
}

// ThresholdDetector is a consumer that watches scalar readings and fires
// events on threshold crossings with hysteresis: a rising event at
// value >= Threshold, and a falling event only after the value drops below
// Threshold - Hysteresis. State is tracked per source stream.
type ThresholdDetector struct {
	name       string
	threshold  float64
	hysteresis float64
	onEvent    func(Event)
	out        *DerivedStream // optional: events also published as a derived stream

	mu    sync.Mutex
	above map[wire.StreamID]bool
}

// NewThresholdDetector creates a detector. onEvent may be nil when out is
// set, and vice versa; panics if both are nil (the detector would be
// pointless).
func NewThresholdDetector(name string, threshold, hysteresis float64, onEvent func(Event), out *DerivedStream) *ThresholdDetector {
	if onEvent == nil && out == nil {
		panic("consumer: detector needs onEvent or a derived stream")
	}
	return &ThresholdDetector{
		name:       name,
		threshold:  threshold,
		hysteresis: hysteresis,
		onEvent:    onEvent,
		out:        out,
		above:      make(map[wire.StreamID]bool),
	}
}

// Name implements dispatch.Consumer.
func (t *ThresholdDetector) Name() string { return t.name }

// Consume implements dispatch.Consumer.
func (t *ThresholdDetector) Consume(d filtering.Delivery) {
	v, at, ok := sensor.DecodeReading(d.Msg.Payload)
	if !ok {
		return
	}
	t.mu.Lock()
	above := t.above[d.Msg.Stream]
	var ev *Event
	switch {
	case !above && v >= t.threshold:
		t.above[d.Msg.Stream] = true
		ev = &Event{Stream: d.Msg.Stream, Value: v, At: at, Rising: true}
	case above && v < t.threshold-t.hysteresis:
		t.above[d.Msg.Stream] = false
		ev = &Event{Stream: d.Msg.Stream, Value: v, At: at, Rising: false}
	}
	t.mu.Unlock()
	if ev == nil {
		return
	}
	if t.onEvent != nil {
		t.onEvent(*ev)
	}
	if t.out != nil {
		t.out.Emit(sensor.EncodeReading(ev.Value, ev.At), ev.At)
	}
}

// Fusion is a consumer that tracks the latest reading from each source
// stream and, whenever every expected source has reported, emits
// reduce(latest values) as a fused derived message (wire.FlagFused).
type Fusion struct {
	name    string
	out     *DerivedStream
	sources []wire.StreamID
	reduce  func([]float64) float64

	mu     sync.Mutex
	latest map[wire.StreamID]float64
}

// NewFusion creates a fusion consumer over the given source streams.
// Panics on empty sources, nil reduce or nil out (programming errors).
func NewFusion(name string, out *DerivedStream, sources []wire.StreamID, reduce func([]float64) float64) *Fusion {
	if len(sources) == 0 || reduce == nil || out == nil {
		panic("consumer: fusion needs sources, reduce and an output stream")
	}
	cp := make([]wire.StreamID, len(sources))
	copy(cp, sources)
	return &Fusion{
		name:    name,
		out:     out,
		sources: cp,
		reduce:  reduce,
		latest:  make(map[wire.StreamID]float64),
	}
}

// Name implements dispatch.Consumer.
func (f *Fusion) Name() string { return f.name }

// Consume implements dispatch.Consumer.
func (f *Fusion) Consume(d filtering.Delivery) {
	v, at, ok := sensor.DecodeReading(d.Msg.Payload)
	if !ok {
		return
	}
	relevant := false
	for _, s := range f.sources {
		if s == d.Msg.Stream {
			relevant = true
			break
		}
	}
	if !relevant {
		return
	}
	f.mu.Lock()
	f.latest[d.Msg.Stream] = v
	if len(f.latest) < len(f.sources) {
		f.mu.Unlock()
		return
	}
	values := make([]float64, 0, len(f.sources))
	for _, s := range f.sources {
		values = append(values, f.latest[s])
	}
	f.mu.Unlock()
	f.out.EmitFused(sensor.EncodeReading(f.reduce(values), at), at, len(values))
}
