package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// spanName identifies the layer boundary a span was recorded at. The names
// are the per-layer metric prefixes of BENCHMARK.json.
type spanName uint8

const (
	spOp spanName = iota // one whole operation of the script; the root of a trace
	spWireEncode
	spWireDecode
	spSensorSample
	spSensorDownlink
	spReceiverFrame
	spLocationObserve
	spFilterIngest
	spStoreAppend
	spStoreRange
	spStoreJoin
	spStoreLatest
	spDispatch
	spRegistryRequire
	spResourceSubmit
	spActuationIssue
	spActuationHandleAck
	spReplicatorSend
	spTransmitBroadcast
	spTimer // a clock callback that belongs to no layer boundary above (retry timers)
	spanNames
)

var spanLabels = [spanNames]string{
	spOp:                 "op",
	spWireEncode:         "wire.encode",
	spWireDecode:         "wire.decode",
	spSensorSample:       "sensor.sample",
	spSensorDownlink:     "sensor.downlink",
	spReceiverFrame:      "receiver.frame",
	spLocationObserve:    "location.observe",
	spFilterIngest:       "filtering.ingest",
	spStoreAppend:        "store.append",
	spStoreRange:         "store.range",
	spStoreJoin:          "store.join",
	spStoreLatest:        "store.latest",
	spDispatch:           "dispatch.dispatch",
	spRegistryRequire:    "registry.require",
	spResourceSubmit:     "resource.submit",
	spActuationIssue:     "actuation.issue",
	spActuationHandleAck: "actuation.handle_ack",
	spReplicatorSend:     "replicator.send",
	spTransmitBroadcast:  "transmit.broadcast",
	spTimer:              "clock.timer",
}

// span is one recorded call into a layer. In timing mode start and end are
// nanoseconds since the tracer's epoch; in alloc mode they are the
// process's cumulative heap object count, so the same self-time arithmetic
// yields objects allocated by the layer itself.
type span struct {
	name     spanName
	parent   int32 // index of the enclosing span, -1 for a root
	children int32
	trace    uint64 // id of the script operation that caused the span
	start    int64
	end      int64
}

// tracer records spans from the benchmark's driver goroutine only; the
// chain's callbacks all run on that goroutine, so no locking is needed. A
// nil tracer records nothing, which is the untraced pass.
type tracer struct {
	epoch  time.Time
	on     bool // off during set-up and warm-up
	allocs bool // alloc mode: stamp spans with heap object counts
	spans  []span
	top    int32
	trace  uint64
	ms     runtime.MemStats
}

func newTracer(capacity int, allocs bool) *tracer {
	return &tracer{epoch: time.Now(), allocs: allocs, spans: make([]span, 0, capacity), top: -1}
}

func (t *tracer) stamp() int64 {
	if t.allocs {
		// ReadMemStats flushes the per-P allocation caches, so the count is
		// exact; runtime/metrics' /gc/heap/allocs:objects lags by up to one
		// cache span per size class, which is useless at span granularity.
		runtime.ReadMemStats(&t.ms)
		return int64(t.ms.Mallocs)
	}
	return int64(time.Since(t.epoch))
}

// enable turns recording on or off; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on = on
	}
}

func (t *tracer) setTrace(id uint64) {
	if t != nil {
		t.trace = id
	}
}

// begin opens a span under the current one and returns its handle.
func (t *tracer) begin(n spanName) int32 {
	if t == nil || !t.on {
		return -1
	}
	i := int32(len(t.spans))
	if t.top >= 0 {
		t.spans[t.top].children++
	}
	t.spans = append(t.spans, span{name: n, parent: t.top, trace: t.trace})
	t.top = i
	t.spans[i].start = t.stamp()
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = t.stamp()
	t.top = t.spans[i].parent
}

// layerCost is the aggregate of one span name over a pass.
type layerCost struct {
	Calls int64   `json:"calls"`
	Self  float64 `json:"self"`  // summed self time (ns) or self allocations (objects)
	Total float64 `json:"total"` // summed duration including children
}

func (c layerCost) perCall() float64 {
	if c.Calls == 0 {
		return 0
	}
	return c.Self / float64(c.Calls)
}

// aggregate computes each layer's self cost: a span's duration minus the
// part its children cover. in and out are the calibrated bookkeeping costs
// (see calibrate) removed per span and per child.
func (t *tracer) aggregate(in, out float64) [spanNames]layerCost {
	var agg [spanNames]layerCost
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		self[i] += float64(t.spans[i].end - t.spans[i].start)
		if p := t.spans[i].parent; p >= 0 {
			self[p] -= float64(t.spans[i].end - t.spans[i].start)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		v := self[i] - in - float64(s.children)*out
		if v < 0 {
			v = 0
		}
		a := &agg[s.name]
		a.Calls++
		a.Self += v
		a.Total += float64(s.end - s.start)
	}
	return agg
}

// injectSums returns, for every accepted reception of the pass (a
// filtering.ingest span with children), the summed self time of its
// filter, store and dispatch stages, sorted. It is the traced counterpart
// of one whole InjectReception call on the real deployment.
func (t *tracer) injectSums(in, out float64) []int64 {
	dur := func(s *span) float64 { return float64(s.end - s.start) }
	sums := make(map[int32]float64)
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.name == spFilterIngest && s.children > 0:
			// The whole interval, less what the calibration says recording
			// added to it; children that are not stages of the budget are
			// taken out below.
			sums[int32(i)] += dur(s) - in - float64(s.children)*out
		case s.parent >= 0 && t.spans[s.parent].name == spFilterIngest:
			if s.name == spStoreAppend || s.name == spDispatch {
				sums[s.parent] -= in
			} else {
				sums[s.parent] -= dur(s)
			}
		}
	}
	sorted := make([]int64, 0, len(sums))
	for _, v := range sums {
		sorted = append(sorted, int64(v))
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// calibrate measures what recording costs the spans themselves: in is the
// time an empty span appears to take (clock reads inside its interval), out
// is what an empty child adds to its parent's self time beyond the child's
// own interval (the rest of the clock reads plus the bookkeeping).
func calibrate() (in, out float64) {
	const n = 50000
	t := newTracer(3*n, false)
	t.on = true
	for i := 0; i < n; i++ {
		p := t.begin(spOp)
		c := t.begin(spTimer)
		t.end(c)
		t.end(p)
		l := t.begin(spWireEncode) // childless reference
		t.end(l)
	}
	agg := t.aggregate(0, 0)
	in = agg[spWireEncode].perCall()
	out = agg[spOp].perCall() - in
	if out < 0 {
		out = 0
	}
	return in, out
}

// traceFile is what a traced run leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      int    `json:"ops"`
	// CalibrationNs is the per-span and per-child recording cost removed
	// from every self time.
	CalibrationNs [2]float64           `json:"calibration_ns"`
	Layers        map[string]layerCost `json:"layers_ns"`
	Allocs        map[string]layerCost `json:"layers_allocs"`
	// Spans holds every span of the first traces in full; the aggregate
	// above covers the whole pass.
	SpanTraces int        `json:"span_traces"`
	Spans      []spanJSON `json:"spans"`
}

type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// dumpedSpans bounds how many spans are written out in full, cut at a trace
// boundary; a pass records millions, which as JSON would be ~100 MB.
const dumpedSpans = 20000

// firstSpans returns the spans of the first traces in full, and how many
// traces that is.
func (t *tracer) firstSpans() (out []spanJSON, traces int) {
	last := ^uint64(0)
	for i, s := range t.spans {
		if s.parent < 0 && s.trace != last {
			if i >= dumpedSpans {
				break
			}
			traces++
			last = s.trace
		}
		out = append(out, spanJSON{ID: i, Parent: int(s.parent), Trace: s.trace,
			Name: spanLabels[s.name], StartNs: s.start, EndNs: s.end})
	}
	return out, traces
}

func layerMap(agg [spanNames]layerCost) map[string]layerCost {
	m := make(map[string]layerCost)
	for n, c := range agg {
		if c.Calls > 0 {
			m[spanLabels[n]] = c
		}
	}
	return m
}

func writeTraceFile(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
