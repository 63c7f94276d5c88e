package consumer

import (
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

type pubRecorder struct {
	mu   sync.Mutex
	msgs []wire.Message
	ats  []time.Time
}

func (p *pubRecorder) PublishDerived(msg wire.Message, at time.Time) {
	p.mu.Lock()
	p.msgs = append(p.msgs, msg)
	p.ats = append(p.ats, at)
	p.mu.Unlock()
}

func (p *pubRecorder) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.msgs)
}

func reading(stream wire.StreamID, seq wire.Seq, v float64, at time.Time) filtering.Delivery {
	return filtering.Delivery{
		Msg: wire.Message{Stream: stream, Seq: seq, Payload: sensor.EncodeReading(v, at)},
		At:  at,
	}
}

func TestDerivedStreamSequencesAndFlags(t *testing.T) {
	var pub pubRecorder
	id := wire.MustStreamID(VirtualSensorBase, 0)
	ds := NewDerivedStream(&pub, id, wire.FlagEncrypted)
	ds.Emit([]byte("a"), epoch)
	ds.Emit([]byte("b"), epoch.Add(time.Second))
	if pub.count() != 2 {
		t.Fatalf("published %d", pub.count())
	}
	if pub.msgs[0].Seq != 0 || pub.msgs[1].Seq != 1 {
		t.Fatalf("seqs = %d, %d", pub.msgs[0].Seq, pub.msgs[1].Seq)
	}
	if pub.msgs[0].Stream != id || !pub.msgs[0].Flags.Has(wire.FlagEncrypted) {
		t.Fatalf("msg = %+v", pub.msgs[0])
	}
}

func TestDerivedStreamEmitFused(t *testing.T) {
	var pub pubRecorder
	ds := NewDerivedStream(&pub, wire.MustStreamID(VirtualSensorBase, 1), 0)
	ds.EmitFused([]byte("f"), epoch, 3)
	ds.EmitFused([]byte("g"), epoch, 500) // clamps to 255
	if !pub.msgs[0].Flags.Has(wire.FlagFused) || pub.msgs[0].FusedCount != 3 {
		t.Fatalf("fused msg = %+v", pub.msgs[0])
	}
	if pub.msgs[1].FusedCount != 255 {
		t.Fatalf("fused count = %d, want clamped 255", pub.msgs[1].FusedCount)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder("rec", 3)
	if r.Name() != "rec" {
		t.Fatal("name")
	}
	if _, ok := r.Last(); ok {
		t.Fatal("empty recorder has a last delivery")
	}
	src := wire.MustStreamID(1, 0)
	for i := 0; i < 5; i++ {
		r.Consume(reading(src, wire.Seq(i), float64(i), epoch))
	}
	if r.Count() != 5 {
		t.Fatalf("Count = %d", r.Count())
	}
	ds := r.Deliveries()
	if len(ds) != 3 {
		t.Fatalf("retained %d, want 3", len(ds))
	}
	if ds[0].Msg.Seq != 2 {
		t.Fatalf("oldest retained = %d, want 2", ds[0].Msg.Seq)
	}
	last, ok := r.Last()
	if !ok || last.Msg.Seq != 4 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

func TestWindowAggregatorMean(t *testing.T) {
	var pub pubRecorder
	ds := NewDerivedStream(&pub, wire.MustStreamID(VirtualSensorBase, 0), 0)
	agg := NewWindowAggregator("agg", ds, 3, AggregateMean)
	src := wire.MustStreamID(1, 0)

	for i, v := range []float64{1, 2, 3, 10, 20, 30} {
		agg.Consume(reading(src, wire.Seq(i), v, epoch.Add(time.Duration(i)*time.Second)))
	}
	if pub.count() != 2 {
		t.Fatalf("aggregates = %d, want 2", pub.count())
	}
	v0, _, _ := sensor.DecodeReading(pub.msgs[0].Payload)
	v1, _, _ := sensor.DecodeReading(pub.msgs[1].Payload)
	if v0 != 2 || v1 != 20 {
		t.Fatalf("aggregates = %v, %v; want 2 and 20", v0, v1)
	}
}

func TestWindowAggregatorMinMax(t *testing.T) {
	for _, tt := range []struct {
		kind AggregateKind
		want float64
	}{{AggregateMin, -5}, {AggregateMax, 9}} {
		var pub pubRecorder
		ds := NewDerivedStream(&pub, wire.MustStreamID(VirtualSensorBase, 0), 0)
		agg := NewWindowAggregator("agg", ds, 3, tt.kind)
		src := wire.MustStreamID(1, 0)
		for i, v := range []float64{2, -5, 9} {
			agg.Consume(reading(src, wire.Seq(i), v, epoch))
		}
		got, _, _ := sensor.DecodeReading(pub.msgs[0].Payload)
		if got != tt.want {
			t.Errorf("kind %v: got %v, want %v", tt.kind, got, tt.want)
		}
	}
}

func TestWindowAggregatorIgnoresNonReadings(t *testing.T) {
	var pub pubRecorder
	ds := NewDerivedStream(&pub, wire.MustStreamID(VirtualSensorBase, 0), 0)
	agg := NewWindowAggregator("agg", ds, 1, AggregateMean)
	agg.Consume(filtering.Delivery{Msg: wire.Message{Stream: wire.MustStreamID(1, 0), Payload: []byte("junk")}})
	if pub.count() != 0 {
		t.Fatal("non-reading payload aggregated")
	}
}

func TestThresholdDetectorHysteresis(t *testing.T) {
	var events []Event
	det := NewThresholdDetector("flood", 3.0, 0.5, func(e Event) { events = append(events, e) }, nil)
	src := wire.MustStreamID(1, 0)

	seq := wire.Seq(0)
	feed := func(v float64) {
		det.Consume(reading(src, seq, v, epoch))
		seq++
	}
	feed(1.0) // below: nothing
	feed(3.2) // rising event
	feed(3.8) // still above: nothing
	feed(2.8) // inside hysteresis band [2.5, 3): nothing
	feed(2.2) // below band: falling event
	feed(3.5) // rising again

	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if !events[0].Rising || events[1].Rising || !events[2].Rising {
		t.Fatalf("event directions = %+v", events)
	}
	if events[0].Value != 3.2 || events[1].Value != 2.2 {
		t.Fatalf("event values = %+v", events)
	}
}

func TestThresholdDetectorPerStreamState(t *testing.T) {
	var events []Event
	det := NewThresholdDetector("d", 5, 0, func(e Event) { events = append(events, e) }, nil)
	a, b := wire.MustStreamID(1, 0), wire.MustStreamID(2, 0)
	det.Consume(reading(a, 0, 9, epoch)) // a rises
	det.Consume(reading(b, 0, 9, epoch)) // b rises independently
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2 (per-stream state)", len(events))
	}
}

func TestThresholdDetectorPublishesDerived(t *testing.T) {
	var pub pubRecorder
	ds := NewDerivedStream(&pub, wire.MustStreamID(VirtualSensorBase, 2), 0)
	det := NewThresholdDetector("d", 5, 0, nil, ds)
	det.Consume(reading(wire.MustStreamID(1, 0), 0, 7, epoch))
	if pub.count() != 1 {
		t.Fatalf("derived events = %d", pub.count())
	}
}

func TestFusionEmitsWhenAllSourcesPresent(t *testing.T) {
	var pub pubRecorder
	ds := NewDerivedStream(&pub, wire.MustStreamID(VirtualSensorBase, 0), 0)
	a, b, c := wire.MustStreamID(1, 0), wire.MustStreamID(2, 0), wire.MustStreamID(3, 0)
	sum := func(vs []float64) float64 {
		var s float64
		for _, v := range vs {
			s += v
		}
		return s
	}
	fu := NewFusion("fuse", ds, []wire.StreamID{a, b, c}, sum)

	fu.Consume(reading(a, 0, 1, epoch))
	fu.Consume(reading(b, 0, 2, epoch))
	if pub.count() != 0 {
		t.Fatal("fused before all sources reported")
	}
	fu.Consume(reading(c, 0, 4, epoch))
	if pub.count() != 1 {
		t.Fatalf("fused = %d", pub.count())
	}
	v, _, _ := sensor.DecodeReading(pub.msgs[0].Payload)
	if v != 7 {
		t.Fatalf("fused value = %v, want 7", v)
	}
	if !pub.msgs[0].Flags.Has(wire.FlagFused) || pub.msgs[0].FusedCount != 3 {
		t.Fatalf("fused flags = %+v", pub.msgs[0])
	}
	// Subsequent updates re-emit with the latest values.
	fu.Consume(reading(a, 1, 10, epoch))
	v, _, _ = sensor.DecodeReading(pub.msgs[1].Payload)
	if v != 16 {
		t.Fatalf("refused value = %v, want 16", v)
	}
}

func TestFusionIgnoresUnrelatedStreams(t *testing.T) {
	var pub pubRecorder
	ds := NewDerivedStream(&pub, wire.MustStreamID(VirtualSensorBase, 0), 0)
	a := wire.MustStreamID(1, 0)
	fu := NewFusion("fuse", ds, []wire.StreamID{a}, func(vs []float64) float64 { return vs[0] })
	fu.Consume(reading(wire.MustStreamID(9, 9), 0, 5, epoch))
	if pub.count() != 0 {
		t.Fatal("unrelated stream fused")
	}
}

func TestConstructorValidation(t *testing.T) {
	var pub pubRecorder
	ds := NewDerivedStream(&pub, wire.MustStreamID(VirtualSensorBase, 0), 0)
	for name, fn := range map[string]func(){
		"nil publisher":    func() { NewDerivedStream(nil, 0, 0) },
		"zero window":      func() { NewWindowAggregator("a", ds, 0, AggregateMean) },
		"nil agg stream":   func() { NewWindowAggregator("a", nil, 1, AggregateMean) },
		"pointless det":    func() { NewThresholdDetector("d", 1, 0, nil, nil) },
		"fusion no source": func() { NewFusion("f", ds, nil, func([]float64) float64 { return 0 }) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		})
	}
}

// Multi-level pipeline: raw readings → window mean (level 1) → threshold
// detector (level 2) — the §6 hierarchy, wired by hand.
func TestTwoLevelPipeline(t *testing.T) {
	var events []Event
	var level1 pubRecorder

	meanStream := NewDerivedStream(&level1, wire.MustStreamID(VirtualSensorBase, 0), 0)
	agg := NewWindowAggregator("mean", meanStream, 2, AggregateMean)
	det := NewThresholdDetector("alarm", 5, 0, func(e Event) { events = append(events, e) }, nil)

	src := wire.MustStreamID(1, 0)
	for i, v := range []float64{2, 4, 8, 10} { // means: 3, 9
		agg.Consume(reading(src, wire.Seq(i), v, epoch))
		// Hand-wire level-1 output into level-2 input, as the dispatcher
		// would via a derived-stream subscription.
		for len(level1.msgs) > 0 {
			m := level1.msgs[0]
			level1.msgs = level1.msgs[1:]
			det.Consume(filtering.Delivery{Msg: m, At: epoch})
		}
	}
	if len(events) != 1 || !events[0].Rising || events[0].Value != 9 {
		t.Fatalf("pipeline events = %+v", events)
	}
	if events[0].Stream != meanStream.Stream() {
		t.Fatalf("event source = %v, want derived stream", events[0].Stream)
	}
}
