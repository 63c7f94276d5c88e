package experiments

import (
	"fmt"

	"github.com/garnet-middleware/garnet/internal/consumer"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// runE11 checks multi-level consumer hierarchies: a chain of derived
// streams of increasing depth must hand every source message to the top.
func runE11(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Multi-level consumer hierarchies",
		Claim:   "§6: consumers “form an essentially arbitrary graph … in practise … a hierarchy where lower level consumer processes generate derived streams … consumed by higher-level consumers”",
		Columns: []string{"depth", "source msgs", "top-level msgs"},
	}
	depths := []int{1, 2, 4, 8}
	msgs := 10000
	if cfg.Quick {
		depths = []int{1, 4}
		msgs = 1000
	}
	for _, depth := range depths {
		clock := sim.NewVirtualClock(epoch)
		d := core.New(core.Config{Clock: clock, Secret: []byte("e11")})

		source := wire.MustStreamID(1, 0)
		prev := source
		// Build the chain: each level consumes the previous level's stream
		// and republishes the pass-through mean (window 1) on a new
		// derived stream.
		for level := 0; level < depth; level++ {
			vid := d.AllocateVirtualSensor()
			out := consumer.NewDerivedStream(d, wire.MustStreamID(vid, 0), 0)
			agg := consumer.NewWindowAggregator(fmt.Sprintf("level-%d", level), out, 1, consumer.AggregateMean)
			if _, err := d.Dispatcher().Subscribe(agg, dispatch.Exact(prev)); err != nil {
				return nil, err
			}
			prev = out.Stream()
		}
		top := consumer.NewRecorder("top", 1)
		if _, err := d.Dispatcher().Subscribe(top, dispatch.Exact(prev)); err != nil {
			return nil, err
		}
		d.Start()

		payload := sensor.EncodeReading(1.5, epoch)
		for i := 0; i < msgs; i++ {
			d.PublishDerived(wire.Message{Stream: source, Seq: wire.Seq(i), Payload: payload}, epoch)
		}
		d.Stop()

		if top.Count() != int64(msgs) {
			return t, fmt.Errorf("E11: depth %d delivered %d of %d", depth, top.Count(), msgs)
		}
		t.addRow(depth, msgs, top.Count())
	}
	t.Notes = append(t.Notes, "each level re-enters the Dispatching Service as a first-class stream (discovery, orphanage and subscriptions all apply)")
	return t, nil
}
