package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// orderChecker is the consumer of the concurrent storms (E17, E18, E23).
// Each instance watches exactly one stream, so the StoreSeq it sees must
// strictly ascend no matter how replay, the catch-up gate, the lock-free
// ring and the overflow policy interleave: a duplicate or an inversion is
// an ordering violation.
type orderChecker struct {
	name string

	mu         sync.Mutex
	got        int
	last       uint64
	violations int
}

func (c *orderChecker) Name() string { return c.name }
func (c *orderChecker) Consume(d filtering.Delivery) {
	c.mu.Lock()
	if d.StoreSeq <= c.last {
		c.violations++
	}
	c.last = d.StoreSeq
	c.got++
	c.mu.Unlock()
}

// awaitPast returns once a delivery past store sequence seq has arrived:
// a joiner that waits past the stream's head at join time plus a live
// tail has crossed from replayed history into live data.
func (c *orderChecker) awaitPast(seq uint64) {
	for {
		c.mu.Lock()
		last := c.last
		c.mu.Unlock()
		if last > seq {
			return
		}
		runtime.Gosched()
	}
}

// tally sums what the storm's consumers received and got wrong. Call it
// after Deployment.Stop, when every port has drained.
func tally(consumers []*orderChecker) (got, violations int) {
	for _, c := range consumers {
		c.mu.Lock()
		got += c.got
		violations += c.violations
		c.mu.Unlock()
	}
	return got, violations
}

// stormPublish hands d one message the way a receiver does, through the
// full receive pipeline: encode → zero-copy decode → filter → store tee →
// async dispatch.
func stormPublish(d *core.Deployment, stream wire.StreamID, seq int) {
	var msg wire.Message
	out := wire.Message{Stream: stream, Seq: wire.Seq(seq), Payload: []byte("reading")}
	frame, err := out.Encode()
	if err != nil {
		panic(err)
	}
	if _, err := wire.DecodeMessageBorrowed(frame, &msg); err != nil {
		panic(err)
	}
	d.InjectReception(receiver.Reception{
		Msg: msg, Receiver: "rx-storm", RSSI: 1, At: epoch, Borrowed: true,
	})
}

// runE17 is the late-joiner storm: P publishers keep writing their
// streams through the full receive pipeline while M consumers join
// mid-run with SubscribeWithReplay and catch up on the retained backlog.
// The catch-up gate must keep every consumer's view duplicate-free and in
// store-sequence order no matter how replay races live publishing.
func runE17(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "Late-joiner storm: replay catch-up under live load",
		Claim: "§4.2 generalised: retained stream history is a first-class service — late subscribers to *claimed* streams catch up through the same dispatch port that delivers live data",
		Columns: []string{
			"publishers", "joiners", "retained/stream", "backlog/stream",
			"replayed/joiner", "crossed to live", "violations",
		},
	}
	publishers := 4
	joiners := []int{8, 64}
	backlogPer := 2000
	retention := 4096
	if cfg.Quick {
		joiners = []int{4}
		backlogPer = 200
		retention = 512
	}

	for _, m := range joiners {
		d := core.New(core.Config{
			Secret: []byte("e17"),
			Dispatch: dispatch.Options{
				Mode:          dispatch.ModeAsync,
				QueueCapacity: retention + backlogPer,
			},
			Store: store.Options{MaxMessages: retention},
		})
		d.Start()

		streams := make([]wire.StreamID, publishers)
		for i := range streams {
			streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
		}

		// Warm-up: build the retained backlog every joiner will replay.
		for _, stream := range streams {
			for seq := 0; seq < backlogPer; seq++ {
				stormPublish(d, stream, seq)
			}
		}

		// Publishers keep writing while the joiners storm in.
		var stop atomic.Bool
		var pubWG sync.WaitGroup
		for _, stream := range streams {
			pubWG.Add(1)
			go func(stream wire.StreamID) {
				defer pubWG.Done()
				for seq := backlogPer; !stop.Load(); seq++ {
					stormPublish(d, stream, seq)
				}
			}(stream)
		}

		consumers := make([]*orderChecker, m)
		var joinWG sync.WaitGroup
		var shortReplays atomic.Int64
		for j := 0; j < m; j++ {
			joinWG.Add(1)
			go func(j int) {
				defer joinWG.Done()
				stream := streams[j%publishers]
				c := &orderChecker{name: fmt.Sprintf("late-%d", j)}
				consumers[j] = c
				head, _ := d.Store().LastSeq(stream)
				_, replayed, err := d.SubscribeWithReplay(c, stream, 0)
				if err != nil {
					panic(err)
				}
				if replayed < backlogPer {
					shortReplays.Add(1)
				}
				// Stay until the consumer has crossed from replayed
				// history into live data and seen a backlog's worth of it.
				c.awaitPast(head + uint64(backlogPer))
			}(j)
		}
		joinWG.Wait()
		stop.Store(true)
		pubWG.Wait()
		d.Stop()

		if n := shortReplays.Load(); n > 0 {
			return nil, fmt.Errorf("E17: %d of %d joiners replayed less than the %d-message backlog", n, m, backlogPer)
		}
		_, violations := tally(consumers)
		if violations > 0 {
			return nil, fmt.Errorf("E17: %d replay/live ordering violations", violations)
		}
		t.AddRow(publishers, m, retention, backlogPer,
			fmt.Sprintf("≥%d", backlogPer), fmt.Sprintf("%d/%d", m, m), violations)
	}
	t.Notes = append(t.Notes,
		"joiners subscribe mid-run with SubscribeWithReplay; each must replay at least the warm-up backlog and then receive a backlog's worth of live data past the retained head at join time",
		"violations counts duplicates or inversions across the replay/live hand-off — the catch-up gate must keep it at 0")
	return t, nil
}
