package experiments

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// fanConsumer is one async consumer in the E18 storm. Each instance
// watches exactly one stream, so its StoreSeq view must be strictly
// ascending no matter how the lock-free ring, the overflow policy and
// the catch-up gate interleave; any duplicate or inversion counts as an
// ordering violation. Live consumers also sample the enqueue→consume
// latency carried in the payload.
type fanConsumer struct {
	name    string
	base    time.Time // latency epoch; zero for late joiners (ordering only)
	mu      sync.Mutex
	got     int
	last    uint64
	seen    bool
	violate int
	lat     metrics.Histogram
}

func (c *fanConsumer) Name() string { return c.name }
func (c *fanConsumer) Consume(d filtering.Delivery) {
	c.mu.Lock()
	if c.seen && d.StoreSeq <= c.last {
		c.violate++
	}
	c.seen = true
	c.last = d.StoreSeq
	c.got++
	if !c.base.IsZero() && len(d.Msg.Payload) >= 8 {
		sent := time.Duration(binary.LittleEndian.Uint64(d.Msg.Payload))
		c.lat.Observe(float64(time.Since(c.base) - sent))
	}
	c.mu.Unlock()
}

// runE18 measures the async fan-out storm: M publishers push through the
// full receive pipeline (encode → zero-copy decode → filter → store tee
// → async dispatch) into N standing async consumers while late joiners
// storm in mid-run with SubscribeWithReplay. Each consumer's delivery
// port runs the lock-free MPSC ring on the steady state, so this is the
// end-to-end probe for that path: throughput and p99 enqueue→consume
// latency are swept across GOMAXPROCS, and the ordering-violation count
// must stay at 0 across the ring/locked hand-offs the joiners force.
func runE18(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "Async fan-out storm: lock-free delivery rings under load",
		Claim: "§3 shared-stream delivery scales with cores: per-consumer lock-free rings keep M×N async fan-out ordered while late joiners replay mid-storm",
		Columns: []string{
			"procs", "publishers", "consumers", "joiners", "delivered",
			"msgs/s", "p99 enq→consume µs", "violations",
		},
	}
	publishers := 4
	standing := 16
	joiners := 8
	msgsPer := 5000
	capacity := 8192
	procsSweep := []int{1, 4}
	if cfg.Quick {
		standing = 4
		joiners = 2
		msgsPer = 500
		capacity = 1024
		procsSweep = []int{1}
	}

	for _, procs := range procsSweep {
		r, err := runFanStorm(procs, publishers, standing, joiners, msgsPer, capacity)
		if err != nil {
			return nil, err
		}
		if r.violations > 0 {
			return nil, fmt.Errorf("E18: %d ordering violations at GOMAXPROCS=%d", r.violations, procs)
		}
		t.AddRow(procs, publishers, standing, joiners, r.delivered,
			fmt.Sprintf("%.0f", float64(r.delivered)/r.elapsed.Seconds()),
			fmt.Sprintf("%.1f", r.lat.Percentile(99)/1e3),
			r.violations)
	}
	t.Notes = append(t.Notes,
		"standing consumers ride the lock-free delivery ring; joiners subscribe mid-storm with SubscribeWithReplay, pinning the ring↔locked hand-off",
		"p99 is live enqueue→consume latency from a payload timestamp; replayed history is excluded so retention delay does not skew it",
		"violations counts per-consumer StoreSeq duplicates or inversions — must be 0")
	return t, nil
}

// stormResult is one fan-out storm run's aggregate outcome.
type stormResult struct {
	delivered  int
	violations int
	elapsed    time.Duration
	lat        metrics.Histogram
}

// runFanStorm drives one fan-out storm: M publishers push the full
// receive pipeline into N standing async consumers while late joiners
// storm in mid-run with SubscribeWithReplay.
func runFanStorm(procs, publishers, standing, joiners, msgsPer, capacity int) (*stormResult, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	d := core.New(core.Config{
		Secret: []byte("e18"),
		Dispatch: dispatch.Options{
			Mode:          dispatch.ModeAsync,
			QueueCapacity: capacity,
		},
		Store: store.Options{MaxMessages: capacity},
	})

	streams := make([]wire.StreamID, publishers)
	for i := range streams {
		streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
	}
	base := time.Now()
	publish := func(i, seq int) {
		var payload [8]byte
		binary.LittleEndian.PutUint64(payload[:], uint64(time.Since(base)))
		var msg wire.Message
		out := wire.Message{Stream: streams[i], Seq: wire.Seq(seq), Payload: payload[:]}
		frame, err := out.Encode()
		if err != nil {
			panic(err)
		}
		if _, err := wire.DecodeMessageBorrowed(frame, &msg); err != nil {
			panic(err)
		}
		d.InjectReception(receiver.Reception{
			Msg: msg, Receiver: fmt.Sprintf("rx%d", i), RSSI: 1,
			At: epoch, Borrowed: true,
		})
	}

	consumers := make([]*fanConsumer, 0, standing+joiners)
	for n := 0; n < standing; n++ {
		c := &fanConsumer{name: fmt.Sprintf("fan-%d", n), base: base}
		consumers = append(consumers, c)
		if _, err := d.Dispatcher().Subscribe(c, dispatch.Exact(streams[n%publishers])); err != nil {
			return nil, err
		}
	}
	d.Start()

	start := time.Now()
	var published atomic.Int64
	var pubWG sync.WaitGroup
	for i := 0; i < publishers; i++ {
		pubWG.Add(1)
		go func(i int) {
			defer pubWG.Done()
			for seq := 0; seq < msgsPer; seq++ {
				publish(i, seq)
				published.Add(1)
			}
		}(i)
	}

	// Late joiners storm in once the publishers are warmed up; each
	// replays the retained backlog through the same port that then
	// hands off to live deliveries.
	late := make([]*fanConsumer, joiners)
	var joinWG sync.WaitGroup
	for j := 0; j < joiners; j++ {
		joinWG.Add(1)
		go func(j int) {
			defer joinWG.Done()
			for published.Load() < int64(publishers*msgsPer/4) {
				runtime.Gosched()
			}
			c := &fanConsumer{name: fmt.Sprintf("late-%d", j)}
			late[j] = c
			if _, _, err := d.SubscribeWithReplay(c, streams[j%publishers], 0); err != nil {
				panic(err)
			}
		}(j)
	}
	pubWG.Wait()
	joinWG.Wait()
	consumers = append(consumers, late...)
	d.Stop()
	r := &stormResult{elapsed: time.Since(start)}

	for _, c := range consumers {
		c.mu.Lock()
		r.delivered += c.got
		r.violations += c.violate
		r.lat.Merge(&c.lat)
		c.mu.Unlock()
	}
	return r, nil
}
