package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// runE18 is the async fan-out storm: M publishers push through the full
// receive pipeline into N standing async consumers while late joiners
// storm in mid-run with SubscribeWithReplay. Each consumer's delivery port
// runs the lock-free MPSC ring on the steady state, so this is the
// end-to-end probe for that path across GOMAXPROCS: every consumer must
// receive its whole stream exactly once and in order across the
// ring/locked hand-offs the joiners force.
func runE18(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "Async fan-out storm: lock-free delivery rings under load",
		Claim: "§3 shared-stream delivery scales with cores: per-consumer lock-free rings keep M×N async fan-out ordered while late joiners replay mid-storm",
		Columns: []string{
			"procs", "publishers", "consumers", "joiners", "delivered", "violations",
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
		delivered, violations, err := runFanStorm(procs, publishers, standing, joiners, msgsPer, capacity)
		if err != nil {
			return nil, err
		}
		if violations > 0 {
			return nil, fmt.Errorf("E18: %d ordering violations at GOMAXPROCS=%d", violations, procs)
		}
		// Queues and retention both hold a whole stream, so nothing may be
		// shed: standing consumers and joiners alike end with every message.
		if want := (standing + joiners) * msgsPer; delivered != want {
			return nil, fmt.Errorf("E18: delivered %d of %d at GOMAXPROCS=%d", delivered, want, procs)
		}
		t.AddRow(procs, publishers, standing, joiners, delivered, violations)
	}
	t.Notes = append(t.Notes,
		"standing consumers ride the lock-free delivery ring; joiners subscribe mid-storm with SubscribeWithReplay, pinning the ring↔locked hand-off",
		"delivered: every consumer, standing or late, must end with its stream's full history — enforced exact",
		"violations counts per-consumer StoreSeq duplicates or inversions — must be 0")
	return t, nil
}

// runFanStorm drives one fan-out storm at the given GOMAXPROCS and
// reports what the consumers received and how many ordering violations
// they saw.
func runFanStorm(procs, publishers, standing, joiners, msgsPer, capacity int) (delivered, violations int, err error) {
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
	consumers := make([]*orderChecker, standing+joiners)
	for n := 0; n < standing; n++ {
		c := &orderChecker{name: fmt.Sprintf("fan-%d", n)}
		consumers[n] = c
		if _, err := d.Dispatcher().Subscribe(c, dispatch.Exact(streams[n%publishers])); err != nil {
			return 0, 0, err
		}
	}
	d.Start()

	var published atomic.Int64
	var pubWG sync.WaitGroup
	for _, stream := range streams {
		pubWG.Add(1)
		go func(stream wire.StreamID) {
			defer pubWG.Done()
			for seq := 0; seq < msgsPer; seq++ {
				stormPublish(d, stream, seq)
				published.Add(1)
			}
		}(stream)
	}

	// Late joiners storm in once the publishers are warmed up; each
	// replays the retained backlog through the same port that then
	// hands off to live deliveries.
	var joinWG sync.WaitGroup
	for j := 0; j < joiners; j++ {
		joinWG.Add(1)
		go func(j int) {
			defer joinWG.Done()
			for published.Load() < int64(publishers*msgsPer/4) {
				runtime.Gosched()
			}
			c := &orderChecker{name: fmt.Sprintf("late-%d", j)}
			consumers[standing+j] = c
			if _, _, err := d.SubscribeWithReplay(c, streams[j%publishers], 0); err != nil {
				panic(err)
			}
		}(j)
	}
	pubWG.Wait()
	joinWG.Wait()
	d.Stop()
	delivered, violations = tally(consumers)
	return delivered, violations, nil
}
