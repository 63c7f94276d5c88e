package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// runE23 is the archived late-joiner storm: the E17 claim — retained
// history is a first-class service — pushed through the durable archive
// tier. Publishers write far past the in-memory window (a tiny cold
// budget spills sealed blocks to an archive backend through the async
// archivers), so when M consumers join with SubscribeWithReplay from the
// beginning of history, the overwhelming share of what they replay
// exists only in the archive. Every consumer's view must still be
// duplicate-free and in store-sequence order across the
// archive→cold→hot→live hand-off, and a second deployment restarted
// over the same backend must serve the same archived ranges to
// consumers that the first one did.
func runE23(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E23",
		Title: "Archived late-joiners: replay across the durable archive tier",
		Claim: "§4.2 pushed past RAM: history a deployment spilled to durable storage replays through the same dispatch port as live data — and survives the deployment itself",
		Columns: []string{
			"publishers", "joiners", "backlog/stream", "memory window", "archive-only share",
			"replayed/joiner", "violations", "restart replays archive",
		},
	}
	publishers := 4
	joiners := []int{8, 32}
	backlogPer := 6000
	storeOpts := store.Options{
		MaxMessages: 256, Codec: "auto", BlockSize: 64, ColdBudget: 1,
	}
	orphOpts := orphanage.Options{PerStreamCapacity: storeOpts.MaxMessages}
	if cfg.Quick {
		joiners = []int{4}
		backlogPer = 600
		storeOpts.MaxMessages, storeOpts.BlockSize = 32, 8
		orphOpts.PerStreamCapacity = 32
	}

	for _, m := range joiners {
		backend := archive.NewMem()
		opts := storeOpts
		opts.Archive = backend
		d := core.New(core.Config{
			Secret: []byte("e23"),
			Dispatch: dispatch.Options{
				Mode:          dispatch.ModeAsync,
				QueueCapacity: 2 * backlogPer,
			},
			Orphanage: orphOpts,
			Store:     opts,
		})
		d.Start()

		streams := make([]wire.StreamID, publishers)
		for i := range streams {
			streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
		}
		// Warm-up: push each stream an order of magnitude past its
		// in-memory window, so the backlog the joiners replay lives
		// almost entirely in the archive tier.
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
		var replayedTotal atomic.Int64
		for j := 0; j < m; j++ {
			joinWG.Add(1)
			go func(j int) {
				defer joinWG.Done()
				stream := streams[j%publishers]
				c := &orderChecker{name: fmt.Sprintf("arch-late-%d", j)}
				consumers[j] = c
				head, _ := d.Store().LastSeq(stream)
				_, replayed, err := d.SubscribeWithReplay(c, stream, 0)
				if err != nil {
					panic(err)
				}
				replayedTotal.Add(int64(replayed))
				// Stay until the consumer has crossed archive → cold → hot
				// → live and seen a memory window's worth of live data.
				c.awaitPast(head + uint64(storeOpts.MaxMessages))
			}(j)
		}
		joinWG.Wait()
		stop.Store(true)
		pubWG.Wait()

		// Shut down, then snapshot the per-stream archived ranges the
		// restarted deployment must serve: Stop closes the store, so
		// every still-pending spill is committed durably first.
		type archivedRange struct {
			first uint64
			count int64
		}
		want := make(map[wire.StreamID]archivedRange, len(streams))
		d.Stop()
		st := d.Store().Stats()
		for _, id := range streams {
			ss, ok := d.Store().StreamStats(id)
			if !ok || ss.ArchivedMessages == 0 {
				return nil, fmt.Errorf("E23: stream %v has no archived history", id)
			}
			want[id] = archivedRange{first: ss.FirstSeq, count: int64(ss.ArchivedMessages)}
		}

		total := st.RetainedMessages + st.ArchivedMessages
		archFrac := float64(st.ArchivedMessages) / float64(total)
		if archFrac < 0.9 {
			return nil, fmt.Errorf("E23: only %.1f%% of history is archive-only, want ≥90%%", 100*archFrac)
		}
		memPerStream := st.RetainedMessages / int64(publishers)
		if replayPer := replayedTotal.Load() / int64(m); replayPer < 10*memPerStream {
			return nil, fmt.Errorf("E23: joiners replayed %d per head, in-memory window is %d — not a ≥10× archive replay",
				replayPer, memPerStream)
		}
		_, violations := tally(consumers)
		if violations > 0 {
			return nil, fmt.Errorf("E23: %d ordering violations or duplicates across the archive replay hand-off", violations)
		}

		// Restart: a fresh deployment over the same backend recovers the
		// archive index and serves the exact archived ranges — including
		// to a late joiner that was never alive when the data was.
		d2 := core.New(core.Config{
			Secret:    []byte("e23-restart"),
			Dispatch:  dispatch.Options{Mode: dispatch.ModeAsync, QueueCapacity: 2 * backlogPer},
			Orphanage: orphOpts,
			Store:     opts,
		})
		d2.Start()
		restarted := make([]*orderChecker, len(streams))
		var restartWant int64
		for i, id := range streams {
			first, ok := d2.Store().FirstSeq(id)
			if !ok || first != want[id].first {
				return nil, fmt.Errorf("E23: restart serves stream %v from %d (ok=%v), want %d", id, first, ok, want[id].first)
			}
			c := &orderChecker{name: fmt.Sprintf("restart-%v", id)}
			restarted[i] = c
			_, replayed, err := d2.SubscribeWithReplay(c, id, 0)
			if err != nil {
				return nil, err
			}
			if int64(replayed) != want[id].count {
				return nil, fmt.Errorf("E23: restart replayed %d for stream %v, want the %d archived", replayed, id, want[id].count)
			}
			restartWant += want[id].count
		}
		d2.Stop()
		restartGot, restartViolations := tally(restarted)
		if restartViolations > 0 {
			return nil, fmt.Errorf("E23: %d ordering violations replaying the archive after restart", restartViolations)
		}
		if int64(restartGot) != restartWant {
			return nil, fmt.Errorf("E23: restarted consumers received %d of the %d archived messages", restartGot, restartWant)
		}

		t.AddRow(publishers, m, backlogPer, storeOpts.MaxMessages, "≥90%", "≥10× window",
			violations, fmt.Sprintf("%d/%d streams", len(streams), len(streams)))
	}
	t.Notes = append(t.Notes,
		"backlog per stream runs ≥10× the in-memory window before the joiners arrive and publishers keep writing through the storm; the rest lives only in the archive tier (async spill, 1 B cold budget)",
		"archive-only share (of all history) and replayed/joiner (mean, against the in-memory window) are enforced bounds, not measurements",
		"restart replays archive: a second deployment over the same backend recovers the manifest and replays the identical archived ranges, order-checked",
		"violations counts duplicates or inversions across the archive→cold→hot→live hand-off — enforced 0")
	return t, nil
}
