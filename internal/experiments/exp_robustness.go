package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// The E20–E22 robustness storms close ROADMAP item 5's "robustness at
// scale" half: each drives a full deployment through a hostile regime —
// cohort and subscription churn, radio partitions, a stalled consumer —
// and then demands exact accounting identities rather than eyeballed
// health: every counter must reconcile, every plane must drain to empty,
// and per-stream delivery order must hold. A non-zero cell in any of the
// *err/violations/leak columns is a bug, and the experiments_test smoke
// run fails on them.

// runE20 is the churn storm: rounds of fresh sensor cohorts appear, emit
// a mixed in-order/reordered/duplicated schedule, are briefly subscribed
// and then dropped, and finally every plane is asked to forget them. The
// claim under test is that churn leaves no residue: no armed timers, no
// per-stream state in filter or store, no held orphans, no live
// subscriptions, and the filter/store accounting identities hold exactly.
// The store runs with its full tier stack — compression on and a durable
// archive behind a one-byte cold budget — so Forget must reclaim spilled
// blocks too, and the extended conservation identity (retained +
// archived − recovered == appended − every loss reason) is enforced as a
// hard failure, not a table cell to eyeball.
func runE20(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "Churn storm: cohort and subscription churn leave no residue",
		Claim: "§4.2 long-lived middleware: sensors and consumers come and go; per-stream state must be reclaimable exactly, not approximately",
		Columns: []string{
			"sensors", "rounds", "injected", "delivered", "archived", "stats err",
			"store err", "leaked timers", "leaked streams", "orphans held", "subs left",
		},
	}
	sweeps := []int{1000, 4000}
	if cfg.Quick {
		sweeps = []int{300}
	}
	const rounds = 4
	for _, cohort := range sweeps {
		clock := sim.NewVirtualClock(epoch)
		d := core.New(core.Config{
			Clock:  clock,
			Secret: []byte("e20"),
			Filter: filtering.Options{ReorderWindow: 50 * time.Millisecond},
			// Tight bounds force the full tier walk during churn: a
			// four-entry hot window evicts into two-entry sealed blocks,
			// and a one-byte cold budget spills every sealed block to the
			// durable archive through the async per-shard archivers.
			Orphanage: orphanage.Options{PerStreamCapacity: 4},
			Store: store.Options{
				MaxMessages: 4, Codec: "auto", BlockSize: 2, ColdBudget: 1,
				Archive: archive.NewMem(),
			},
		})
		d.Start()

		var ids []wire.StreamID
		injected, consumed := 0, 0
		for round := 0; round < rounds; round++ {
			// A quarter of the cohort is subscribed for the round; the
			// rest orphan.
			sink := &dispatch.ConsumerFunc{
				ConsumerName: fmt.Sprintf("churn-%d", round),
				Fn:           func(filtering.Delivery) { consumed++ },
			}
			var subs []dispatch.SubscriptionID
			for i := 0; i < cohort; i++ {
				sid := wire.SensorID(round*cohort + i + 1)
				if i%4 == 0 {
					sub, err := d.Dispatcher().Subscribe(sink, dispatch.BySensor(sid))
					if err != nil {
						return nil, err
					}
					subs = append(subs, sub)
				}
			}
			for i := 0; i < cohort; i++ {
				sid := wire.SensorID(round*cohort + i + 1)
				id := wire.MustStreamID(sid, 0)
				ids = append(ids, id)
				inject := func(seq wire.Seq) {
					d.InjectReception(receiver.Reception{
						Msg:      wire.Message{Stream: id, Seq: seq, Payload: []byte{byte(seq)}},
						Receiver: "rx-churn", RSSI: 0.5, At: clock.Now(),
					})
					injected++
				}
				// In-order run, an in-window gap that holds 4..5 in the
				// reorder backlog, a late fill on two streams of three
				// (the third leaves its gap to the timer), then a
				// duplicate.
				inject(1)
				inject(2)
				inject(4)
				inject(5)
				if i%3 != 0 {
					inject(3)
				}
				inject(6)
				inject(2)
				// A second in-order burst pushes every stream past one
				// sealed block, so the cold budget spills the older block
				// into the archive tier mid-churn.
				for seq := wire.Seq(7); seq <= 10; seq++ {
					inject(seq)
				}
			}
			// Let the reorder timers of the unfilled gaps fire.
			clock.Advance(100 * time.Millisecond)
			for _, sub := range subs {
				d.Dispatcher().Unsubscribe(sub)
			}
		}

		// Snapshot the archive tier before the sweep tears it down: churn
		// must actually have spilled blocks for the reclamation claim to
		// mean anything. The archivers are asynchronous, so let them
		// commit what churn handed them first: the cell counts messages,
		// and the same count on every run.
		pre := d.Store().Stats()
		for pre.ArchivePendingBlocks > 0 {
			runtime.Gosched()
			pre = d.Store().Stats()
		}
		spilled := pre.ArchivedMessages
		if spilled == 0 {
			return nil, fmt.Errorf("E20: churn never reached the archive tier: %+v", pre)
		}

		// Tear down: drain the reorder backlogs, sweep the orphanage
		// (which forgets its streams in the store), then forget every
		// stream in filter and store directly — hot window, sealed cold
		// blocks and durably archived blocks alike.
		d.Filter().Flush()
		d.Orphanage().EvictBefore(clock.Now().Add(time.Hour))
		for _, id := range ids {
			d.Filter().Forget(id)
			d.Store().Forget(id)
		}
		d.Stop()

		fs := d.Filter().Stats()
		statsErr := fs.Received - fs.Delivered - fs.Duplicates - fs.Stale
		ss := d.Store().Stats()
		storeErr := (ss.RetainedMessages + ss.ArchivedMessages - ss.ArchiveRecovered) -
			(ss.Appended - ss.Duplicates - ss.DroppedBehind -
				ss.EvictedCount - ss.EvictedBytes - ss.EvictedAge - ss.EvictedCold -
				ss.EvictedArchive - ss.ArchiveFailed - ss.Forgotten)
		if storeErr != 0 {
			return nil, fmt.Errorf("E20: store conservation identity off by %d: %+v", storeErr, ss)
		}
		leakedStreams := fs.ActiveStreams + ss.Streams
		t.AddRow(cohort, rounds, injected, fs.Delivered, spilled, statsErr, storeErr,
			clock.Pending(), leakedStreams, d.Orphanage().Stats().StreamsHeld,
			d.Dispatcher().Stats().Subscriptions)
	}
	t.Notes = append(t.Notes,
		"each round injects in-order runs, held reorder gaps (some timer-released, some late-filled) and duplicates, then unsubscribes",
		"store runs hot→cold→archive: compression on, 1 B cold budget, async archiver to an in-memory archive backend",
		"stats err: filter Received − Delivered − Duplicates − Stale; store err: retained + archived − recovered vs appended − losses — both enforced 0",
		"leaked timers/streams, orphans held and subs left must all drain to 0 after Flush/EvictBefore/Forget")
	return t, nil
}

// runE21 is the radio partition: a receiver goes deaf twice mid-run while
// sensors keep transmitting, then a late joiner replays the retained
// history. Lost sequences must reconcile exactly against the filter's gap
// accounting (sent == delivered + gaps), no duplicate or inverted
// delivery may occur, and the replay must hand back the store's window in
// order.
func runE21(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E21",
		Title: "Radio partition: exact gap accounting and replay catch-up",
		Claim: "§5 duplicate filtering tracks sequence gaps; a partition's losses must be accounted, not smeared, and retention must replay what survived",
		Columns: []string{
			"partition ms", "sent", "delivered", "gaps", "dup", "stale",
			"acct err", "violations", "replayed",
		},
	}
	partitions := []time.Duration{500 * time.Millisecond, 2 * time.Second}
	if cfg.Quick {
		partitions = []time.Duration{500 * time.Millisecond}
	}
	const (
		sensors = 12
		period  = 100 * time.Millisecond
		runFor  = 12 * time.Second
	)
	for _, partition := range partitions {
		clock := sim.NewVirtualClock(epoch)
		d := core.New(core.Config{Clock: clock, Secret: []byte("e21")})
		rx := d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 150})

		var nodes []*sensor.Node
		for i := 0; i < sensors; i++ {
			n, err := d.AddSensor(sensor.Config{
				ID:       wire.SensorID(i + 1),
				Mobility: field.Static{P: geo.Pt(10+float64(i)*10, 0)},
				TxRange:  200,
				Streams: []sensor.StreamConfig{{
					Index: 0, Sampler: sensor.SizedSampler(8), Period: period, Enabled: true,
				}},
			})
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		}

		lastSeq := map[wire.StreamID]wire.Seq{}
		violations, delivered := 0, 0
		sink := &dispatch.ConsumerFunc{ConsumerName: "partition-sink", Fn: func(del filtering.Delivery) {
			if prev, ok := lastSeq[del.Msg.Stream]; ok && prev.Distance(del.Msg.Seq) <= 0 {
				violations++
			}
			lastSeq[del.Msg.Stream] = del.Msg.Seq
			delivered++
		}}
		if _, err := d.Dispatcher().Subscribe(sink, dispatch.All()); err != nil {
			return nil, err
		}

		// Two partitions, offset off the sampling grid so a stop never
		// ties with a transmission on the same virtual instant. The run
		// ends with the receiver up, so every partition loss sits between
		// heard messages and must appear in the gap accounting.
		for _, at := range []time.Duration{3*time.Second + 33*time.Millisecond, 7*time.Second + 33*time.Millisecond} {
			clock.ScheduleFunc(at, rx.Stop)
			clock.ScheduleFunc(at+partition, rx.Start)
		}

		d.Start()
		clock.RunUntil(epoch.Add(runFor))

		// Late joiner: replay one stream's retained history from the
		// beginning and check it arrives in store order.
		replayID := wire.MustStreamID(1, 0)
		var mu sync.Mutex
		var replaySeqs []uint64
		joiner := &dispatch.ConsumerFunc{ConsumerName: "late-joiner", Fn: func(del filtering.Delivery) {
			mu.Lock()
			replaySeqs = append(replaySeqs, del.StoreSeq)
			mu.Unlock()
		}}
		if _, n, err := d.SubscribeWithReplay(joiner, replayID, 0); err != nil {
			return nil, err
		} else if n == 0 {
			return nil, fmt.Errorf("E21: late joiner replayed nothing")
		}
		d.Stop()

		var sent int64
		for _, n := range nodes {
			sent += n.Stats().MessagesSent
		}
		fs := d.Filter().Stats()
		acctErr := sent - fs.Delivered - (fs.Gaps - fs.GapsRecovered)
		mu.Lock()
		for i := 1; i < len(replaySeqs); i++ {
			if replaySeqs[i] <= replaySeqs[i-1] {
				violations++
			}
		}
		replayed := len(replaySeqs)
		mu.Unlock()
		t.AddRow(int(partition/time.Millisecond), sent, fs.Delivered, fs.Gaps,
			fs.Duplicates, fs.Stale, acctErr, violations, replayed)
	}
	t.Notes = append(t.Notes,
		"acct err: sent − delivered − (gaps − recovered); every message lost to a partition must surface as a sequence gap — must be 0",
		"violations counts per-stream sequence inversions/duplicates at the consumer plus store-order breaks in the replay — must be 0",
		"the late joiner subscribes after the second partition heals and replays stream 1's full retained window")
	return t, nil
}

// runE22 is the slow-consumer storm: a stalled consumer's bounded queue
// must shed exactly per its overflow policy while a healthy consumer
// alongside it loses nothing. Conservation (delivered + dropped == sent),
// per-consumer drop attribution, FIFO order and the policy's edge
// behaviour (DropOldest keeps the newest message, DropNewest keeps the
// oldest) are all checked exactly.
func runE22(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E22",
		Title: "Slow consumer: bounded-queue backpressure accounting",
		Claim: "§4.2 consumer processes vary in speed; one stalled consumer must shed its own load exactly, never a neighbour's",
		Columns: []string{
			"policy", "queue cap", "sent", "fast got", "slow got",
			"slow dropped", "acct err", "violations", "edge ok",
		},
	}
	type sweep struct {
		policy dispatch.OverflowPolicy
		name   string
		cap    int
	}
	sweeps := []sweep{
		{dispatch.DropOldest, "DropOldest", 64},
		{dispatch.DropNewest, "DropNewest", 64},
		{dispatch.DropOldest, "DropOldest", 256},
		{dispatch.DropNewest, "DropNewest", 256},
	}
	if cfg.Quick {
		sweeps = sweeps[:2]
	}
	const sent = 4000
	for _, sw := range sweeps {
		clock := sim.NewVirtualClock(epoch)
		d := core.New(core.Config{
			Clock:  clock,
			Secret: []byte("e22"),
			Dispatch: dispatch.Options{
				Mode:          dispatch.ModeAsync,
				QueueCapacity: sw.cap,
				Overflow:      sw.policy,
			},
		})

		var mu sync.Mutex
		var fastSeqs, slowSeqs []uint64
		gate := make(chan struct{})
		fast := &dispatch.ConsumerFunc{ConsumerName: "fast", Fn: func(del filtering.Delivery) {
			mu.Lock()
			fastSeqs = append(fastSeqs, del.StoreSeq)
			mu.Unlock()
		}}
		stalled := make(chan struct{})
		var stallOnce sync.Once
		slow := &dispatch.ConsumerFunc{ConsumerName: "slow", Fn: func(del filtering.Delivery) {
			stallOnce.Do(func() { close(stalled) })
			<-gate // stalled until the injection finishes
			mu.Lock()
			slowSeqs = append(slowSeqs, del.StoreSeq)
			mu.Unlock()
		}}
		if _, err := d.Dispatcher().Subscribe(fast, dispatch.All()); err != nil {
			return nil, err
		}
		if _, err := d.Dispatcher().Subscribe(slow, dispatch.All()); err != nil {
			return nil, err
		}

		id := wire.MustStreamID(1, 0)
		fastCount := func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(fastSeqs)
		}
		for i := 1; i <= sent; i++ {
			d.InjectReception(receiver.Reception{
				Msg:      wire.Message{Stream: id, Seq: wire.Seq(i), Payload: []byte{byte(i)}},
				Receiver: "rx-e22", RSSI: 0.5, At: clock.Now(),
			})
			// The drainers start once exactly one batch is queued, and the
			// storm resumes once the stalled consumer has taken it: the one
			// take it makes before it blocks is a full batch on any
			// schedule, so what it sheds is a count, not a race.
			if i == dispatch.DefaultBatchSize {
				d.Start()
				<-stalled
			}
			// Pace the storm to the healthy consumer so only the stalled
			// one ever sheds: never run more than half its queue ahead.
			for i-fastCount() > sw.cap/2 {
				runtime.Gosched()
			}
		}
		// Release the stalled consumer and wait for both queues to drain:
		// the slow consumer's deliveries plus its attributed drops must
		// converge on the exact send count.
		close(gate)
		deadline := time.Now().Add(30 * time.Second)
		slowTotal := func() int {
			mu.Lock()
			n := len(slowSeqs)
			mu.Unlock()
			return n + int(d.Dispatcher().Stats().DroppedByConsumer["slow"])
		}
		for (fastCount() < sent || slowTotal() < sent) && time.Now().Before(deadline) {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
		d.Stop()

		ds := d.Dispatcher().Stats()
		mu.Lock()
		fastGot, slowGot := len(fastSeqs), len(slowSeqs)
		violations := 0
		for i := 1; i < len(fastSeqs); i++ {
			if fastSeqs[i] <= fastSeqs[i-1] {
				violations++
			}
		}
		for i := 1; i < len(slowSeqs); i++ {
			if slowSeqs[i] <= slowSeqs[i-1] {
				violations++
			}
		}
		if fastGot != sent {
			violations++ // the healthy consumer must never shed
		}
		edgeOK := false
		if slowGot > 0 && fastGot > 0 {
			switch sw.policy {
			case dispatch.DropOldest:
				// The newest message is always admitted; it must survive.
				edgeOK = slowSeqs[slowGot-1] == fastSeqs[fastGot-1]
			case dispatch.DropNewest:
				// The queue head is never displaced; the first message
				// must survive.
				edgeOK = slowSeqs[0] == fastSeqs[0]
			}
		}
		mu.Unlock()
		dropped := ds.DroppedByConsumer["slow"]
		acctErr := int64(sent) - int64(slowGot) - dropped
		t.AddRow(sw.name, sw.cap, sent, fastGot, slowGot, dropped, acctErr, violations, edgeOK)
	}
	t.Notes = append(t.Notes,
		"the slow consumer blocks until the storm ends; the fast consumer paces the storm so only the stalled queue sheds",
		"acct err: sent − slow delivered − DroppedByConsumer[slow]; conservation must be exact — must be 0",
		"violations counts FIFO breaks at either consumer and any fast-consumer loss — must be 0",
		"edge ok: DropOldest must retain the newest message, DropNewest the oldest")
	return t, nil
}
