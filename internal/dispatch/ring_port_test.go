package dispatch

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// scriptOp is one step of a generated port script.
type scriptOp struct {
	kind     int // 0 publish, 1 subscribe-with-replay, 2 unsubscribe churn
	stream   int // publish: which stream
	storeSeq uint64
}

const (
	opPublish = iota
	opReplaySub
	opChurnUnsub
)

// genScript builds a randomized op sequence: a heavy publish stream over
// two streams with up to two mid-stream catch-up subscriptions (gate
// open/close against a ring that already holds deliveries) and a
// mid-stream unsubscribe (port close against a non-empty ring).
func genScript(rng *rand.Rand, ops int) []scriptOp {
	var script []scriptOp
	var nextSeq uint64
	gates := 0
	churned := false
	for i := 0; i < ops; i++ {
		r := rng.Intn(100)
		switch {
		case r < 3 && gates < 2 && i > ops/4:
			gates++
			script = append(script, scriptOp{kind: opReplaySub})
		case r < 5 && !churned && i > ops/2:
			churned = true
			script = append(script, scriptOp{kind: opChurnUnsub})
		default:
			nextSeq++
			script = append(script, scriptOp{
				kind:     opPublish,
				stream:   rng.Intn(2),
				storeSeq: nextSeq,
			})
		}
	}
	return script
}

// scriptOutcome is everything observable after one script run.
type scriptOutcome struct {
	consumers map[string][]uint64
	dropped   int64
	droppedBy map[string]int64
	delivered int64
}

// runScript applies a script to one freshly built async dispatcher. The
// dispatcher is NOT started until the script completes, so every
// overflow and gate decision happens under a deterministic serial
// schedule — the drainers then deliver the accumulated queues in FIFO
// order and Stop waits them out — and the outcome is the same on every
// run.
func runScript(t *testing.T, script []scriptOp) scriptOutcome {
	t.Helper()
	streams := []wire.StreamID{wire.MustStreamID(1, 0), wire.MustStreamID(2, 0)}
	d := New(Options{
		Mode:          ModeAsync,
		QueueCapacity: 4, // tiny: overflow constantly
	})

	recs := map[string]*seqRecorder{}
	sub := func(name string, pattern Pattern) *seqRecorder {
		rec := &seqRecorder{}
		recs[name] = rec
		if _, err := d.Subscribe(&ConsumerFunc{ConsumerName: name, Fn: rec.Consume}, pattern); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	sub("standing", BySensor(1))
	sub("both", BySensor(2))
	var churnID SubscriptionID
	{
		rec := &seqRecorder{}
		recs["churn"] = rec
		var err error
		churnID, err = d.Subscribe(&ConsumerFunc{ConsumerName: "churn", Fn: rec.Consume}, Exact(streams[0]))
		if err != nil {
			t.Fatal(err)
		}
	}

	// published[s] mirrors the store tee: what a replay fetch would
	// return for stream s at this point of the script.
	published := make([][]filtering.Delivery, 2)
	lateN := 0
	for _, op := range script {
		switch op.kind {
		case opPublish:
			del := filtering.Delivery{
				Msg:      wire.Message{Stream: streams[op.stream], Seq: wire.Seq(op.storeSeq)},
				At:       epoch,
				StoreSeq: op.storeSeq,
			}
			published[op.stream] = append(published[op.stream], del)
			d.Dispatch(del)
		case opReplaySub:
			lateN++
			name := fmt.Sprintf("late%d", lateN)
			rec := &seqRecorder{}
			recs[name] = rec
			backlog := append([]filtering.Delivery(nil), published[0]...)
			_, _, err := d.SubscribeWithReplay(
				&ConsumerFunc{ConsumerName: name, Fn: rec.Consume},
				streams[0],
				func() []filtering.Delivery { return backlog },
			)
			if err != nil {
				t.Fatal(err)
			}
		case opChurnUnsub:
			d.Unsubscribe(churnID)
		}
	}

	d.Start()
	d.Stop()

	st := d.Stats()
	out := scriptOutcome{
		consumers: map[string][]uint64{},
		dropped:   st.Dropped,
		droppedBy: st.DroppedByConsumer,
		delivered: st.Delivered,
	}
	for name, rec := range recs {
		out.consumers[name] = rec.snapshot()
	}
	return out
}

// TestPortScriptsMatchRecordedOutcomes replays randomized scripts — a
// heavy publish stream into tiny drop-oldest queues, catch-up gates
// opening and closing mid-stream against a ring that already holds
// deliveries, a port closing with deliveries in flight — and compares
// every consumer's delivery sequence, the Delivered/Dropped totals and
// DroppedByConsumer with portScriptsGolden, which records what the
// mutex-guarded queue the ports used once gated produced for the same
// scripts. Run under -race in CI.
func TestPortScriptsMatchRecordedOutcomes(t *testing.T) {
	want, err := os.ReadFile(portScriptsGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != 12 {
		t.Fatalf("%s has %d lines, want 12", portScriptsGolden, len(wantLines))
	}
	for seed := int64(0); seed < 12; seed++ {
		out := runScript(t, genScript(rand.New(rand.NewSource(seed)), 400))
		if got := goldenLine(seed, out); got != wantLines[seed] {
			t.Fatalf("seed=%d: outcome differs from the recorded one\ngot:  %s\nwant: %s",
				seed, got, wantLines[seed])
		}
	}
}

// TestGateRingHandoffStress storms the lock-free→slow→lock-free
// transitions: a publisher keeps publishing through the store fence while
// consumers join the same way — each join makes its fresh port slow
// mid-flight, adopts its replay batch into the ring and returns the port
// to the lock-free ring — and leave via Unsubscribe, closing ports with
// deliveries still in the ring. Each joiner must observe a strictly
// ascending, duplicate-free, gap-free prefix of the stream starting at
// its replay start: a duplicate or a gap means the fence let a delivery
// into both the backlog and the live route or into neither, an inversion
// means the adopted batch or the held backlog landed out of place (the
// queue is sized so overflow cannot drop). Run under -race in CI.
func TestGateRingHandoffStress(t *testing.T) {
	const total = 6000
	const joiners = 40

	st := store.New(store.Options{MaxMessages: total + 16})
	d := New(Options{Mode: ModeAsync, QueueCapacity: total + 16})
	d.Start()
	defer d.Stop()
	stream := wire.MustStreamID(3, 0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := 0; seq < total; seq++ {
			fencedPublish(st, d, filtering.Delivery{
				Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)},
				At:  epoch,
			})
		}
	}()

	recs := make([]*seqRecorder, joiners)
	for j := 0; j < joiners; j++ {
		rec := &seqRecorder{}
		recs[j] = rec
		ss, _ := st.StreamStats(stream)
		from := ss.FirstSeq
		id, _, err := fencedJoin(st, d,
			&ConsumerFunc{ConsumerName: fmt.Sprintf("joiner%d", j), Fn: rec.Consume},
			stream, from)
		if err != nil {
			t.Fatal(err)
		}
		// Let some live deliveries flow through the post-gate port, then
		// leave, closing the port with traffic still arriving.
		if j%2 == 1 {
			d.Unsubscribe(id)
		}
	}
	<-done
	d.Stop()

	for j, rec := range recs {
		seqs := rec.snapshot()
		if len(seqs) == 0 {
			// A joiner that unsubscribed immediately can race its own
			// replay and legitimately see nothing; one that stayed until
			// Stop must have seen the stream.
			if j%2 == 0 {
				t.Fatalf("joiner %d saw nothing", j)
			}
			continue
		}
		for i := 1; i < len(seqs); i++ {
			switch {
			case seqs[i] == seqs[i-1]:
				t.Fatalf("joiner %d: duplicate delivery of %d", j, seqs[i])
			case seqs[i] < seqs[i-1]:
				t.Fatalf("joiner %d: inversion %d after %d", j, seqs[i], seqs[i-1])
			case seqs[i] != seqs[i-1]+1:
				t.Fatalf("joiner %d: lost deliveries between %d and %d", j, seqs[i-1], seqs[i])
			}
		}
	}
}

// TestCloseRacesReturnToRing: a port's last catch-up gate ends while the
// port closes and a producer keeps enqueueing, so the return to the
// lock-free ring races close's switch to the mutex path. Every delivery
// must be admitted and consumed, held and then flushed (consumed) or
// dropped, or dropped at once: none admitted after the drainer's last
// look, where nothing consumes or counts it, and none both consumed and
// dropped. The producer goes on past close and past the drainer's exit,
// so an endGate that reopened the lock-free path under a closing port
// strands what follows. CI runs it under -race -count=20 -cpu 1,2,8.
func TestCloseRacesReturnToRing(t *testing.T) {
	const rounds = 200
	for round := range rounds {
		var dropped, selfDrop metrics.Counter
		var consumed atomic.Int64
		c := &ConsumerFunc{ConsumerName: "c", Fn: func(filtering.Delivery) { consumed.Add(1) }}
		p := newPort(c, 1<<12, true, &dropped, &selfDrop)
		exited := make(chan struct{})
		go func() { p.run(); close(exited) }()
		p.beginGate()

		var sh shard
		start, closed := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); <-start; p.endGate(nil, false, &sh) }()
		go func() { defer wg.Done(); <-start; p.close(); close(closed) }()
		var sent, admitted int64
		send := func() {
			sent++
			if d := del(wire.MustStreamID(1, 0), wire.Seq(sent)); p.enqueue(&d) {
				admitted++
			}
		}
		close(start)
		for open := true; open; {
			select {
			case <-closed:
				open = false
			default:
			}
			if send(); sent%16 == 0 {
				runtime.Gosched() // let endGate and close run on one P
			}
		}
		wg.Wait()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the drainer did not exit", round)
		}
		for range 8 {
			send() // after the drainer's last look
		}
		flushed := sh.delivered.Value()
		if got, want := consumed.Load(), admitted+flushed; got != want {
			t.Fatalf("round %d: consumed %d, want %d admitted + %d flushed: a delivery is stranded or doubled",
				round, got, admitted, flushed)
		}
		if got, want := dropped.Value(), sent-admitted-flushed; got != want {
			t.Fatalf("round %d: dropped %d, want %d of %d sent", round, got, want, sent)
		}
	}
}

// TestRingPortEnqueueDrainZeroAllocs pins the acceptance bar for the
// async hot path: once the port is warm, enqueue→drain allocates
// nothing — lock-free, and on a port held slow, whose producers decide
// under its mutex, alike.
func TestRingPortEnqueueDrainZeroAllocs(t *testing.T) {
	for _, path := range queuePaths {
		t.Run(path.name, func(t *testing.T) {
			var dropped, selfDrop metrics.Counter
			sink := &BatchConsumerFunc{ConsumerName: "sink", Fn: func([]filtering.Delivery) {}}
			p := newPort(sink, 1024, true, &dropped, &selfDrop)
			if path.slow {
				holdSlow(p)
			}
			go p.run()
			d := del(wire.MustStreamID(1, 0), 0)
			// AllocsPerRun's measurement window includes the concurrent
			// drainer goroutine, so this enforces zero allocations across
			// the whole enqueue→drain path, not just the producer side.
			allocs := testing.AllocsPerRun(5000, func() { p.enqueue(&d) })
			p.close()
			if allocs != 0 {
				t.Fatalf("%s enqueue→drain: %.2f allocs/op, want 0", path.name, allocs)
			}
		})
	}
}

// portScriptsGolden holds what the mutex-guarded port queue produced for
// every (policy, seed) script of TestPortScriptsMatchRecordedOutcomes. It
// is a record of a deleted implementation and is never regenerated.
const portScriptsGolden = "testdata/port_scripts.golden"

// goldenLine renders one script outcome as a line of portScriptsGolden:
// the overflow policy (always DropOldest) and seed, the Delivered and Dropped totals, DroppedByConsumer,
// and each consumer's store sequences in delivery order, with ascending
// runs written lo-hi.
func goldenLine(seed int64, o scriptOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DropOldest seed=%d delivered=%d dropped=%d droppedBy=", seed, o.delivered, o.dropped)
	for i, name := range slices.Sorted(maps.Keys(o.droppedBy)) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", name, o.droppedBy[name])
	}
	for _, name := range slices.Sorted(maps.Keys(o.consumers)) {
		fmt.Fprintf(&b, " %s=", name)
		seqs := o.consumers[name]
		for i := 0; i < len(seqs); {
			j := i
			for j+1 < len(seqs) && seqs[j+1] == seqs[j]+1 {
				j++
			}
			if i > 0 {
				b.WriteByte(',')
			}
			if fmt.Fprint(&b, seqs[i]); j > i {
				fmt.Fprintf(&b, "-%d", seqs[j])
			}
			i = j + 1
		}
	}
	return b.String()
}
