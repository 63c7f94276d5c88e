package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand/v2"
	"os"
	"sync/atomic"
	"time"

	"github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// The history_replay cycle: live writes beside the three kinds of read.
const (
	histLivePerCycle   = 64
	histReplayLen      = 512
	histLatestPerCycle = 8
	histJoinEvery      = 16 // cycles between late joiners
	histWindow         = 1024
)

// histPayload is the payload of message n of stream s: both are recoverable
// from it, so any replayed range can be checked against the generator
// without the generator remembering what it sent.
func histPayload(b []byte, seed uint64, s int, n uint64) {
	key := uint64(s)<<40 | n
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], (key^seed)*0x9E3779B97F4A7C15)
}

// histLive is the standing All() consumer: the live tail beside which the
// reads run. It closes the generator's loop and checks that every stream
// arrives complete and in order: message n of a stream must carry StoreSeq
// base+n for the base its first message set.
type histLive struct {
	seed   uint64
	tokens chan struct{}
	base   []atomic.Uint64 // per stream: StoreSeq of message 0
	next   []uint64        // per stream: n expected next
	count  atomic.Int64
	bad    atomic.Int64
}

func (c *histLive) Name() string { return "history-live" }

func (c *histLive) Consume(d garnet.Delivery) {
	s := int(d.Msg.Stream.Sensor()) - 1
	var want [payloadSize]byte
	histPayload(want[:], c.seed, s, c.next[s])
	if c.next[s] == 0 {
		c.base[s].Store(d.StoreSeq)
	}
	if !bytes.Equal(d.Msg.Payload, want[:]) || d.StoreSeq != c.base[s].Load()+c.next[s] {
		c.bad.Add(1)
	}
	c.next[s]++
	c.count.Add(1)
	c.tokens <- struct{}{}
}

// histJoiner is one late joiner: it counts what SubscribeWithReplay
// replays into it and checks the replay is the stream's whole history in
// order.
type histJoiner struct {
	seed   uint64
	base   uint64
	n      uint64 // messages seen so far
	got    atomic.Int64
	bad    atomic.Int64
	notify chan struct{}
}

// Every joiner shares one name: the dispatcher keeps a drop counter per
// consumer name for the life of the deployment.
func (c *histJoiner) Name() string { return "history-joiner" }

func (c *histJoiner) Consume(d garnet.Delivery) { c.ConsumeBatch([]garnet.Delivery{d}) }

func (c *histJoiner) ConsumeBatch(ds []garnet.Delivery) {
	for i := range ds {
		s := int(ds[i].Msg.Stream.Sensor()) - 1
		var want [payloadSize]byte
		histPayload(want[:], c.seed, s, c.n)
		if !bytes.Equal(ds[i].Msg.Payload, want[:]) || ds[i].StoreSeq != c.base+c.n {
			c.bad.Add(1)
		}
		c.n++
	}
	c.got.Add(int64(len(ds)))
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// histPlan is one scripted cycle: streams are indexes, off is where the
// replayed range starts, counted from the stream's first message.
type histPlan struct {
	live   [histLivePerCycle]int
	replay int
	off    uint64
	latest [histLatestPerCycle]int
	join   int // stream of the late joiner, -1 when the cycle has none
}

// histScript is the seeded part of history_replay.
type histScript struct {
	rng   *rand.Rand
	sent  []uint64 // messages written per stream, preload included
	cycle int
}

func newHistScript(seed uint64, sc scale) *histScript {
	p := &histScript{rng: sim.NewRand(sim.SubSeed(seed, "history.script")), sent: make([]uint64, sc.histStreams)}
	for s := range p.sent {
		p.sent[s] = uint64(sc.histPreload)
	}
	return p
}

func (p *histScript) plan() histPlan {
	var pl histPlan
	for i := range pl.live {
		pl.live[i] = p.rng.IntN(len(p.sent))
		p.sent[pl.live[i]]++
	}
	pl.replay = p.rng.IntN(len(p.sent))
	pl.off = p.rng.Uint64N(p.sent[pl.replay] - histReplayLen + 1)
	for i := range pl.latest {
		pl.latest[i] = p.rng.IntN(len(p.sent))
	}
	pl.join = -1
	if p.cycle++; p.cycle%histJoinEvery == 0 {
		pl.join = p.rng.IntN(len(p.sent))
	}
	return pl
}

func (p *histScript) digest(h hash.Hash, cycles int) {
	for i := 0; i < cycles; i++ {
		fmt.Fprintf(h, "%v;", p.plan())
	}
}

// historyRun is history_replay on one system.
type historyRun struct {
	sys    system
	seed   uint64
	who    int
	dir    string // archive directory, removed by close
	live   *histLive
	script *histScript
	sent   []uint64 // messages injected per stream
	framer framer
	cycle  uint64

	attempted, failed int64
	histMsgs          int64 // deliveries returned by Replay and SubscribeWithReplay
}

func historyOptions(dir string) ([]garnet.Option, error) {
	backend, err := garnet.NewFSArchive(dir)
	if err != nil {
		return nil, fmt.Errorf("open archive: %w", err)
	}
	return []garnet.Option{
		garnet.WithAsyncDispatch(queueCapacity),
		garnet.WithStoreRetention(128, 0, 0),
		garnet.WithStoreCompression("auto", 8<<10),
		garnet.WithArchive(backend),
	}, nil
}

// newHistoryRun builds the deployment and preloads every stream; the
// preload is set-up. mk builds the system from the options, so the same
// code serves the facade and the chain.
func newHistoryRun(seed uint64, sc scale, tmp string, mk func(...garnet.Option) system) (*historyRun, error) {
	dir, err := os.MkdirTemp(tmp, "archive-")
	if err != nil {
		return nil, err
	}
	opts, err := historyOptions(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := &historyRun{
		sys: mk(opts...), seed: seed, dir: dir,
		script: newHistScript(seed, sc),
		sent:   make([]uint64, sc.histStreams),
		live: &histLive{
			seed: seed, tokens: make(chan struct{}, histWindow),
			base: make([]atomic.Uint64, sc.histStreams), next: make([]uint64, sc.histStreams),
		},
	}
	for i := 0; i < histWindow; i++ {
		h.live.tokens <- struct{}{}
	}
	if h.who, err = h.sys.register("history", garnet.PermSubscribe|garnet.PermLocation); err != nil {
		h.close()
		return nil, err
	}
	if _, err = h.sys.subscribe(h.who, garnet.All(), h.live); err != nil {
		h.close()
		return nil, err
	}
	h.sys.start()
	for n := 0; n < sc.histPreload; n++ {
		for s := range h.sent {
			h.write(s)
		}
	}
	if missing := h.drain(); missing != 0 {
		h.close()
		return nil, fmt.Errorf("preload: %d messages never consumed", missing)
	}
	return h, nil
}

func (h *historyRun) close() {
	h.sys.stop()
	os.RemoveAll(h.dir)
}

// write injects the next live message of stream s.
func (h *historyRun) write(s int) {
	<-h.live.tokens
	var pay [payloadSize]byte
	histPayload(pay[:], h.seed, s, h.sent[s])
	msg := wire.Message{Stream: histStream(s), Seq: wire.Seq(h.sent[s]), Payload: pay[:]}
	at := chainEpoch.Add(time.Duration(h.sent[s]) * time.Millisecond)
	h.sys.inject(h.framer.receive(h.sys.tracer(), &msg, "rx00", at))
	h.sent[s]++
}

// drain waits for the live consumer to catch up and returns how many
// messages are still missing at the deadline.
func (h *historyRun) drain() int {
	deadline := time.NewTimer(drainTimeout)
	defer deadline.Stop()
	got := 0
	for ; got < histWindow; got++ {
		select {
		case <-h.live.tokens:
		case <-deadline.C:
			return histWindow - got
		}
	}
	for i := 0; i < got; i++ {
		h.live.tokens <- struct{}{}
	}
	return 0
}

func histStream(s int) garnet.StreamID { return garnet.MustStreamID(garnet.SensorID(s+1), 0) }

func (h *historyRun) fail(ok bool) {
	h.attempted++
	if !ok {
		h.failed++
	}
}

// runCycle is one turn of the fixed mix. It returns the late joiner's
// latency when the cycle had one, else 0.
func (h *historyRun) runCycle() (join time.Duration) {
	pl := h.script.plan()
	tr := h.sys.tracer()
	tr.setTrace(h.cycle)
	h.cycle++
	root := tr.begin(spOp)
	defer tr.end(root)

	for _, s := range pl.live {
		h.write(s)
	}

	base := h.live.base[pl.replay].Load()
	from := base + pl.off
	ds, err := h.sys.replay(h.who, histStream(pl.replay), from, from+histReplayLen-1)
	ok := err == nil && len(ds) == histReplayLen
	for i := 0; ok && i < len(ds); i++ {
		var want [payloadSize]byte
		histPayload(want[:], h.seed, pl.replay, pl.off+uint64(i))
		ok = ds[i].StoreSeq == from+uint64(i) && bytes.Equal(ds[i].Msg.Payload, want[:])
	}
	h.fail(ok)
	h.histMsgs += int64(len(ds))

	for _, s := range pl.latest {
		d, found, err := h.sys.latest(h.who, histStream(s))
		h.fail(err == nil && found && d.StoreSeq == h.live.base[s].Load()+h.sent[s]-1)
	}

	if pl.join < 0 {
		return 0
	}
	s := pl.join
	j := &histJoiner{seed: h.seed, base: h.live.base[s].Load(), notify: make(chan struct{}, 1)}
	t0 := time.Now()
	sub, n, err := h.sys.join(h.who, histStream(s), 0, j)
	if err != nil {
		h.fail(false)
		return 0
	}
	deadline := time.NewTimer(drainTimeout)
	defer deadline.Stop()
	for j.got.Load() < int64(n) {
		select {
		case <-j.notify:
		case <-deadline.C:
			h.sys.unsubscribe(sub)
			h.fail(false)
			return 0
		}
	}
	join = time.Since(t0)
	h.sys.unsubscribe(sub)
	h.fail(uint64(n) == h.sent[s] && j.bad.Load() == 0)
	h.histMsgs += int64(n)
	return join
}
