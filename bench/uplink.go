package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// queueCapacity is every async consumer's queue bound. It exceeds the
// largest window, so a closed loop can never overflow a queue: a drop is a
// failure, not load shedding.
const queueCapacity = 4096

// sampleSpec is one scripted sample: which sensor sends which sequence
// number, and how many receivers hear it, starting at which one.
type sampleSpec struct {
	sensor uint32
	seq    uint16
	copies uint8
	rx     uint8
}

// uplinkScript is the seeded part of an uplink workload: the deployment's
// layout and the sequence of samples. Everything the system under test
// sees comes from it; the run loop below adds only timing.
type uplinkScript interface {
	options() []garnet.Option
	// build populates sys and subscribes the consumers, before start.
	build(sys system, trk *tracker) ([]*trackConsumer, error)
	// preload is how many samples at the head of the script are set-up.
	preload() int
	// next returns the next sample and the consumers that must see it.
	next() (s sampleSpec, expect uint32, n int32)
	// emit pushes one sample into sys. The tracker already knows it.
	emit(r *uplinkRun, s sampleSpec, sl *slot, payload []byte)
	// digest writes the layout into h; the caller adds the samples.
	digest(h hash.Hash)
}

// uplinkRun is one uplink workload on one system.
type uplinkRun struct {
	sc      uplinkScript
	sys     system
	trk     *tracker
	cons    []*trackConsumer
	nextID  uint64
	matches int32 // consumers matching each sample; constant per workload
	framer  framer
	pay     [payloadSize]byte

	// sampleInject times one inject call in 64 (core.inject_ns); set on the
	// facade pass of a traced run only.
	sampleInject bool
	injectNs     *samples
	// recordWait stamps each slot when the generator's call returns
	// (dispatch.port_wait); set on the chain pass only.
	recordWait bool
}

// newUplinkRun builds the workload on sys, starts it and runs the script's
// preload plus warmup further samples, at the deep phase's window.
func newUplinkRun(sc uplinkScript, sys system, window, warmup int) (*uplinkRun, error) {
	r := &uplinkRun{sc: sc, sys: sys, trk: newTracker(), nextID: 1}
	cons, err := sc.build(sys, r.trk)
	if err != nil {
		return nil, err
	}
	r.cons = cons
	sys.start()
	// A fixed count, not a fixed time, so set-up does the same work on
	// every host and commit.
	if ph := r.run(runSpec{window: window, maxOps: sc.preload() + warmup}); ph.missing != 0 {
		return nil, fmt.Errorf("warm-up: %d samples never consumed", ph.missing)
	}
	return r, nil
}

// runSpec says how one phase is driven.
type runSpec struct {
	window int
	dur    time.Duration // 0: until maxOps
	maxOps int           // 0: until dur
	record bool          // keep per-sample timings
	// rate, when positive, is an open loop: samples are due on a fixed
	// schedule and timed from their due time, and window only bounds the
	// backlog.
	rate float64
	// traceEvery, on a traced chain pass, records spans for one sample in
	// this many. Tracing every sample slows the generator enough that the
	// async consumers fall idle and each dispatch pays to wake them, which
	// the untraced deployment does not; sampling keeps the traced samples in
	// the regime the end-to-end run measures.
	traceEvery uint64
}

// phase is what one driven phase measured.
type phase struct {
	ops        int64
	missing    int
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	gcCPU      float64 // seconds
	lat        []int64 // ns
	air        []int64
	wait       []int64
	genLateMax int64 // open loop: worst lateness of the generator, ns
}

// opsPerSec is the phase's operations over its wall time, the drain at its
// end included.
func (p phase) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

func (p phase) cpuUsPerOp() float64 {
	return float64(p.cpu.Nanoseconds()) / 1e3 / float64(max(p.ops, 1))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// meter brackets a phase with the process-wide counters.
type meter struct {
	start   time.Time
	cpu     time.Duration
	mallocs uint64
	gc      float64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{mallocs: ms.Mallocs, gc: gcCPUSeconds(), cpu: cpuTime(), start: time.Now()}
}

func (m meter) stop(p *phase) {
	p.wall = time.Since(m.start)
	p.cpu = cpuTime() - m.cpu
	p.gcCPU = gcCPUSeconds() - m.gc
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - m.mallocs
}

// drainTimeout is how long a phase waits for in-flight samples after the
// generator stops; what is still missing then has failed.
const drainTimeout = 5 * time.Second

// run drives one phase: a closed loop with spec.window samples in flight,
// or an open loop at spec.rate. The generator blocks on the token channel
// and never spins.
func (r *uplinkRun) run(spec runSpec) phase {
	trk := r.trk
	trk.open(spec.window)
	if spec.record {
		trk.lat, trk.air, trk.wait = newSamples(1<<21), newSamples(1<<21), newSamples(1<<21)
	}
	tr := r.sys.tracer()
	var ph phase
	m := startMeter()
	var deadline time.Time
	if spec.dur > 0 {
		deadline = m.start.Add(spec.dur)
	}
	interval := time.Duration(0)
	if spec.rate > 0 {
		interval = time.Duration(float64(time.Second) / spec.rate)
	}
	sent := 0
	for spec.maxOps == 0 || sent < spec.maxOps {
		<-trk.tokens
		now := time.Now()
		due := now
		if interval > 0 {
			due = m.start.Add(time.Duration(sent) * interval)
			if wait := due.Sub(now); wait > 0 {
				time.Sleep(wait)
			}
			ph.genLateMax = max(ph.genLateMax, int64(time.Since(due)))
		}
		if spec.dur > 0 && due.After(deadline) {
			trk.tokens <- struct{}{}
			break
		}
		s, expect, n := r.sc.next()
		r.matches = n
		id := r.nextID
		r.nextID++
		dueNs := int64(due.Sub(trk.base))
		sl := trk.launch(id, expect, n, dueNs)
		putPayload(r.pay[:], id, dueNs)
		if spec.traceEvery > 0 {
			tr.enable(id%spec.traceEvery == 0)
		}
		tr.setTrace(id)
		sp := tr.begin(spOp)
		r.sc.emit(r, s, sl, r.pay[:])
		tr.end(sp)
		sent++
	}
	ph.missing = trk.drain(drainTimeout)
	m.stop(&ph)
	ph.ops = int64(sent - ph.missing)
	if spec.record {
		ph.lat, ph.air, ph.wait = trk.lat.values(), trk.air.values(), trk.wait.values()
		trk.lat, trk.air, trk.wait = nil, nil, nil
	}
	return ph
}

// framer turns a message into the reception a receiver would hand the
// fixed network: encoded to a frame, then borrow-decoded from it, with a
// span around each step. The reception aliases the framer's buffer until
// the next call.
type framer struct{ buf []byte }

func (f *framer) receive(tr *tracer, msg *wire.Message, rx string, at time.Time) receiver.Reception {
	sp := tr.begin(spWireEncode)
	frame, err := msg.AppendEncode(f.buf[:0])
	tr.end(sp)
	if err != nil {
		panic(err) // a 16-byte payload always encodes
	}
	f.buf = frame
	rc := receiver.Reception{Receiver: rx, RSSI: 0.5, At: at, Borrowed: true}
	sp = tr.begin(spWireDecode)
	_, err = wire.DecodeMessageBorrowed(frame, &rc.Msg)
	tr.end(sp)
	if err != nil {
		panic(err) // the frame was encoded a few lines up
	}
	return rc
}

// injectCopies is the fixed-network emit: every copy of the sample goes in
// as its own reception, from consecutive receivers.
func (r *uplinkRun) injectCopies(s sampleSpec, sl *slot, payload []byte, rxNames []string) {
	tr := r.sys.tracer()
	msg := wire.Message{
		Stream:  wire.MustStreamID(wire.SensorID(s.sensor), 0),
		Seq:     wire.Seq(s.seq),
		Payload: payload,
	}
	at := r.trk.base.Add(time.Duration(sl.due))
	for c := uint8(0); c < s.copies; c++ {
		rc := r.framer.receive(tr, &msg, rxNames[(int(s.rx)+int(c))%len(rxNames)], at)
		if r.sampleInject && c == 0 && sl.id&63 == 0 {
			t0 := time.Now()
			r.sys.inject(rc)
			r.injectNs.add(int64(time.Since(t0)))
		} else {
			r.sys.inject(rc)
		}
	}
	if r.recordWait {
		sl.dispatched.Store(r.trk.now())
	}
}

// makeRxNames returns the receiver identities the fixed-network scripts
// stamp on their receptions.
func makeRxNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("rx%02d", i)
	}
	return names
}

func writeSpec(h hash.Hash, s sampleSpec) {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:], s.sensor)
	binary.LittleEndian.PutUint16(b[4:], s.seq)
	b[6], b[7] = s.copies, s.rx
	h.Write(b[:])
}

// fieldScript is field_uplink: the whole simulated field on the real clock.
type fieldScript struct {
	sensors, receivers int
	pos                []garnet.Point
	order              []int // round-robin order over the sensors
	nodes              []*garnet.SensorNode
	i                  int
	cur                []byte // payload of the sample being taken, read by the samplers
}

const (
	fieldSide   = 1000.0
	fieldRadius = 250.0
)

func newFieldScript(seed uint64, sc scale) *fieldScript {
	f := &fieldScript{sensors: sc.fieldSensors, receivers: 16}
	f.pos = garnet.RandomPositions(garnet.RectWH(0, 0, fieldSide, fieldSide), f.sensors, sim.SubSeed(seed, "field.positions"))
	f.order = sim.NewRand(sim.SubSeed(seed, "field.order")).Perm(f.sensors)
	return f
}

func (f *fieldScript) options() []garnet.Option {
	return []garnet.Option{garnet.WithAsyncDispatch(queueCapacity)}
}

func (f *fieldScript) build(sys system, trk *tracker) ([]*trackConsumer, error) {
	for _, p := range garnet.GridPositions(garnet.RectWH(0, 0, fieldSide, fieldSide), f.receivers) {
		sys.addReceiver(garnet.ReceiverConfig{Position: p, Radius: fieldRadius})
	}
	sampler := func(time.Time, garnet.Seq) []byte { return f.cur }
	f.nodes = make([]*garnet.SensorNode, f.sensors)
	for i, p := range f.pos {
		n, err := sys.addSensor(garnet.SensorConfig{
			ID: garnet.SensorID(i + 1), Mobility: garnet.Static{P: p}, TxRange: fieldRadius,
			// Not enabled: no ticker runs, the generator triggers every sample.
			Streams: []garnet.StreamConfig{{Index: 0, Sampler: sampler, Period: time.Second}},
		})
		if err != nil {
			return nil, err
		}
		f.nodes[i] = n
	}
	who, err := sys.register("field-all", garnet.PermSubscribe|garnet.PermLocation)
	if err != nil {
		return nil, err
	}
	c := newTrackConsumer("field-all", 0, trk, f.sensors)
	_, err = sys.subscribe(who, garnet.All(), c)
	return []*trackConsumer{c}, err
}

func (f *fieldScript) preload() int { return 0 }

func (f *fieldScript) next() (sampleSpec, uint32, int32) {
	s := sampleSpec{sensor: uint32(f.order[f.i%f.sensors] + 1)}
	f.i++
	return s, 1, 1
}

func (f *fieldScript) emit(r *uplinkRun, s sampleSpec, sl *slot, payload []byte) {
	f.cur = payload
	r.sys.sample(f.nodes[s.sensor-1])
	r.sys.pump(0)
	if r.recordWait {
		sl.dispatched.Store(r.trk.now())
	}
}

func (f *fieldScript) digest(h hash.Hash) {
	for _, p := range f.pos {
		fmt.Fprintf(h, "%v,%v;", p.X, p.Y)
	}
}

// fanoutScript is fixednet_fanout: few streams, many consumers of every
// pattern kind, each sample matched by exactly fanoutMatches of them.
type fanoutScript struct {
	streams int
	rng     *rand.Rand
	seqs    []uint16
	expect  []uint32 // per sensor: the consumers matching its stream
	exact   [][]int  // per stream index: the Exact consumers subscribed to it
	pairs   []int    // per stream index: which BySensor pair covers it
	rx      []string
}

const (
	fanoutConsumers = 16
	fanoutMatches   = 9
)

func newFanoutScript(seed uint64, sc scale) *fanoutScript {
	f := &fanoutScript{streams: sc.fanoutStreams, rng: sim.NewRand(sim.SubSeed(seed, "fanout.script")), rx: makeRxNames(16)}
	f.seqs = make([]uint16, f.streams+1)
	f.expect = make([]uint32, f.streams+1)
	f.exact = make([][]int, f.streams)
	f.pairs = make([]int, f.streams)
	layout := sim.NewRand(sim.SubSeed(seed, "fanout.layout"))
	for k := 0; k < f.streams; k++ {
		sensor := k + 1
		// Consumers 0-7 Exact: four of the eight take this stream.
		f.exact[k] = layout.Perm(8)[:4]
		for _, c := range f.exact[k] {
			f.expect[sensor] |= 1 << c
		}
		// Consumers 8-11 BySensor: two of the four take this sensor.
		f.pairs[k] = layout.IntN(2)
		f.expect[sensor] |= 1<<(8+f.pairs[k]) | 1<<(10+f.pairs[k])
		// Consumers 12-13 All; 14-15 Where, on even and odd sensors.
		f.expect[sensor] |= 1<<12 | 1<<13 | 1<<(14+sensor%2)
	}
	return f
}

func (f *fanoutScript) options() []garnet.Option {
	return []garnet.Option{garnet.WithAsyncDispatch(queueCapacity)}
}

func (f *fanoutScript) build(sys system, trk *tracker) ([]*trackConsumer, error) {
	cons := make([]*trackConsumer, fanoutConsumers)
	who := make([]int, fanoutConsumers)
	for i := range cons {
		name := fmt.Sprintf("fan-%02d", i)
		cons[i] = newTrackConsumer(name, i, trk, f.streams)
		var err error
		// PermLocation keeps the facade from narrowing BySensor and All to
		// Where predicates, so all four pattern kinds reach the dispatcher.
		if who[i], err = sys.register(name, garnet.PermSubscribe|garnet.PermLocation); err != nil {
			return nil, err
		}
	}
	sub := func(i int, p garnet.Pattern) error {
		_, err := sys.subscribe(who[i], p, cons[i])
		return err
	}
	for k := 0; k < f.streams; k++ {
		sensor := garnet.SensorID(k + 1)
		for _, c := range f.exact[k] {
			if err := sub(c, garnet.Exact(garnet.MustStreamID(sensor, 0))); err != nil {
				return nil, err
			}
		}
		for _, c := range []int{8 + f.pairs[k], 10 + f.pairs[k]} {
			if err := sub(c, garnet.BySensor(sensor)); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range []int{12, 13} {
		if err := sub(c, garnet.All()); err != nil {
			return nil, err
		}
	}
	for parity := 0; parity < 2; parity++ {
		parity := garnet.SensorID(parity)
		err := sub(14+int(parity), garnet.Where(func(m garnet.Message) bool { return m.Stream.Sensor()%2 == parity }))
		if err != nil {
			return nil, err
		}
	}
	return cons, nil
}

func (f *fanoutScript) preload() int { return 0 }

func (f *fanoutScript) next() (sampleSpec, uint32, int32) {
	sensor := 1 + f.rng.IntN(f.streams)
	s := sampleSpec{sensor: uint32(sensor), seq: f.seqs[sensor], copies: 1, rx: uint8(f.rng.IntN(len(f.rx)))}
	f.seqs[sensor]++
	return s, f.expect[sensor], fanoutMatches
}

func (f *fanoutScript) emit(r *uplinkRun, s sampleSpec, sl *slot, payload []byte) {
	r.injectCopies(s, sl, payload, f.rx)
}

func (f *fanoutScript) digest(h hash.Hash) {
	for _, e := range f.expect {
		fmt.Fprintf(h, "%x;", e)
	}
}

// censusScript is fixednet_census: a large census touched once, a working
// set of active streams, and the radio's damage scripted in: duplicate
// copies, adjacent swaps and skipped sequence numbers.
type censusScript struct {
	sensors int
	touched int      // sensors the census has reached so far
	active  []uint32 // sensor ids of the working set
	seqs    []uint16 // next sequence number of each, by position in active
	rng     *rand.Rand
	pending []sampleSpec // the late half of a swap
	rx      []string

	swaps int64 // scripted so far
}

func newCensusScript(seed uint64, sc scale) *censusScript {
	c := &censusScript{
		sensors: sc.censusSensors,
		rng:     sim.NewRand(sim.SubSeed(seed, "census.script")),
		seqs:    make([]uint16, sc.censusActive),
		rx:      makeRxNames(16),
	}
	for k, i := range sim.NewRand(sim.SubSeed(seed, "census.active")).Perm(c.sensors)[:sc.censusActive] {
		c.active = append(c.active, uint32(i+1))
		c.seqs[k] = 1 // set-up sends seq 0 to every sensor
	}
	return c
}

func (c *censusScript) options() []garnet.Option {
	return []garnet.Option{garnet.WithAsyncDispatch(queueCapacity)}
}

func (c *censusScript) build(sys system, trk *tracker) ([]*trackConsumer, error) {
	who, err := sys.register("census-all", garnet.PermSubscribe|garnet.PermLocation)
	if err != nil {
		return nil, err
	}
	cons := newTrackConsumer("census-all", 0, trk, c.sensors)
	_, err = sys.subscribe(who, garnet.All(), batchTrackConsumer{cons})
	return []*trackConsumer{cons}, err
}

// preload is the census: one reception from every sensor, so every layer
// holds per-stream state for the whole field before the working set runs.
func (c *censusScript) preload() int { return c.sensors }

func (c *censusScript) next() (sampleSpec, uint32, int32) {
	if c.touched < c.sensors {
		c.touched++
		return sampleSpec{sensor: uint32(c.touched), copies: 1}, 1, 1
	}
	if n := len(c.pending); n > 0 {
		s := c.pending[n-1]
		c.pending = c.pending[:n-1]
		return s, 1, 1
	}
	k := c.rng.IntN(len(c.active))
	seq := c.seqs[k]
	s := sampleSpec{sensor: c.active[k], seq: seq, copies: uint8(1 + c.rng.IntN(3)), rx: uint8(c.rng.IntN(len(c.rx)))}
	switch p := c.rng.IntN(100); {
	case p < 5: // adjacent swap: the successor goes first, this one follows late
		c.swaps++
		c.pending = append(c.pending, s)
		s.seq++
		s.rx = uint8(c.rng.IntN(len(c.rx)))
		c.seqs[k] = seq + 2
	case p < 6: // skipped sequence number: lost on the air, never recovered
		c.seqs[k] = seq + 2
	default:
		c.seqs[k] = seq + 1
	}
	return s, 1, 1
}

func (c *censusScript) emit(r *uplinkRun, s sampleSpec, sl *slot, payload []byte) {
	r.injectCopies(s, sl, payload, c.rx)
}

func (c *censusScript) digest(h hash.Hash) {
	for _, s := range c.active {
		fmt.Fprintf(h, "%d;", s)
	}
}
