package main

import (
	"fmt"
	"hash"
	"math/rand/v2"
	"time"

	"github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

const (
	actIdentities = 8
	actArray      = 16 // receivers, and transmitters co-located with them
	actBaseRate   = 1000
	actStep       = time.Millisecond
)

// actOp is one scripted demand.
type actOp struct {
	sensor int // index into the field
	who    int // which of the identities submits it
	rate   uint32
}

// actScript is the seeded part of actuation_loop. Every demand raises its
// target's rate, so under the default most-demanding policy every demand
// changes the effective setting and must be actuated.
type actScript struct {
	rng  *rand.Rand
	pos  []garnet.Point
	rate []uint32 // last rate demanded per sensor
}

func newActScript(seed uint64, sc scale) *actScript {
	a := &actScript{
		rng:  sim.NewRand(sim.SubSeed(seed, "actuation.script")),
		pos:  garnet.RandomPositions(garnet.RectWH(0, 0, fieldSide, fieldSide), sc.actSensors, sim.SubSeed(seed, "actuation.positions")),
		rate: make([]uint32, sc.actSensors),
	}
	for i := range a.rate {
		a.rate[i] = actBaseRate
	}
	return a
}

func (a *actScript) next() actOp {
	op := actOp{sensor: a.rng.IntN(len(a.rate)), who: a.rng.IntN(actIdentities)}
	a.rate[op.sensor] += 1 + a.rng.Uint32N(16)
	op.rate = a.rate[op.sensor]
	return op
}

func (a *actScript) digest(h hash.Hash, ops int) {
	for _, p := range a.pos {
		fmt.Fprintf(h, "%v,%v;", p.X, p.Y)
	}
	for i := 0; i < ops; i++ {
		fmt.Fprintf(h, "%v;", a.next())
	}
}

// ackWatcher is the All() consumer of actuation_loop. Dispatch is
// synchronous there, so by the time pump returns it has seen whatever the
// step delivered; it counts the data messages that carried an ack.
type ackWatcher struct {
	acks, msgs int64
}

func (w *ackWatcher) Name() string { return "ack-watcher" }
func (w *ackWatcher) Consume(d garnet.Delivery) {
	w.msgs++
	if d.Msg.Flags.Has(garnet.FlagUpdateAck) {
		w.acks++
	}
}

// actuationRun is actuation_loop on one system.
type actuationRun struct {
	sys    system
	script *actScript
	nodes  []*garnet.SensorNode
	who    [actIdentities]int
	watch  ackWatcher
	op     uint64
	probe  []byte // control frame for the chain's transmitter probe

	attempted, failed, changed int64
}

func newActuationRun(seed uint64, sc scale, sys system) (*actuationRun, error) {
	a := &actuationRun{sys: sys, script: newActScript(seed, sc)}
	for _, p := range garnet.GridPositions(garnet.RectWH(0, 0, fieldSide, fieldSide), actArray) {
		sys.addReceiver(garnet.ReceiverConfig{Position: p, Radius: fieldRadius})
		sys.addTransmitter(garnet.TransmitterConfig{Position: p, Range: fieldRadius})
	}
	payload := make([]byte, payloadSize)
	sampler := func(time.Time, garnet.Seq) []byte { return payload }
	for i, p := range a.script.pos {
		n, err := sys.addSensor(garnet.SensorConfig{
			ID: garnet.SensorID(i + 1), Capabilities: garnet.CapReceive,
			Mobility: garnet.Static{P: p}, TxRange: fieldRadius,
			// Not enabled: no ticker runs, so the only uplink traffic is the
			// sample the generator triggers to carry each ack.
			Streams: []garnet.StreamConfig{{Index: 0, Sampler: sampler, Period: time.Second}},
		})
		if err != nil {
			return nil, err
		}
		a.nodes = append(a.nodes, n)
	}
	sub, err := sys.register("ack-watcher", garnet.PermSubscribe|garnet.PermLocation)
	if err != nil {
		return nil, err
	}
	if _, err := sys.subscribe(sub, garnet.All(), &a.watch); err != nil {
		return nil, err
	}
	for i := range a.who {
		if a.who[i], err = sys.register(fmt.Sprintf("actuator-%d", i), garnet.PermActuate); err != nil {
			return nil, err
		}
	}
	sys.start()
	// Prime the Location Service: one heard sample per sensor, so the
	// replicator can target from the first demand on.
	for _, n := range a.nodes {
		sys.sample(n)
		sys.pump(actStep)
	}
	if a.watch.msgs != int64(len(a.nodes)) {
		return nil, fmt.Errorf("priming: %d of %d samples delivered", a.watch.msgs, len(a.nodes))
	}
	// The probe is addressed to a sensor that does not exist: every
	// listener decodes it and ignores it.
	ping := wire.ControlMessage{Target: wire.MustStreamID(wire.MaxSensorID, 0), Op: wire.OpPing, UpdateID: 1, Issued: chainEpoch}
	if a.probe, err = ping.Encode(); err != nil {
		return nil, err
	}
	// A fixed-count warm-up, one op per sensor on average, as the uplink
	// workloads have: without it set-up is a millisecond, too short to time.
	for i := 0; i < sc.actSensors; i++ {
		a.runOp()
	}
	if a.failed != 0 {
		return nil, fmt.Errorf("warm-up: %d of %d demands not acknowledged", a.failed, a.attempted)
	}
	return a, nil
}

// runOp is one demand → actuation → ack round trip. The virtual clock
// makes it a deterministic measure of the code's CPU cost: on a real clock
// the wait for the ack is set by the sensor's sampling period.
func (a *actuationRun) runOp() {
	op := a.script.next()
	tr := a.sys.tracer()
	tr.setTrace(a.op)
	a.op++
	root := tr.begin(spOp)
	acks := a.watch.acks
	dec, err := a.sys.actuate(a.who[op.who], garnet.Demand{
		Target: garnet.MustStreamID(garnet.SensorID(op.sensor+1), 0), Op: garnet.OpSetRate, Value: op.rate,
	})
	if err == nil && dec.Changed {
		a.changed++
	}
	a.sys.pump(actStep)
	a.sys.sample(a.nodes[op.sensor]) // the ack rides on the sensor's next data message
	a.sys.pump(actStep)
	if c, ok := a.sys.(*chain); ok {
		c.probeTransmit(op.sensor%len(c.txs), a.probe)
	}
	tr.end(root)
	a.attempted++
	if err != nil || a.watch.acks != acks+1 {
		a.failed++
	}
}

// check is the end-of-run half of the output checker: every issued request
// was acknowledged and every sensor runs at the last rate demanded of it.
func (a *actuationRun) check() []string {
	var bad []string
	if st := a.sys.stats().Actuation; st.Issued != st.Acked || st.Expired != 0 {
		bad = append(bad, fmt.Sprintf("actuation: issued %d, acked %d, expired %d", st.Issued, st.Acked, st.Expired))
	}
	for i, n := range a.nodes {
		rate := a.script.rate[i]
		if rate == actBaseRate {
			continue // never targeted
		}
		want := time.Duration(float64(time.Second) * 1000.0 / float64(rate))
		if got, _ := n.StreamPeriod(0); got != want {
			bad = append(bad, fmt.Sprintf("sensor %d: period %v, last demand wants %v", i+1, got, want))
		}
	}
	return bad
}

// probeTransmit spans one direct Transmitter.Broadcast. The replicator
// calls transmitters itself, so inside replicator.send their cost cannot be
// told apart; this probe measures it on its own.
func (c *chain) probeTransmit(i int, frame []byte) {
	prev := c.clk.setKind(spTimer)
	sp := c.tr.begin(spTransmitBroadcast)
	c.txs[i].Broadcast(frame)
	c.tr.end(sp)
	c.clk.setKind(prev)
}
