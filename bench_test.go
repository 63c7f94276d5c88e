// Micro-benchmarks for the hot paths (wire decode, duplicate filter,
// census ingest, dispatch fan-out and catch-up, radio broadcast and
// hand-off, control submit): the ones a CI smoke step, README.md or the
// verify skill names. Whether a change made a deployment slower is
// bench/'s question, not theirs.
//
// Run with: go test -bench=. -benchmem
package garnet_test

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	garnet "github.com/garnet-middleware/garnet"
	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/orphanage"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// BenchmarkWireDecode compares the two decode modes: the copying
// DecodeMessage (one payload allocation per frame) and the zero-copy
// DecodeMessageBorrowed (payload aliases the frame; never allocates).
func BenchmarkWireDecode(b *testing.B) {
	for _, size := range []int{0, 16, 256, 4096} {
		msg := wire.Message{
			Stream:  wire.MustStreamID(123456, 7),
			Seq:     42,
			Payload: make([]byte, size),
		}
		frame, err := msg.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("payload=%d/mode=copy", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if _, _, err := wire.DecodeMessage(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("payload=%d/mode=borrow", size), func(b *testing.B) {
			var m wire.Message
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeMessageBorrowed(frame, &m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFilterIngest is the single-stream ingest hot path: copies=1 is
// pure accept, higher copy counts mix in the duplicate-suppression path
// that overlapping receiver zones produce. shards=1 reproduces the
// historical global-mutex filter; the sharded default adds the
// single-entry stream cache and shard-local counters. Steady state must
// stay at 0 allocs/op.
func BenchmarkFilterIngest(b *testing.B) {
	for _, dup := range []int{1, 3, 6} {
		for _, shards := range []int{1, filtering.DefaultShards} {
			b.Run(fmt.Sprintf("copies=%d/shards=%d", dup, shards), func(b *testing.B) {
				f := filtering.New(func(filtering.Delivery) {}, filtering.Options{Shards: shards})
				id := wire.MustStreamID(1, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rc := receiver.Reception{
						Msg: wire.Message{Stream: id, Seq: wire.Seq(i)},
					}
					for c := 0; c < dup; c++ {
						f.Ingest(rc)
					}
				}
			})
		}
	}
}

// BenchmarkFilterIngestZeroCopy measures the borrow-mode drop path: a
// borrowed payload-carrying reception whose duplicate is screened out
// must cost no payload copy and no allocation — the win the zero-copy
// decode buys under dense receiver overlap.
func BenchmarkFilterIngestZeroCopy(b *testing.B) {
	for _, size := range []int{16, 256} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			f := filtering.New(func(filtering.Delivery) {}, filtering.Options{})
			id := wire.MustStreamID(1, 0)
			payload := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc := receiver.Reception{
					Msg:      wire.Message{Stream: id, Seq: wire.Seq(i), Payload: payload},
					Borrowed: true,
				}
				f.Ingest(rc) // accepted: one detaching payload copy
				f.Ingest(rc) // duplicate: dropped with zero copies
				f.Ingest(rc)
			}
		})
	}
}

// BenchmarkFilterIngestShards runs concurrent ingest across disjoint
// streams (one per publisher goroutine), sweeping the filter shard
// count. With one shard every reception serialises on one mutex; with
// the default count unrelated streams ingest without contention. On a
// single-core host only the reduced serial overhead shows; the
// structural win needs real cores.
func BenchmarkFilterIngestShards(b *testing.B) {
	for _, publishers := range []int{1, 10, 100} {
		for _, shards := range []int{1, filtering.DefaultShards} {
			b.Run(fmt.Sprintf("publishers=%d/shards=%d", publishers, shards), func(b *testing.B) {
				var sunk atomic.Int64
				f := filtering.New(func(filtering.Delivery) { sunk.Add(1) },
					filtering.Options{Shards: shards})
				streams := make([]wire.StreamID, publishers)
				for i := range streams {
					streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < publishers; g++ {
					n := b.N / publishers
					if g < b.N%publishers {
						n++
					}
					wg.Add(1)
					go func(stream wire.StreamID, n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							f.Ingest(receiver.Reception{
								Msg: wire.Message{Stream: stream, Seq: wire.Seq(i)},
							})
						}
					}(streams[g], n)
				}
				wg.Wait()
				b.StopTimer()
				if got := sunk.Load(); got != int64(b.N) {
					b.Fatalf("delivered %d of %d", got, b.N)
				}
			})
		}
	}
}

func BenchmarkDispatchFanout(b *testing.B) {
	for _, consumers := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("consumers=%d", consumers), func(b *testing.B) {
			clock := garnet.NewVirtualClock(time.Unix(0, 0))
			g := garnet.New(garnet.WithClock(clock), garnet.WithSecret([]byte("bench")))
			defer g.Stop()
			tok, err := g.Register("bench", garnet.PermSubscribe)
			if err != nil {
				b.Fatal(err)
			}
			sink := 0
			for c := 0; c < consumers; c++ {
				if _, err := g.Subscribe(tok, garnet.Exact(garnet.MustStreamID(1, 0)), &garnet.ConsumerFunc{
					ConsumerName: fmt.Sprintf("c%d", c),
					Fn:           func(garnet.Delivery) { sink++ },
				}); err != nil {
					b.Fatal(err)
				}
			}
			g.Start()
			core := g.Core()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.InjectReception(receiver.Reception{
					Msg: wire.Message{Stream: wire.MustStreamID(1, 0), Seq: wire.Seq(i)},
					At:  clock.Now(), Receiver: "bench", RSSI: 1,
				})
			}
		})
	}
}

// BenchmarkInjectCensus is a census's ingest path through a whole
// deployment: 100 000 streams each injected once, then one message per op
// on a hot set of 16 384 of them, spread across the census so their
// records fall out of cache, each heard copies times. A reception is
// screened and retained in the store's record for its stream, then
// dispatched to one synchronous consumer of everything. Retention is 16
// messages a stream, and the hot set is warmed until every ring is at
// that bound, so the timed loop is steady state: 0 allocs/op.
func BenchmarkInjectCensus(b *testing.B) {
	const streams, hot, retain = 100_000, 16_384, 16
	for _, copies := range []int{1, 3} {
		b.Run(fmt.Sprintf("copies=%d", copies), func(b *testing.B) {
			clock := sim.NewVirtualClock(time.Unix(0, 0))
			d := core.New(core.Config{
				Clock: clock, Secret: []byte("bench"),
				Store:     store.Options{MaxMessages: retain},
				Orphanage: orphanage.Options{PerStreamCapacity: retain},
			})
			defer d.Stop()
			var consumed int
			sink := &dispatch.ConsumerFunc{ConsumerName: "census", Fn: func(filtering.Delivery) { consumed++ }}
			if _, err := d.Dispatcher().Subscribe(sink, dispatch.All()); err != nil {
				b.Fatal(err)
			}
			d.Start()
			payload := make([]byte, 16)
			inject := func(sensor int, seq wire.Seq) {
				for c := 0; c < copies; c++ {
					d.InjectReception(receiver.Reception{
						Msg: wire.Message{Stream: wire.MustStreamID(wire.SensorID(sensor), 0), Seq: seq, Payload: payload},
						At:  clock.Now(), Receiver: "bench", RSSI: 1,
					})
				}
			}
			for sensor := 1; sensor <= streams; sensor++ {
				inject(sensor, 0)
			}
			seqs := make([]wire.Seq, hot)
			next := func(i int) {
				k := i % hot
				seqs[k]++
				inject(1+k*(streams/hot), seqs[k])
			}
			for i := 0; i < hot*retain; i++ {
				next(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next(i)
			}
			b.StopTimer()
			if want := streams + hot*retain + b.N; consumed != want {
				b.Fatalf("consumed %d of %d", consumed, want)
			}
		})
	}
}

// BenchmarkDispatchShards compares the single-table dispatcher (shards=1,
// the historical design) against the sharded table at 1/10/100 concurrent
// publishers, each publishing to its own stream (distinct sensors) with
// one exact subscriber per stream. With one shard every publisher
// serialises on the same mutex; with the default shard count unrelated
// streams dispatch without contention.
func BenchmarkDispatchShards(b *testing.B) {
	for _, publishers := range []int{1, 10, 100} {
		for _, shards := range []int{1, dispatch.DefaultShards} {
			b.Run(fmt.Sprintf("publishers=%d/shards=%d", publishers, shards), func(b *testing.B) {
				d := dispatch.New(dispatch.Options{Shards: shards})
				var sunk atomic.Int64
				streams := make([]wire.StreamID, publishers)
				for i := range streams {
					streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
					if _, err := d.Subscribe(&dispatch.ConsumerFunc{
						ConsumerName: fmt.Sprintf("c%d", i),
						Fn:           func(filtering.Delivery) { sunk.Add(1) },
					}, dispatch.Exact(streams[i])); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < publishers; g++ {
					n := b.N / publishers
					if g < b.N%publishers {
						n++
					}
					wg.Add(1)
					go func(stream wire.StreamID, n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							d.Dispatch(filtering.Delivery{
								Msg: wire.Message{Stream: stream, Seq: wire.Seq(i)},
							})
						}
					}(streams[g], n)
				}
				wg.Wait()
				b.StopTimer()
				if got := sunk.Load(); got != int64(b.N) {
					b.Fatalf("delivered %d of %d", got, b.N)
				}
			})
		}
	}
}

// BenchmarkDispatchDrainBatch measures async queue draining: one
// publisher saturates a single consumer queue and the drainer takes up to
// DefaultBatchSize deliveries per take. wakes/delivery is the share of
// enqueues that found the drainer parked (Dispatcher.Wakeups /
// Stats.Delivered).
func BenchmarkDispatchDrainBatch(b *testing.B) {
	b.Run(fmt.Sprintf("batch=%d", dispatch.DefaultBatchSize), func(b *testing.B) {
		var sunk int64 // written only by the single drainer goroutine
		c := &dispatch.BatchConsumerFunc{ConsumerName: "sink", Fn: func(ds []filtering.Delivery) {
			sunk += int64(len(ds))
		}}
		d := dispatch.New(dispatch.Options{Mode: dispatch.ModeAsync, QueueCapacity: 8192})
		if _, err := d.Subscribe(c, dispatch.All()); err != nil {
			b.Fatal(err)
		}
		d.Start()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Dispatch(filtering.Delivery{Msg: wire.Message{Stream: wire.MustStreamID(1, 0), Seq: wire.Seq(i)}})
		}
		d.Stop() // waits for the drainer: sunk is safe to read after
		b.StopTimer()
		// Under drop-oldest an admitted delivery may later be shed to
		// admit a newer one, so conservation is drained == admitted
		// minus overflow drops.
		st := d.Stats()
		if sunk != st.Delivered-st.Dropped {
			b.Fatalf("drained %d, want %d admitted - %d dropped", sunk, st.Delivered, st.Dropped)
		}
		b.ReportMetric(float64(d.Wakeups())/float64(max(st.Delivered, 1)), "wakes/delivery")
	})
}

// BenchmarkDispatchCatchUp measures a late joiner's catch-up: per
// iteration an async consumer with queue capacity 256 subscribes with a
// replay of a fresh 4096-entry store.Range result, and the iteration ends
// once its drainer has handed every replayed message over. ns/msg is per
// replayed message; B/op is dominated by the Range result itself, since
// the port's ring adopts the batch rather than copying it.
func BenchmarkDispatchCatchUp(b *testing.B) {
	const backlog = 4096
	st := store.New(store.Options{MaxMessages: backlog})
	stream := wire.MustStreamID(1, 0)
	for seq := 0; seq < backlog; seq++ {
		st.Append(filtering.Delivery{Msg: wire.Message{Stream: stream, Seq: wire.Seq(seq)}, At: time.Unix(int64(seq), 0)})
	}
	from, _ := st.FirstSeq(stream)
	fetch := func() []filtering.Delivery { return st.Range(stream, from, ^uint64(0)) }
	d := dispatch.New(dispatch.Options{Mode: dispatch.ModeAsync, QueueCapacity: 256})
	d.Start()
	defer d.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		consumed := 0 // touched by this consumer's drainer only
		c := &dispatch.BatchConsumerFunc{ConsumerName: "late", Fn: func(ds []filtering.Delivery) {
			if consumed += len(ds); consumed == backlog {
				close(done)
			}
		}}
		id, n, err := d.SubscribeWithReplay(c, stream, fetch)
		if err != nil || n != backlog {
			b.Fatalf("replayed %d of %d: %v", n, backlog, err)
		}
		<-done
		d.Unsubscribe(id)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*backlog), "ns/msg")
}

// Ablation: synchronous vs asynchronous dispatch. Async pays queue+worker
// overhead per delivery in exchange for slow-consumer isolation.
func BenchmarkAblationDispatchMode(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run("mode="+mode, func(b *testing.B) {
			opts := dispatch.Options{}
			if mode == "async" {
				opts = dispatch.Options{Mode: dispatch.ModeAsync, QueueCapacity: 4096}
			}
			d := dispatch.New(opts)
			var sink atomic.Int64
			for c := 0; c < 8; c++ {
				if _, err := d.Subscribe(&dispatch.ConsumerFunc{
					ConsumerName: fmt.Sprintf("c%d", c),
					Fn:           func(filtering.Delivery) { sink.Add(1) },
				}, dispatch.All()); err != nil {
					b.Fatal(err)
				}
			}
			d.Start()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Dispatch(filtering.Delivery{Msg: wire.Message{Stream: wire.MustStreamID(1, 0), Seq: wire.Seq(i)}})
			}
			b.StopTimer()
			d.Stop()
		})
	}
}

// BenchmarkRadioBroadcast measures one uplink broadcast (decision +
// delivery + drain) against a growing receiver array at two densities.
// overlap=local keeps the array spread out so a broadcast reaches ~1-2
// receivers regardless of how many are attached: with the spatial index
// the cost must stay flat as receivers grow 16× (cost tracks *reached*,
// not *attached*, listeners) and the delivery path must run at 0
// steady-state allocs. overlap=full packs every receiver inside range —
// the cost there legitimately scales with N because N copies are
// delivered.
func BenchmarkRadioBroadcast(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		for _, overlap := range []string{"local", "full"} {
			b.Run(fmt.Sprintf("receivers=%d/overlap=%s", n, overlap), func(b *testing.B) {
				const radius = 100.0
				clock := garnet.NewVirtualClock(time.Unix(0, 0))
				m := radio.NewMedium(clock, radio.Params{Seed: 42})
				side := int(math.Ceil(math.Sqrt(float64(n))))
				spacing := 2.5 * radius // local: only the nearest zone covers a point
				if overlap == "full" {
					spacing = radius / float64(side) // full: everyone covers everything
				}
				delivered := 0
				for i := 0; i < n; i++ {
					pos := geo.Pt(float64(i%side)*spacing, float64(i/side)*spacing)
					m.Attach(radio.BandUplink, &radio.Listener{
						Name:     fmt.Sprintf("rx%d", i),
						Position: func() geo.Point { return pos },
						Radius:   radius,
						Static:   true,
						Borrows:  true,
						Deliver:  func(radio.Frame) { delivered++ },
					})
				}
				payload := make([]byte, 24)
				// Just beside a middle receiver: local reaches exactly its
				// nearest zone(s); full reaches everyone.
				mid := float64(side/2) * spacing
				from := geo.Pt(mid+10, mid)
				// Warm the scratch/hand-off/event pools before measuring.
				for i := 0; i < 16; i++ {
					m.Broadcast(radio.BandUplink, from, radius, payload)
					clock.RunAll()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Broadcast(radio.BandUplink, from, radius, payload)
					clock.RunAll()
				}
				b.StopTimer()
				if delivered == 0 {
					b.Fatal("broadcasts reached nobody")
				}
			})
		}
	}
}

// BenchmarkDownlinkFanout measures the return path's last hop: one
// transmitter broadcast heard by 256 static receive-capable sensors (one
// addressed, the rest overhearing), then the clock advance that delivers
// it. One op is one broadcast; with -benchmem, allocs/op is allocations
// per broadcast and must stay 0 — one pooled hand-off on the clock, and
// every sensor borrowing its frame. listen=free sensors filter by address,
// so the medium hands the frame to the addressee alone; listen=paid
// sensors (RxPerByte > 0) are each handed the frame, pay for it, and all
// but one decode the address and discard it. Either way every sensor's
// radio heard it, and Deliveries counts all 256.
func BenchmarkDownlinkFanout(b *testing.B) {
	for _, listen := range []struct {
		name      string
		rxPerByte float64
	}{{"free", 0}, {"paid", 0.001}} {
		b.Run("listen="+listen.name, func(b *testing.B) {
			const sensors = 256
			clock := garnet.NewVirtualClock(time.Unix(0, 0))
			m := radio.NewMedium(clock, radio.Params{Seed: 42})
			for i := 0; i < sensors; i++ {
				n, err := sensor.New(clock, m, sensor.Config{
					ID:           wire.SensorID(i + 1),
					Capabilities: sensor.CapReceive,
					Mobility:     field.Static{P: geo.Pt(float64(i%16)*10, float64(i/16)*10)},
					TxRange:      500,
					Streams:      []sensor.StreamConfig{{Sampler: sensor.ConstantSampler([]byte("x")), Period: time.Second}},
					Energy:       sensor.EnergyParams{RxPerByte: listen.rxPerByte},
				})
				if err != nil {
					b.Fatal(err)
				}
				n.Start()
				defer n.Stop()
			}
			tx := transmit.New(m, transmit.Config{Position: geo.Pt(75, 75), Range: 500})
			ping := wire.ControlMessage{UpdateID: 1, Target: wire.MustStreamID(1, 0), Op: wire.OpPing, Issued: clock.Now()}
			frame, err := ping.Encode()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 16; i++ { // warm the hand-off and event pools
				tx.Broadcast(frame)
				clock.Advance(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx.Broadcast(frame)
				clock.Advance(0)
			}
			b.StopTimer()
			if got, want := m.Metrics().Deliveries.Value(), int64(sensors*(b.N+16)); got != want {
				b.Fatalf("Deliveries = %d, want %d", got, want)
			}
		})
	}
}

// BenchmarkRealClockHandoff measures the uplink's first hop on the real
// clock, where the medium's zero-delay hand-off crosses goroutines: one
// static sensor heard by three receivers that count into a sink. One op
// is one TriggerSample and its three deliveries observed — the window-1
// case, a hand-off that wakes a parked worker; with -benchmem allocs/op
// is allocations per sample and must stay 1, the sensor's encoded frame
// (no timer, one pooled hand-off, receivers borrowing their frames).
func BenchmarkRealClockHandoff(b *testing.B) {
	const receivers = 3
	m := radio.NewMedium(sim.RealClock{}, radio.Params{Seed: 42})
	var heard atomic.Int64
	sampleHeard := make(chan struct{})
	for i := 0; i < receivers; i++ {
		rx := receiver.New(m, receiver.Config{Position: geo.Pt(float64(i)*10, 0), Radius: 100}, func(receiver.Reception) {
			if heard.Add(1)%receivers == 0 {
				sampleHeard <- struct{}{}
			}
		})
		rx.Start()
		defer rx.Stop()
	}
	n, err := sensor.New(sim.RealClock{}, m, sensor.Config{
		ID:       1,
		Mobility: field.Static{P: geo.Pt(10, 5)},
		TxRange:  100,
		// Sampled only by TriggerSample below: the period never elapses.
		Streams: []sensor.StreamConfig{{Sampler: sensor.ConstantSampler([]byte("sample")), Period: time.Hour, Enabled: true}},
	})
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	sample := func() {
		if err := n.TriggerSample(0); err != nil {
			b.Fatal(err)
		}
		<-sampleHeard
	}
	for i := 0; i < 16; i++ { // warm the hand-off pool
		sample()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample()
	}
	b.StopTimer()
	if got, want := m.Metrics().Deliveries.Value(), int64(receivers*(b.N+16)); got != want {
		b.Fatalf("Deliveries = %d, want %d", got, want)
	}
}

// BenchmarkControlSubmit measures the return actuation path's per-demand
// cost.
//
// steady is the approved-no-change fast path — a consumer re-asserting a
// demand that leaves the effective setting untouched — which must stay at
// 0 allocs/op: it is the common case when millions of consumers refresh
// standing demands. actuate flips the demanded rate every iteration, so
// each submit mediates, issues an update id, transmits and is
// synchronously acked (the full issue+ack bookkeeping without timers).
// concurrent is steady from GOMAXPROCS goroutines, one sensor each, all
// through the manager's one lock.
func BenchmarkControlSubmit(b *testing.B) {
	epoch := time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)
	b.Run("steady", func(b *testing.B) {
		rm := resource.NewManager(resource.PolicyMostDemanding)
		demand := resource.Demand{
			Consumer: "app", Target: wire.MustStreamID(7, 0),
			Op: wire.OpSetRate, Value: 2000,
		}
		if _, err := rm.Submit(demand); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec, err := rm.Submit(demand)
			if err != nil {
				b.Fatal(err)
			}
			if dec.Changed {
				b.Fatal("steady-state submit changed the effective setting")
			}
		}
	})
	b.Run("actuate", func(b *testing.B) {
		clock := sim.NewVirtualClock(epoch)
		rm := resource.NewManager(resource.PolicyMostDemanding)
		var svc *actuation.Service
		svc = actuation.NewService(clock, func(c wire.ControlMessage) {
			svc.HandleAck(c.UpdateID, c.Issued)
		}, actuation.Options{RetryInterval: time.Hour})
		target := wire.MustStreamID(7, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec, err := rm.Submit(resource.Demand{
				Consumer: "app", Target: target,
				Op: wire.OpSetRate, Value: uint32(1000 + i%2*1000),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.Issue(actuation.Request{
				Target: dec.Action.Target, Op: dec.Action.Op, Value: dec.Action.Value,
			}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		rm := resource.NewManager(resource.PolicyMostDemanding)
		var next atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			sensor := wire.SensorID(next.Add(1))
			demand := resource.Demand{
				Consumer: "app", Target: wire.MustStreamID(sensor, 0),
				Op: wire.OpSetRate, Value: 2000,
			}
			if _, err := rm.Submit(demand); err != nil {
				b.Error(err)
				return
			}
			for pb.Next() {
				if _, err := rm.Submit(demand); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
