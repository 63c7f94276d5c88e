package dispatch

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestFanoutMatchesReference drives a seeded script of subscriptions and
// unsubscriptions of all four pattern kinds against a synchronous
// dispatcher and checks every dispatch against a brute-force reference:
// each consumer holding a matching subscription gets the delivery exactly
// once, in the order its port was created, and a delivery nobody matches
// goes to the orphan sink. Subscribed must agree with the same reference.
// Consumer 0 starts out holding Exact, BySensor and All subscriptions that
// all match one stream, two of them Exact on that stream.
func TestFanoutMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		runFanoutScript(t, seed)
	}
}

type liveSub struct {
	id       SubscriptionID
	consumer int
	pattern  Pattern
}

func (s liveSub) String() string {
	return fmt.Sprintf("c%d:kind%d/%v/%v", s.consumer, s.pattern.Kind, s.pattern.Stream, s.pattern.Sensor)
}

func patternMatches(p Pattern, m wire.Message) bool {
	switch p.Kind {
	case KindExact:
		return p.Stream == m.Stream
	case KindSensor:
		return p.Sensor == m.Stream.Sensor()
	case KindAll:
		return true
	}
	return p.Where(m)
}

func runFanoutScript(t *testing.T, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 42))
	d := New(Options{})
	var got []int // consumer index of each delivery, in delivery order
	orphans := 0
	d.SetOrphanSink(func(filtering.Delivery) { orphans++ })
	consumers := make([]Consumer, 6)
	for i := range consumers {
		consumers[i] = &ConsumerFunc{ConsumerName: fmt.Sprintf("c%d", i), Fn: func(filtering.Delivery) { got = append(got, i) }}
	}
	randStream := func() wire.StreamID {
		return wire.MustStreamID(wire.SensorID(1+rng.IntN(3)), wire.StreamIndex(rng.IntN(2)))
	}
	wheres := []func(wire.Message) bool{
		func(m wire.Message) bool { return m.Stream.Sensor()%2 == 1 },
		func(m wire.Message) bool { return m.Stream.Index() == 1 },
		func(m wire.Message) bool { return m.Stream == wire.MustStreamID(2, 0) },
	}

	var subs []liveSub
	created := map[int]int{} // consumer → creation stamp of its live port
	stamp := 0
	refs := func(c int) int {
		n := 0
		for _, s := range subs {
			if s.consumer == c {
				n++
			}
		}
		return n
	}
	subscribe := func(c int, p Pattern) {
		id, err := d.Subscribe(consumers[c], p)
		if err != nil {
			t.Fatalf("seed %d: Subscribe: %v", seed, err)
		}
		if refs(c) == 0 {
			stamp++
			created[c] = stamp
		}
		subs = append(subs, liveSub{id, c, p})
	}
	want := func(m wire.Message) []int {
		var out []int
		for _, s := range subs {
			if patternMatches(s.pattern, m) && !slices.Contains(out, s.consumer) {
				out = append(out, s.consumer)
			}
		}
		slices.SortFunc(out, func(a, b int) int { return created[a] - created[b] })
		return out
	}

	hot := wire.MustStreamID(1, 0)
	subscribe(0, Exact(hot))
	subscribe(0, BySensor(hot.Sensor()))
	subscribe(0, All())
	subscribe(0, Exact(hot))
	for step := 0; step < 300; step++ {
		if len(subs) > 0 && (rng.IntN(100) < 45 || len(subs) > 24) {
			i := rng.IntN(len(subs))
			s := subs[i]
			if !d.Unsubscribe(s.id) {
				t.Fatalf("seed %d step %d: Unsubscribe(%v) reported no such subscription", seed, step, s)
			}
			subs = slices.Delete(subs, i, i+1)
			if refs(s.consumer) == 0 {
				delete(created, s.consumer)
			}
		} else {
			c := rng.IntN(len(consumers))
			switch rng.IntN(4) {
			case 0:
				subscribe(c, Exact(randStream()))
			case 1:
				subscribe(c, BySensor(randStream().Sensor()))
			case 2:
				subscribe(c, All())
			default:
				subscribe(c, Where(wheres[rng.IntN(len(wheres))]))
			}
		}
		for range 3 {
			m := wire.Message{Stream: randStream(), Seq: wire.Seq(step)}
			got = got[:0]
			orphansBefore := orphans
			d.Dispatch(filtering.Delivery{Msg: m, At: epoch})
			w := want(m)
			if !slices.Equal(got, w) {
				t.Fatalf("seed %d step %d: %v reached consumers %v, want %v; live subscriptions %v",
					seed, step, m.Stream, got, w, subs)
			}
			if orphaned := orphans - orphansBefore; (len(w) == 0) != (orphaned == 1) || orphaned > 1 {
				t.Fatalf("seed %d step %d: %v orphaned %d times with %d matching consumers",
					seed, step, m.Stream, orphaned, len(w))
			}
			if d.Subscribed(m.Stream) != (len(w) > 0) {
				t.Fatalf("seed %d step %d: Subscribed(%v) = %v with matching consumers %v",
					seed, step, m.Stream, !(len(w) > 0), w)
			}
		}
	}
}
