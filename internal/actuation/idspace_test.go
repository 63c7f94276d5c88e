package actuation

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// oneShotOptions keeps every issued request outstanding until it is acked:
// one attempt, and an expiry no test advances the clock far enough to reach.
func oneShotOptions() Options {
	return Options{RetryInterval: time.Hour, MaxAttempts: 1}
}

// allIDs is the number of allocatable update ids: the 16-bit wire space
// less the reserved id 0.
const allIDs = math.MaxUint16

// The id allocator must skip ids still outstanding when the space wraps,
// reusing only acked ids, and saturate exactly when all 65 535 ids are
// outstanding — which one sensor alone may hold: no per-sensor or
// per-partition budget stands between a target and the wire's id space.
func TestIDWrapSkipsOutstanding(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, oneShotOptions())

	req := Request{Target: wire.MustStreamID(42, 0), Op: wire.OpPing, Consumer: "app"}
	ids := make([]uint16, 0, allIDs)
	for i := 0; i < allIDs; i++ {
		id, err := s.Issue(req, nil)
		if err != nil {
			t.Fatalf("issue %d of %d against one sensor: %v", i+1, allIDs, err)
		}
		if id == 0 {
			t.Fatal("allocated reserved wire id 0")
		}
		ids = append(ids, id)
	}
	if got := s.Stats().Outstanding; got != allIDs {
		t.Fatalf("outstanding = %d, want %d distinct ids", got, allIDs)
	}
	if _, err := s.Issue(req, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated service accepted an issue: %v", err)
	}
	other := Request{Target: wire.MustStreamID(43, 0), Op: wire.OpPing}
	if _, err := s.Issue(other, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated service accepted another sensor's issue: %v", err)
	}

	// Free three ids in the middle; the allocator must wrap the space and
	// hand back exactly those, never a still-outstanding id.
	freed := map[uint16]bool{ids[10]: true, ids[1000]: true, ids[60000]: true}
	for id := range freed {
		s.HandleAck(id, clock.Now())
	}
	for i := 0; i < 3; i++ {
		id, err := s.Issue(req, nil)
		if err != nil {
			t.Fatalf("post-ack issue %d: %v", i, err)
		}
		if !freed[id] {
			t.Fatalf("allocator handed out id %#04x, want one of the freed ids", id)
		}
		delete(freed, id)
	}
	if _, err := s.Issue(req, nil); !errors.Is(err, ErrSaturated) {
		t.Fatal("service should be saturated again after reusing the freed ids")
	}
}

// TestActuationRaceStress drives concurrent issues, acks and stats reads
// against a concurrently-advanced virtual clock, so retry and expiry
// timers interleave with the control path. The service is one mutex, so
// this is its whole concurrency contract. Run with -race. Every issued
// request must resolve exactly once.
func TestActuationRaceStress(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var svc *Service
	acks := make(chan uint16, 4096)
	svc = NewService(clock, func(wire.ControlMessage) {}, Options{
		RetryInterval: 5 * time.Millisecond,
		MaxAttempts:   3,
	})

	const issuers, perIssuer = 4, 400
	var resolved atomic.Int64
	var produceWG, ackerWG sync.WaitGroup
	for w := 0; w < issuers; w++ {
		produceWG.Add(1)
		go func(seed int64) {
			defer produceWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perIssuer; i++ {
				target := wire.MustStreamID(wire.SensorID(rng.Intn(64)+1), 0)
				id, err := svc.Issue(Request{Target: target, Op: wire.OpPing}, func(Result) {
					resolved.Add(1)
				})
				if err != nil {
					t.Errorf("issue: %v", err)
					return
				}
				if rng.Intn(2) == 0 {
					acks <- id
				}
			}
		}(int64(w + 1))
	}
	ackerWG.Add(1)
	go func() { // acker: completes roughly half the requests
		defer ackerWG.Done()
		for id := range acks {
			svc.HandleAck(id, clock.Now())
		}
	}()
	produceWG.Add(1)
	go func() { // clock driver: fires retries and expiries concurrently
		defer produceWG.Done()
		for i := 0; i < 300; i++ {
			clock.Advance(time.Millisecond)
			_ = svc.Stats()
		}
	}()

	produceWG.Wait()
	close(acks)
	ackerWG.Wait()

	// Drain: let every remaining retry budget run out, then stop.
	clock.Advance(time.Second)
	svc.Stop()

	st := svc.Stats()
	if st.Issued != int64(issuers*perIssuer) {
		t.Fatalf("issued = %d, want %d", st.Issued, issuers*perIssuer)
	}
	if err := st.Check(); err != nil {
		t.Fatal(err)
	}
	if resolved.Load() != st.Issued {
		t.Fatalf("done callbacks = %d, want %d", resolved.Load(), st.Issued)
	}
}

// Wire id 0 is never allocated: the allocator must skip it across a full
// wrap of the 16-bit space.
func TestIDZeroNeverAllocated(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, Options{RetryInterval: time.Hour})
	for i := 0; i < 1<<16+50; i++ {
		id, err := s.Issue(pingReq, nil)
		if err != nil {
			t.Fatalf("issue %d: %v", i, err)
		}
		if id == 0 {
			t.Fatalf("issue %d allocated reserved wire id 0", i)
		}
		s.HandleAck(id, clock.Now())
	}
}

// Every transmission of a request — first attempt and retries — must
// carry the request's original issue timestamp: the sensor applies
// settings in issue order, so a retry re-stamped with the transmit time
// could masquerade as newer than a later request and revert the sensor.
func TestRetryCarriesOriginalIssueTimestamp(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var sent []wire.ControlMessage
	s := NewService(clock, func(c wire.ControlMessage) { sent = append(sent, c) }, Options{
		RetryInterval: time.Second, MaxAttempts: 3,
	})
	issued := clock.Now()
	if _, err := s.Issue(Request{Target: wire.MustStreamID(7, 0), Op: wire.OpSetRate, Value: 1000}, nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second) // two retries fire
	if len(sent) != 3 {
		t.Fatalf("sent %d transmissions, want 3", len(sent))
	}
	for i, c := range sent {
		if !c.Issued.Equal(issued) {
			t.Fatalf("attempt %d Issued = %v, want original %v", i+1, c.Issued, issued)
		}
	}
}

// Two distinct requests issued within one clock instant must carry
// distinct, ordered wire timestamps: the sensor applies settings in
// issue order, and a tie would let a delayed retry of the older value
// slip past the staleness guard and revert the newer setting.
func TestSameInstantFlipsCarryOrderedStamps(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var sent []wire.ControlMessage
	s := NewService(clock, func(c wire.ControlMessage) { sent = append(sent, c) }, Options{
		RetryInterval: time.Hour, MaxAttempts: 1,
	})
	target := wire.MustStreamID(7, 0)
	for v := uint32(1); v <= 3; v++ {
		if _, err := s.Issue(Request{Target: target, Op: wire.OpSetRate, Value: v}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(sent) != 3 {
		t.Fatalf("sent = %d, want 3", len(sent))
	}
	for i := 1; i < len(sent); i++ {
		if !sent[i].Issued.After(sent[i-1].Issued) {
			t.Fatalf("stamp %d (%v) not after stamp %d (%v)",
				i, sent[i].Issued, i-1, sent[i-1].Issued)
		}
	}
}

// opaqueClock is a clock the service cannot recognise: it hides the
// virtual clock's concrete type and its Scheduler, as the benchmark's
// tracing clock does.
type opaqueClock struct{ v *sim.VirtualClock }

func (c opaqueClock) Now() time.Time { return c.v.Now() }
func (c opaqueClock) AfterFunc(d time.Duration, f func()) sim.Timer {
	return c.v.AfterFunc(d, f)
}

// The clock holds a timer only for a request that is still outstanding,
// whatever the clock: an ack releases the request's armed retry timer at
// once, the expiry fires the last one and arms none, and Stop releases the
// rest. Otherwise every acknowledged request keeps its timer, its pending
// record and the done callback it captures for up to RetryInterval.
func TestRetryTimersReleasedOnEveryClock(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*sim.VirtualClock) sim.Clock
	}{
		{"VirtualClock", func(v *sim.VirtualClock) sim.Clock { return v }},
		{"opaque", func(v *sim.VirtualClock) sim.Clock { return opaqueClock{v} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := sim.NewVirtualClock(epoch)
			clock := tc.wrap(v)
			s := NewService(clock, func(wire.ControlMessage) {}, Options{
				RetryInterval: time.Second, MaxAttempts: 3,
			})
			base := v.Pending()
			issue := func(n int) []uint16 {
				ids := make([]uint16, n)
				for i := range ids {
					id, err := s.Issue(pingReq, func(Result) {})
					if err != nil {
						t.Fatal(err)
					}
					ids[i] = id
				}
				if got := v.Pending(); got != base+n {
					t.Fatalf("Pending with %d requests outstanding = %d, want %d", n, got, base+n)
				}
				return ids
			}

			// Acks: half before any retry, half after one.
			const n = 10_000
			ids := issue(n)
			for _, id := range ids[:n/2] {
				s.HandleAck(id, clock.Now())
			}
			if got := v.Pending(); got != base+n/2 {
				t.Fatalf("Pending after %d acks = %d, want %d", n/2, got, base+n/2)
			}
			v.Advance(1500 * time.Millisecond)
			for _, id := range ids[n/2:] {
				s.HandleAck(id, clock.Now())
			}
			if got := v.Pending(); got != base {
				t.Fatalf("Pending after every ack = %d, want the baseline %d", got, base)
			}

			// Expiry.
			issue(100)
			v.Advance(time.Minute)
			if got := v.Pending(); got != base {
				t.Fatalf("Pending after expiry = %d, want the baseline %d", got, base)
			}

			// Stop, with retries in flight.
			issue(100)
			v.Advance(1500 * time.Millisecond)
			s.Stop()
			if got := v.Pending(); got != base {
				t.Fatalf("Pending after Stop = %d, want the baseline %d", got, base)
			}

			st := s.Stats()
			if st.Issued != n+200 || st.Acked != n || st.Expired != 100 || st.Cancelled != 100 || st.Outstanding != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// Stamps must stay strictly ordered after the wire's µs truncation: two
// requests issued within one microsecond (a real clock has ns
// precision) would otherwise carry ordered in-memory stamps that encode
// to the identical wire value, resurrecting the tie.
func TestStampsSurviveWireTruncation(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var sent []wire.ControlMessage
	s := NewService(clock, func(c wire.ControlMessage) { sent = append(sent, c) }, Options{
		RetryInterval: time.Hour, MaxAttempts: 1,
	})
	target := wire.MustStreamID(7, 0)
	for v := uint32(1); v <= 3; v++ {
		if _, err := s.Issue(Request{Target: target, Op: wire.OpSetRate, Value: v}, nil); err != nil {
			t.Fatal(err)
		}
		clock.Advance(300 * time.Nanosecond) // sub-µs spacing
	}
	if len(sent) != 3 {
		t.Fatalf("sent = %d, want 3", len(sent))
	}
	for i, c := range sent {
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := wire.DecodeControl(enc)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			prev := sent[i-1]
			prevEnc, _ := prev.Encode()
			prevDec, _ := wire.DecodeControl(prevEnc)
			if !dec.Issued.After(prevDec.Issued) {
				t.Fatalf("decoded stamp %d (%v) not after %d (%v)", i, dec.Issued, i-1, prevDec.Issued)
			}
		}
	}
}
