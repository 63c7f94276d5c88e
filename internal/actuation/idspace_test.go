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
	if got := s.Outstanding(); got != allIDs {
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

// A burst of conflicting updates against one sensor setting collapses to
// the first transmission plus one trailing transmission of the latest
// value; the intermediate requests complete as superseded.
func TestCoalescingCollapsesBurst(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var sent []wire.ControlMessage
	s := NewService(clock, func(c wire.ControlMessage) { sent = append(sent, c) }, Options{
		RetryInterval:  time.Hour,
		MaxAttempts:    1,
		CoalesceWindow: 100 * time.Millisecond,
	})
	target := wire.MustStreamID(7, 0)

	var results []Result
	record := func(r Result) { results = append(results, r) }
	for v := uint32(1); v <= 5; v++ {
		if _, err := s.Issue(Request{Target: target, Op: wire.OpSetRate, Value: v}, record); err != nil {
			t.Fatal(err)
		}
	}
	if len(sent) != 1 || sent[0].Value != 1 {
		t.Fatalf("burst head: sent %+v, want one transmission of value 1", sent)
	}
	// Values 2..4 were superseded inside the window, in order.
	if len(results) != 3 {
		t.Fatalf("superseded results = %d, want 3", len(results))
	}
	for i, r := range results {
		if r.Outcome != OutcomeSuperseded || r.Request.Value != uint32(i+2) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}

	clock.Advance(100 * time.Millisecond) // window closes, latest value issues
	if len(sent) != 2 || sent[1].Value != 5 {
		t.Fatalf("trailing actuation: sent %d messages, last %+v", len(sent), sent[len(sent)-1])
	}
	if st := s.Stats(); st.Issued != 2 || st.Coalesced != 4 {
		t.Fatalf("stats = %+v", st)
	}

	// The re-armed window drains empty and closes; the next request
	// transmits immediately again.
	clock.Advance(100 * time.Millisecond)
	if _, err := s.Issue(Request{Target: target, Op: wire.OpSetRate, Value: 9}, nil); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 3 || sent[2].Value != 9 {
		t.Fatalf("post-window issue: sent %+v", sent)
	}
}

// Pings probe reachability and must never coalesce.
func TestPingsNeverCoalesce(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	count := 0
	s := NewService(clock, func(wire.ControlMessage) { count++ }, Options{
		RetryInterval: time.Hour, MaxAttempts: 1, CoalesceWindow: time.Second,
	})
	for i := 0; i < 3; i++ {
		if _, err := s.Issue(pingReq, nil); err != nil {
			t.Fatal(err)
		}
	}
	if count != 3 {
		t.Fatalf("pings sent = %d, want 3", count)
	}
}

// Stop must resolve requests held inside a coalescing window.
func TestStopCancelsHeldRequest(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, Options{
		RetryInterval: time.Hour, MaxAttempts: 1, CoalesceWindow: time.Second,
	})
	target := wire.MustStreamID(7, 0)
	if _, err := s.Issue(Request{Target: target, Op: wire.OpSetRate, Value: 1}, nil); err != nil {
		t.Fatal(err)
	}
	var held Result
	if _, err := s.Issue(Request{Target: target, Op: wire.OpSetRate, Value: 2}, func(r Result) { held = r }); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if held.Outcome != OutcomeCancelled {
		t.Fatalf("held result = %+v", held)
	}
	clock.Advance(time.Hour) // the armed window close fires into the stopped service
	if st := s.Stats(); st.Issued != 1 || st.Cancelled != 2 {
		t.Fatalf("stats = %+v", st)
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
			_ = svc.Outstanding()
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
	if got := st.Acked + st.Expired + st.Cancelled; got != st.Issued {
		t.Fatalf("acked %d + expired %d + cancelled %d != issued %d",
			st.Acked, st.Expired, st.Cancelled, st.Issued)
	}
	if resolved.Load() != st.Issued {
		t.Fatalf("done callbacks = %d, want %d", resolved.Load(), st.Issued)
	}
}

// Wire id 0 is reserved for never-transmitted results: the allocator
// must skip it across a full wrap of the 16-bit space.
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

// A saturated issue must not leave its freshly-opened coalescing window
// behind: followers would be absorbed into it and silently dropped
// instead of seeing ErrSaturated themselves.
func TestSaturatedIssueClosesWindow(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	opts := oneShotOptions()
	opts.CoalesceWindow = 100 * time.Millisecond
	s := NewService(clock, func(wire.ControlMessage) {}, opts)
	target := wire.MustStreamID(42, 0)

	// Saturate the id space with non-coalescible pings.
	var ids []uint16
	for {
		id, err := s.Issue(Request{Target: target, Op: wire.OpPing}, nil)
		if err != nil {
			break
		}
		ids = append(ids, id)
	}
	rate := Request{Target: target, Op: wire.OpSetRate, Value: 1000}
	if _, err := s.Issue(rate, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated coalescible issue: %v", err)
	}
	// The follower must see the error too, not a silent (0, nil) absorb.
	if _, err := s.Issue(rate, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("follower swallowed by a leaked window: %v", err)
	}
	// After capacity frees up, issuing works again.
	s.HandleAck(ids[0], clock.Now())
	if _, err := s.Issue(rate, nil); err != nil {
		t.Fatalf("post-ack issue: %v", err)
	}
	if st := s.Stats(); st.Coalesced != 0 {
		t.Fatalf("requests were absorbed during saturation: %+v", st)
	}
}

// Latest-wins under loss: when the trailing actuation of a coalescing
// window transmits a newer value while the window's first transmission
// is still unacked, the older request's retries are abandoned — the
// superseded value can never be retransmitted after the newer one.
func TestTrailingActuationSupersedesUnackedPrior(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var sent []wire.ControlMessage
	s := NewService(clock, func(c wire.ControlMessage) { sent = append(sent, c) }, Options{
		RetryInterval:  2 * time.Second,
		MaxAttempts:    5,
		CoalesceWindow: 100 * time.Millisecond,
	})
	target := wire.MustStreamID(7, 0)

	var first Result
	firstID, err := s.Issue(Request{Target: target, Op: wire.OpSetRate, Value: 1000}, func(r Result) { first = r })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Issue(Request{Target: target, Op: wire.OpSetRate, Value: 2000}, nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(100 * time.Millisecond) // window closes: value 2000 transmits
	if first.Outcome != OutcomeSuperseded || first.UpdateID != firstID || first.Attempts != 1 {
		t.Fatalf("first result = %+v, want superseded id %d", first, firstID)
	}
	// The abandoned request's retry must not fire; the newer one retries.
	clock.Advance(10 * time.Second)
	for _, c := range sent[2:] {
		if c.Value != 2000 {
			t.Fatalf("superseded value retransmitted after the trailing actuation: %v", sentValues(sent))
		}
	}
	st := s.Stats()
	if st.Superseded != 1 || st.Issued != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Acked+st.Expired+st.Cancelled+st.Superseded != st.Issued {
		t.Fatalf("issued requests did not all resolve: %+v", st)
	}
}

func sentValues(sent []wire.ControlMessage) []uint32 {
	vs := make([]uint32, len(sent))
	for i, c := range sent {
		vs[i] = c.Value
	}
	return vs
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

// A saturated id space must not leave a coalescing window (or its armed
// close timer) behind: the orphan timer would later close a different
// window for the same key early, breaking the one-actuation-per-window
// contract.
func TestSaturationLeavesNoCoalescingWindow(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	sent := 0
	opts := oneShotOptions()
	opts.CoalesceWindow = 100 * time.Millisecond
	s := NewService(clock, func(wire.ControlMessage) { sent++ }, opts)

	// Saturate: distinct streams are distinct coalescing keys, so every
	// issue allocates an id and stays outstanding.
	ids := make([]uint16, 0, allIDs)
	for sensor := wire.SensorID(1); len(ids) < allIDs; sensor++ {
		for index := 0; index <= 255 && len(ids) < allIDs; index++ {
			id, err := s.Issue(Request{Target: wire.MustStreamID(sensor, wire.StreamIndex(index)), Op: wire.OpSetRate, Value: 1}, nil)
			if err != nil {
				t.Fatalf("saturated too early, %d outstanding: %v", len(ids), err)
			}
			ids = append(ids, id)
		}
	}
	// probe is the key whose Issue hits ErrSaturated — the key a buggy
	// implementation would leave an orphan close timer armed for.
	probe := wire.MustStreamID(1000, 0)
	if _, err := s.Issue(Request{Target: probe, Op: wire.OpSetRate, Value: 1}, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("issue with %d outstanding: %v, want ErrSaturated", len(ids), err)
	}

	// Free two ids, then open a real window on a fresh key mid-way
	// between the saturation instant and the (buggy) orphan timer's fire
	// time: first transmission immediate, a follower held.
	clock.Advance(50 * time.Millisecond)
	s.HandleAck(ids[0], clock.Now())
	s.HandleAck(ids[1], clock.Now())
	if _, err := s.Issue(Request{Target: probe, Op: wire.OpSetRate, Value: 10}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Issue(Request{Target: probe, Op: wire.OpSetRate, Value: 20}, nil); err != nil {
		t.Fatal(err)
	}
	before := sent

	// At +100ms an orphan timer from the saturated issue would fire and
	// close the probe's window 50ms early, transmitting the held value.
	clock.Advance(50 * time.Millisecond)
	if sent != before {
		t.Fatalf("held request transmitted %d early transmissions after 50ms — orphan close timer fired", sent-before)
	}
	// The probe's own window closes at +150ms and issues the trailing value.
	clock.Advance(50 * time.Millisecond)
	if sent != before+1 {
		t.Fatalf("trailing transmissions = %d, want 1", sent-before)
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
	// The trailing coalesced actuation is ordered too (it goes through
	// the same stamp sequence).
	if !sent[0].Issued.After(epoch.Add(-time.Second)) {
		t.Fatal("sanity: stamps near epoch")
	}
}

// stopSpyClock hides the virtual clock's Scheduler so the service takes
// the real-clock AfterFunc path, and counts timer Stops.
type stopSpyClock struct {
	v     *sim.VirtualClock
	stops atomic.Int32
}

func (c *stopSpyClock) Now() time.Time { return c.v.Now() }
func (c *stopSpyClock) AfterFunc(d time.Duration, f func()) sim.Timer {
	return spyTimer{c.v.AfterFunc(d, f), &c.stops}
}

type spyTimer struct {
	sim.Timer
	stops *atomic.Int32
}

func (t spyTimer) Stop() bool {
	t.stops.Add(1)
	return t.Timer.Stop()
}

// On clocks without the pooled scheduler (production real clocks), an
// ack must stop the request's armed retry timer immediately — otherwise
// every acked request retains its pending record, done callback and
// timer until the dead timer fires up to RetryInterval later.
func TestAckReleasesRetryTimerOnRealClockPath(t *testing.T) {
	clock := &stopSpyClock{v: sim.NewVirtualClock(epoch)}
	s := NewService(clock, func(wire.ControlMessage) {}, Options{
		RetryInterval: time.Hour, MaxAttempts: 5,
	})
	if s.sched != nil {
		t.Fatal("spy clock must not take the pooled scheduler path")
	}
	id, err := s.Issue(Request{Target: wire.MustStreamID(7, 0), Op: wire.OpSetRate, Value: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := clock.stops.Load(); got != 0 {
		t.Fatalf("stops before ack = %d", got)
	}
	s.HandleAck(id, clock.Now())
	if got := clock.stops.Load(); got != 1 {
		t.Fatalf("stops after ack = %d, want 1 (retry timer released)", got)
	}
	// Stop releases the timers of requests still outstanding.
	id2, err := s.Issue(Request{Target: wire.MustStreamID(7, 1), Op: wire.OpSetRate, Value: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = id2
	s.Stop()
	if got := clock.stops.Load(); got != 2 {
		t.Fatalf("stops after Stop = %d, want 2", got)
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
