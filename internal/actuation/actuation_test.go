package actuation

import (
	"errors"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

var pingReq = Request{Target: wire.MustStreamID(5, 0), Op: wire.OpPing, Consumer: "app"}

func TestIssueSendsStampedControl(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var sent []wire.ControlMessage
	s := NewService(clock, func(c wire.ControlMessage) { sent = append(sent, c) }, Options{})

	req := Request{Target: wire.MustStreamID(5, 2), Op: wire.OpSetRate, Value: 2000, Consumer: "app"}
	id, err := s.Issue(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 {
		t.Fatalf("sent %d, want 1", len(sent))
	}
	c := sent[0]
	if c.UpdateID != id || c.Target != req.Target || c.Op != req.Op || c.Value != req.Value {
		t.Fatalf("control = %+v", c)
	}
	if !c.Issued.Equal(epoch) {
		t.Fatalf("timestamp = %v, want %v", c.Issued, epoch)
	}
	// The frame must round-trip through the checksum-validated codec.
	frame, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeControl(frame); err != nil {
		t.Fatalf("checksummed frame invalid: %v", err)
	}
}

func TestAckCompletesWithLatency(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var sent []wire.ControlMessage
	s := NewService(clock, func(c wire.ControlMessage) { sent = append(sent, c) }, Options{})

	var result Result
	id, err := s.Issue(pingReq, func(r Result) { result = r })
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(300 * time.Millisecond)
	s.HandleAck(id, clock.Now())

	if result.Outcome != OutcomeAcked || result.UpdateID != id {
		t.Fatalf("result = %+v", result)
	}
	if result.Latency != 300*time.Millisecond {
		t.Fatalf("latency = %v", result.Latency)
	}
	if s.Stats().Outstanding != 0 {
		t.Fatal("request still outstanding after ack")
	}
	// No retries after ack.
	clock.Advance(time.Minute)
	if len(sent) != 1 {
		t.Fatalf("retransmitted after ack: %d sends", len(sent))
	}
}

func TestRetriesUntilAck(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	sendCount := 0
	s := NewService(clock, func(wire.ControlMessage) { sendCount++ }, Options{RetryInterval: time.Second, MaxAttempts: 5})

	id, err := s.Issue(pingReq, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2500 * time.Millisecond) // two retries fire
	if sendCount != 3 {
		t.Fatalf("sends = %d, want 3", sendCount)
	}
	s.HandleAck(id, clock.Now())
	clock.Advance(time.Minute)
	if sendCount != 3 {
		t.Fatalf("sends after ack = %d, want 3", sendCount)
	}
	if got := s.Stats().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

func TestExpiresAfterMaxAttempts(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	sendCount := 0
	s := NewService(clock, func(wire.ControlMessage) { sendCount++ }, Options{RetryInterval: time.Second, MaxAttempts: 3})

	var result Result
	if _, err := s.Issue(pingReq, func(r Result) { result = r }); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	if sendCount != 3 {
		t.Fatalf("sends = %d, want exactly MaxAttempts=3", sendCount)
	}
	if result.Outcome != OutcomeExpired || result.Attempts != 3 {
		t.Fatalf("result = %+v", result)
	}
	if s.Stats().Outstanding != 0 {
		t.Fatal("expired request still outstanding")
	}
}

func TestDuplicateAckIgnored(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, Options{})
	calls := 0
	id, err := s.Issue(pingReq, func(Result) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	s.HandleAck(id, clock.Now())
	s.HandleAck(id, clock.Now())
	s.HandleAck(9999, clock.Now()) // never issued
	if calls != 1 {
		t.Fatalf("done called %d times, want 1", calls)
	}
	if got := s.Stats().DuplicateAcks; got != 2 {
		t.Fatalf("duplicate acks = %d, want 2", got)
	}
}

func TestUpdateIDsUnique(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, Options{})
	seen := map[uint16]bool{}
	for i := 0; i < 1000; i++ {
		id, err := s.Issue(pingReq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("update id %d reused while outstanding", id)
		}
		seen[id] = true
	}
	if s.Stats().Outstanding != 1000 {
		t.Fatalf("outstanding = %d", s.Stats().Outstanding)
	}
}

func TestIssueInvalidOp(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, Options{})
	if _, err := s.Issue(Request{Target: wire.MustStreamID(1, 0), Op: 0}, nil); err == nil {
		t.Fatal("want error for invalid op")
	}
}

func TestStopCancelsOutstanding(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, Options{})
	var result Result
	if _, err := s.Issue(pingReq, func(r Result) { result = r }); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	s.Stop() // idempotent
	if result.Outcome != OutcomeCancelled {
		t.Fatalf("result = %+v", result)
	}
	if _, err := s.Issue(pingReq, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("Issue after Stop: %v", err)
	}
	// Pending retries must not fire after Stop.
	clock.Advance(time.Hour)
	if got := s.Stats().Retries; got != 0 {
		t.Fatalf("retries after stop = %d", got)
	}
}

func TestLatencyHistogramRecordsAcks(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, Options{})
	for i := 1; i <= 4; i++ {
		id, err := s.Issue(pingReq, nil)
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Duration(i) * 100 * time.Millisecond)
		s.HandleAck(id, clock.Now())
	}
	h := s.Latency()
	if h.Count() != 4 {
		t.Fatalf("latency samples = %d, want 4", h.Count())
	}
	if h.Mean() != 250 { // (100+200+300+400)/4 ms
		t.Fatalf("mean latency = %v ms, want 250", h.Mean())
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeAcked: "acked", OutcomeExpired: "expired", OutcomeCancelled: "cancelled", Outcome(9): "outcome(?)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	s := NewService(clock, func(wire.ControlMessage) {}, Options{RetryInterval: time.Second, MaxAttempts: 2})
	idAcked, err := s.Issue(pingReq, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.HandleAck(idAcked, clock.Now())
	if _, err := s.Issue(pingReq, nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute) // second request expires
	st := s.Stats()
	if st.Issued != 2 || st.Acked != 1 || st.Expired != 1 || st.Outstanding != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
