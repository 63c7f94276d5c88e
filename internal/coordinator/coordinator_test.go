package coordinator

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

var epoch = time.Date(2003, 5, 19, 0, 0, 0, 0, time.UTC)

type sinkRecorder struct {
	mu      sync.Mutex
	applies []applyCall
}

type applyCall struct {
	owner   string
	demands []resource.Demand
	at      time.Time
}

func (s *sinkRecorder) record(clock sim.Clock) DemandSink {
	return sinkFunc(func(owner string, demands []resource.Demand) {
		s.mu.Lock()
		s.applies = append(s.applies, applyCall{owner: owner, demands: demands, at: clock.Now()})
		s.mu.Unlock()
	})
}

func (s *sinkRecorder) last() (applyCall, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.applies) == 0 {
		return applyCall{}, false
	}
	return s.applies[len(s.applies)-1], true
}

func (s *sinkRecorder) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.applies)
}

var (
	calmDemands  = []resource.Demand{{Target: wire.MustStreamID(1, 0), Op: wire.OpSetRate, Value: 100}}
	floodDemands = []resource.Demand{{Target: wire.MustStreamID(1, 0), Op: wire.OpSetRate, Value: 5000}}
)

func waterModel() map[string][]resource.Demand {
	return map[string][]resource.Demand{
		"calm":   calmDemands,
		"rising": {{Target: wire.MustStreamID(1, 0), Op: wire.OpSetRate, Value: 1000}},
		"flood":  floodDemands,
	}
}

func TestRegisterValidation(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	c := New(clock, sinkFunc(func(string, []resource.Demand) {}), Options{})
	if err := c.Register("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("app", waterModel()); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate register: %v", err)
	}
}

func TestReportStateAppliesDemands(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var rec sinkRecorder
	c := New(clock, rec.record(clock), Options{})
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportState("app", "calm"); err != nil {
		t.Fatal(err)
	}
	call, ok := rec.last()
	if !ok {
		t.Fatal("no demands applied")
	}
	if call.owner != "sc/app" {
		t.Fatalf("owner = %q", call.owner)
	}
	if len(call.demands) != 1 || call.demands[0].Value != 100 {
		t.Fatalf("demands = %+v", call.demands)
	}
}

func TestReportStateErrors(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	c := New(clock, sinkFunc(func(string, []resource.Demand) {}), Options{})
	if err := c.ReportState("ghost", "calm"); !errors.Is(err, ErrUnknownConsumer) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportState("app", "tsunami"); !errors.Is(err, ErrUnknownState) {
		t.Fatalf("err = %v", err)
	}
}

func mustReport(t *testing.T, c *Coordinator, name, state string) {
	t.Helper()
	if err := c.ReportState(name, state); err != nil {
		t.Fatal(err)
	}
}

// drive walks a consumer through the cycle calm→rising→flood→calm with
// fixed dwells, n times.
func drive(t *testing.T, clock *sim.VirtualClock, c *Coordinator, name string, n int, dwell time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustReport(t, c, name, "calm")
		clock.Advance(dwell)
		mustReport(t, c, name, "rising")
		clock.Advance(dwell)
		mustReport(t, c, name, "flood")
		clock.Advance(dwell)
	}
}

func TestPredictNextLearnsCycle(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	c := New(clock, sinkFunc(func(string, []resource.Demand) {}), Options{Mode: ModePredictive})
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	drive(t, clock, c, "app", 3, 10*time.Second)
	mustReport(t, c, "app", "calm")

	p, ok := c.PredictNext("app")
	if !ok {
		t.Fatal("no prediction after 3 full cycles")
	}
	if p.Next != "rising" || p.Confidence < 0.99 {
		t.Fatalf("prediction = %+v", p)
	}
	// Expected dwell is 10s; called right after entry.
	if p.ExpectedIn < 9*time.Second || p.ExpectedIn > 10*time.Second {
		t.Fatalf("ExpectedIn = %v", p.ExpectedIn)
	}
}

// TestPredictionNeedsObservations: a state's successor is predicted only
// once minObservations departures from it have been seen.
func TestPredictionNeedsObservations(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	c := New(clock, sinkFunc(func(string, []resource.Demand) {}), Options{Mode: ModePredictive})
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	mustReport(t, c, "app", "calm")
	for departures := 1; departures <= minObservations; departures++ {
		clock.Advance(time.Second)
		mustReport(t, c, "app", "rising")
		clock.Advance(time.Second)
		mustReport(t, c, "app", "calm")
		_, ok := c.PredictNext("app")
		if want := departures >= minObservations; ok != want {
			t.Fatalf("after %d departures from calm: prediction %v, want %v", departures, ok, want)
		}
	}
}

func TestPredictivePreArmsBeforeTransition(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var rec sinkRecorder
	c := New(clock, rec.record(clock), Options{
		Mode:    ModePredictive,
		Horizon: 2 * time.Second,
	})
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	drive(t, clock, c, "app", 2, 10*time.Second)

	// Enter calm; the model says rising follows after ~10s. The pre-arm
	// should fire at ~8s (horizon 2s), applying rising's demands early.
	mustReport(t, c, "app", "calm")
	before := rec.count()
	clock.Advance(8100 * time.Millisecond)
	call, ok := rec.last()
	if !ok || rec.count() <= before {
		t.Fatal("no pre-arm fired")
	}
	if !call.at.After(epoch) || len(call.demands) != 1 || call.demands[0].Value != 1000 {
		t.Fatalf("pre-arm call = %+v", call)
	}
	firedAt := call.at.Sub(clock.Now().Add(-8100 * time.Millisecond))
	if firedAt < 7*time.Second || firedAt > 9*time.Second {
		t.Fatalf("pre-arm fired at +%v, want ≈8s", firedAt)
	}

	// When the real transition arrives, demands are already in place: the
	// report itself must not re-apply.
	countBefore := rec.count()
	clock.Advance(1900 * time.Millisecond)
	mustReport(t, c, "app", "rising")
	if rec.count() != countBefore {
		t.Fatalf("correct prediction still re-applied demands (%d→%d)", countBefore, rec.count())
	}
	st := c.Stats()
	if st.PreArms == 0 || st.Hits == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMispredictionCorrected(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var rec sinkRecorder
	c := New(clock, rec.record(clock), Options{
		Mode:    ModePredictive,
		Horizon: time.Second,
	})
	model := waterModel()
	model["dry"] = nil
	if err := c.Register("app", model); err != nil {
		t.Fatal(err)
	}
	drive(t, clock, c, "app", 2, 5*time.Second)

	mustReport(t, c, "app", "calm")
	clock.Advance(4500 * time.Millisecond) // pre-arm for "rising" fired
	// Actual transition goes to "dry" instead.
	mustReport(t, c, "app", "dry")
	call, ok := rec.last()
	if !ok {
		t.Fatal("no applies")
	}
	if len(call.demands) != 0 {
		t.Fatalf("after misprediction the real state's demands must apply: %+v", call.demands)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReactiveModeNeverPreArms(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var rec sinkRecorder
	c := New(clock, rec.record(clock), Options{Mode: ModeReactive})
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	drive(t, clock, c, "app", 3, 5*time.Second)
	mustReport(t, c, "app", "calm")
	n := rec.count()
	clock.Advance(time.Minute)
	if rec.count() != n {
		t.Fatal("reactive mode applied demands without a report")
	}
	if st := c.Stats(); st.Predictions != 0 || st.PreArms != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRepeatedSameStateReportIsIdempotent(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var rec sinkRecorder
	c := New(clock, rec.record(clock), Options{})
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	mustReport(t, c, "app", "calm")
	n := rec.count()
	mustReport(t, c, "app", "calm")
	if rec.count() != n {
		t.Fatal("same-state report re-applied demands")
	}
}

func TestDeregisterClearsDemands(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var rec sinkRecorder
	c := New(clock, rec.record(clock), Options{})
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	mustReport(t, c, "app", "flood")
	if !c.Deregister("app") {
		t.Fatal("Deregister returned false")
	}
	if c.Deregister("app") {
		t.Fatal("second Deregister returned true")
	}
	call, _ := rec.last()
	if len(call.demands) != 0 {
		t.Fatalf("final apply should clear demands: %+v", call.demands)
	}
	if err := c.ReportState("app", "calm"); !errors.Is(err, ErrUnknownConsumer) {
		t.Fatalf("report after deregister: %v", err)
	}
}

func TestPredictionAccuracyTracking(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	c := New(clock, sinkFunc(func(string, []resource.Demand) {}), Options{
		Mode:    ModePredictive,
		Horizon: time.Second,
	})
	if err := c.Register("app", waterModel()); err != nil {
		t.Fatal(err)
	}
	drive(t, clock, c, "app", 4, 5*time.Second)
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatalf("deterministic cycle produced no hits: %+v", st)
	}
	if st.Misses != 0 {
		t.Fatalf("deterministic cycle produced misses: %+v", st)
	}
}

func TestCensusDrivenPolicyChanges(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	var applied []resource.Policy
	sink := policySinkFunc{
		sinkFunc:  func(string, []resource.Demand) {},
		setPolicy: func(p resource.Policy) { applied = append(applied, p) },
	}
	c := New(clock, sink, Options{
		PolicySelector: func(census map[string]int) resource.Policy {
			if census["flood"] > 0 {
				return resource.PolicyMostDemanding
			}
			return resource.PolicyLeastDemanding
		},
	})
	for _, name := range []string{"a", "b"} {
		if err := c.Register(name, waterModel()); err != nil {
			t.Fatal(err)
		}
	}
	mustReport(t, c, "a", "calm")  // census calm → least-demanding
	mustReport(t, c, "b", "calm")  // unchanged → no second call
	mustReport(t, c, "a", "flood") // flood appears → most-demanding
	mustReport(t, c, "a", "calm")  // flood gone → least-demanding again

	want := []resource.Policy{
		resource.PolicyLeastDemanding,
		resource.PolicyMostDemanding,
		resource.PolicyLeastDemanding,
	}
	if len(applied) != len(want) {
		t.Fatalf("policy changes = %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("policy changes = %v, want %v", applied, want)
		}
	}
	if st := c.Stats(); st.PolicyChanges != 3 {
		t.Fatalf("PolicyChanges = %d, want 3", st.PolicyChanges)
	}
}

func TestPolicySelectorWithoutSinkIsInert(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	c := New(clock, sinkFunc(func(string, []resource.Demand) {}), Options{
		PolicySelector: func(map[string]int) resource.Policy { return resource.PolicyPriority },
	})
	if err := c.Register("a", waterModel()); err != nil {
		t.Fatal(err)
	}
	mustReport(t, c, "a", "calm")
	if st := c.Stats(); st.PolicyChanges != 0 {
		t.Fatal("selector fired with a sink that takes no policy")
	}
}

// sinkFunc adapts a function to DemandSink.
type sinkFunc func(owner string, demands []resource.Demand)

func (f sinkFunc) Apply(owner string, demands []resource.Demand) { f(owner, demands) }

// policySinkFunc is a sinkFunc that also takes strategy changes.
type policySinkFunc struct {
	sinkFunc
	setPolicy func(resource.Policy)
}

func (s policySinkFunc) SetPolicy(p resource.Policy) { s.setPolicy(p) }
