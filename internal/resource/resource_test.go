package resource

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/garnet-middleware/garnet/internal/wire"
)

var target = wire.MustStreamID(7, 1)

func rateDemand(consumer string, mHz uint32, prio int) Demand {
	return Demand{Consumer: consumer, Target: target, Op: wire.OpSetRate, Value: mHz, Priority: prio}
}

func TestSubmitFirstDemandApproved(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	dec, err := m.Submit(rateDemand("a", 1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictApproved || dec.Effective != 1000 || !dec.Changed {
		t.Fatalf("decision = %+v", dec)
	}
	if dec.Action == nil || dec.Action.Op != wire.OpSetRate || dec.Action.Value != 1000 {
		t.Fatalf("action = %+v", dec.Action)
	}
}

func TestMostDemandingMediation(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	if _, err := m.Submit(rateDemand("a", 1000, 0)); err != nil {
		t.Fatal(err)
	}
	// A second, hungrier consumer raises the effective rate.
	dec, err := m.Submit(rateDemand("b", 4000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictApproved || dec.Effective != 4000 || !dec.Changed {
		t.Fatalf("hungrier demand: %+v", dec)
	}
	// A third, slower consumer is accepted but modified: the stream keeps
	// running at 4 Hz for the hungrier consumer.
	dec, err = m.Submit(rateDemand("c", 500, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictModified || dec.Effective != 4000 || dec.Changed {
		t.Fatalf("slower demand: %+v", dec)
	}
}

func TestLeastDemandingMediation(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyLeastDemanding})
	if _, err := m.Submit(rateDemand("a", 4000, 0)); err != nil {
		t.Fatal(err)
	}
	dec, err := m.Submit(rateDemand("b", 1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Effective != 1000 || !dec.Changed {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestPriorityMediation(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyPriority})
	if _, err := m.Submit(rateDemand("low", 8000, 1)); err != nil {
		t.Fatal(err)
	}
	dec, err := m.Submit(rateDemand("high", 2000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictApproved || dec.Effective != 2000 {
		t.Fatalf("high priority should win: %+v", dec)
	}
}

func TestFirstComeDenyConflicts(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyFirstComeDeny})
	if _, err := m.Submit(rateDemand("a", 1000, 0)); err != nil {
		t.Fatal(err)
	}
	dec, err := m.Submit(rateDemand("b", 2000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictDenied || dec.Reason == "" {
		t.Fatalf("conflicting demand: %+v", dec)
	}
	// An agreeing demand is fine.
	dec, err = m.Submit(rateDemand("c", 1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictApproved {
		t.Fatalf("agreeing demand: %+v", dec)
	}
	// The sole holder may revise its own demand (fresh manager: no other
	// standing demands to conflict with).
	m2 := NewWithOptions(Options{Policy: PolicyFirstComeDeny})
	if _, err := m2.Submit(rateDemand("a", 1000, 0)); err != nil {
		t.Fatal(err)
	}
	dec, err = m2.Submit(rateDemand("a", 3000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict == VerdictDenied {
		t.Fatalf("self-revision denied: %+v", dec)
	}
	if dec.Effective != 3000 {
		t.Fatalf("self-revision effective = %d", dec.Effective)
	}
}

func TestEnableMediation(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	enable := Demand{Consumer: "a", Target: target, Op: wire.OpEnableStream}
	disable := Demand{Consumer: "b", Target: target, Op: wire.OpDisableStream}
	dec, err := m.Submit(enable)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Effective != 1 || dec.Action.Op != wire.OpEnableStream {
		t.Fatalf("enable: %+v", dec)
	}
	// Under most-demanding, one enabler outvotes a disabler.
	dec, err = m.Submit(disable)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictModified || dec.Effective != 1 || dec.Changed {
		t.Fatalf("disable while another wants it on: %+v", dec)
	}
	// When the enabler withdraws, the stream turns off.
	wd, ok := m.Withdraw("a", target, ClassEnable)
	if !ok {
		t.Fatal("withdraw reported no demand")
	}
	if !wd.Changed || wd.Action == nil || wd.Action.Op != wire.OpDisableStream {
		t.Fatalf("withdraw decision: %+v", wd)
	}
}

func TestConstraintClamping(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	cons, err := ParseConstraints("rate<=2/s; rate>=1/min")
	if err != nil {
		t.Fatal(err)
	}
	m.SetConstraints(target.Sensor(), cons)

	dec, err := m.Submit(rateDemand("greedy", 10_000, 0)) // 10 Hz > 2 Hz cap
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictModified || dec.Effective != 2000 {
		t.Fatalf("clamped decision: %+v", dec)
	}
	if dec.Reason == "" {
		t.Fatal("clamp must carry a reason")
	}

	dec, err = m.Submit(rateDemand("sleepy", 1, 0)) // below 1/min floor
	if err != nil {
		t.Fatal(err)
	}
	// Most-demanding keeps 2000 anyway (mediated with greedy), so still
	// modified; check floor via a fresh manager.
	m2 := NewWithOptions(Options{Policy: PolicyMostDemanding})
	m2.SetConstraints(target.Sensor(), cons)
	dec, err = m2.Submit(rateDemand("sleepy", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Effective < 16 { // 1/min ≈ 16 mHz
		t.Fatalf("floor not applied: %+v", dec)
	}
}

func TestMaxActiveStreamsDeniesEnable(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	cons, err := ParseConstraints("streams<=2")
	if err != nil {
		t.Fatal(err)
	}
	m.SetDefaultConstraints(cons)
	checkMaxActiveStreams(t, m)
}

// TestMaxActiveStreamsAmongManySensors gives the same verdicts as
// TestMaxActiveStreamsDeniesEnable with 10 000 other sensors' enable
// demands standing in the ledger: the count reads sensor 7's own streams,
// not the whole ledger.
func TestMaxActiveStreamsAmongManySensors(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	cons, err := ParseConstraints("streams<=2")
	if err != nil {
		t.Fatal(err)
	}
	m.SetDefaultConstraints(cons)
	for s := wire.SensorID(100); s < 10_100; s++ {
		dec, err := m.Submit(Demand{Consumer: "crowd", Target: wire.MustStreamID(s, wire.StreamIndex(s%3)), Op: wire.OpEnableStream})
		if err != nil || dec.Verdict == VerdictDenied {
			t.Fatalf("sensor %d's only enable: %+v, %v", s, dec, err)
		}
	}
	checkMaxActiveStreams(t, m)
	// The denied third enable of sensor 7 leaves no entry behind.
	if got := m.Stats().Ledger; got != 10_000+3 {
		t.Fatalf("ledger holds %d entries, want the crowd's 10 000 plus 3", got)
	}
}

// checkMaxActiveStreams submits the enables TestMaxActiveStreamsDeniesEnable
// judges to a manager under "streams<=2" whose ledger holds no stream of
// sensors 7 and 8.
func checkMaxActiveStreams(t *testing.T, m *Manager) {
	t.Helper()
	for i := 0; i < 2; i++ {
		st := wire.MustStreamID(7, wire.StreamIndex(i))
		dec, err := m.Submit(Demand{Consumer: "a", Target: st, Op: wire.OpEnableStream})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Verdict == VerdictDenied {
			t.Fatalf("stream %d denied prematurely", i)
		}
	}
	dec, err := m.Submit(Demand{Consumer: "a", Target: wire.MustStreamID(7, 2), Op: wire.OpEnableStream})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict != VerdictDenied {
		t.Fatalf("third enable should be denied: %+v", dec)
	}
	// A different sensor is unaffected.
	dec, err = m.Submit(Demand{Consumer: "a", Target: wire.MustStreamID(8, 0), Op: wire.OpEnableStream})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verdict == VerdictDenied {
		t.Fatal("constraint leaked to another sensor")
	}
}

func TestWithdrawRecomputes(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	if _, err := m.Submit(rateDemand("a", 1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(rateDemand("b", 4000, 0)); err != nil {
		t.Fatal(err)
	}
	dec, ok := m.Withdraw("b", target, ClassRate)
	if !ok {
		t.Fatal("withdraw failed")
	}
	if dec.Effective != 1000 || !dec.Changed || dec.Action.Value != 1000 {
		t.Fatalf("after withdraw: %+v", dec)
	}
	// Withdrawing the last demand empties the ledger without actuation.
	dec, ok = m.Withdraw("a", target, ClassRate)
	if !ok {
		t.Fatal("second withdraw failed")
	}
	if _, live := m.Effective(target, ClassRate); live {
		t.Fatal("ledger entry survived last withdrawal")
	}
}

func TestWithdrawUnknown(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	if _, ok := m.Withdraw("ghost", target, ClassRate); ok {
		t.Fatal("withdraw of unknown demand reported ok")
	}
	if _, err := m.Submit(rateDemand("a", 1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Withdraw("ghost", target, ClassRate); ok {
		t.Fatal("withdraw by non-holder reported ok")
	}
}

func TestWithdrawAll(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	t2 := wire.MustStreamID(7, 2)
	if _, err := m.Submit(rateDemand("a", 4000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(rateDemand("b", 1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Demand{Consumer: "a", Target: t2, Op: wire.OpEnableStream}); err != nil {
		t.Fatal(err)
	}
	actions := m.WithdrawAll("a")
	// Rate drops to b's 1000; enable entry disappears without action.
	if len(actions) != 1 || actions[0].Op != wire.OpSetRate || actions[0].Value != 1000 {
		t.Fatalf("actions = %+v", actions)
	}
	if st := m.Stats(); st.Ledger != 1 {
		t.Fatalf("ledger = %d, want 1", st.Ledger)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	tests := []struct {
		name string
		d    Demand
	}{
		{"empty consumer", Demand{Target: target, Op: wire.OpSetRate, Value: 1}},
		{"unmediated op", Demand{Consumer: "a", Target: target, Op: wire.OpPing}},
		{"zero rate", Demand{Consumer: "a", Target: target, Op: wire.OpSetRate}},
		{"zero payload", Demand{Consumer: "a", Target: target, Op: wire.OpSetPayloadLimit}},
		{"huge payload", Demand{Consumer: "a", Target: target, Op: wire.OpSetPayloadLimit, Value: 1 << 20}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := m.Submit(tt.d); !errors.Is(err, ErrBadDemand) {
				t.Errorf("err = %v, want ErrBadDemand", err)
			}
		})
	}
}

func TestSetPolicyAffectsNextDecision(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	if _, err := m.Submit(rateDemand("a", 1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(rateDemand("b", 9000, 0)); err != nil {
		t.Fatal(err)
	}
	m.SetPolicy(PolicyLeastDemanding)
	if m.loadPolicy() != PolicyLeastDemanding {
		t.Fatal("Policy getter wrong")
	}
	dec, err := m.Submit(rateDemand("c", 5000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Effective != 1000 {
		t.Fatalf("least-demanding after switch: %+v", dec)
	}
}

// Property: under most-demanding / least-demanding, the effective rate is
// exactly the max / min of the standing demands, regardless of order.
func TestMergePolicyProperty(t *testing.T) {
	f := func(values []uint16) bool {
		if len(values) == 0 {
			return true
		}
		max := NewWithOptions(Options{Policy: PolicyMostDemanding})
		min := NewWithOptions(Options{Policy: PolicyLeastDemanding})
		var wantMax, wantMin uint32
		for i, v := range values {
			val := uint32(v) + 1 // rates must be non-zero
			if i == 0 || val > wantMax {
				wantMax = val
			}
			if i == 0 || val < wantMin {
				wantMin = val
			}
			name := "c" + string(rune('0'+i%10)) + string(rune('a'+(i/10)%26))
			if _, err := max.Submit(rateDemand(name, val, 0)); err != nil {
				return false
			}
			if _, err := min.Submit(rateDemand(name, val, 0)); err != nil {
				return false
			}
		}
		gotMax, ok1 := max.Effective(target, ClassRate)
		gotMin, ok2 := min.Effective(target, ClassRate)
		return ok1 && ok2 && gotMax == wantMax && gotMin == wantMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: with constraints set, the effective rate never violates them.
func TestConstraintInvariantProperty(t *testing.T) {
	cons := Constraints{MinRateMilliHz: 100, MaxRateMilliHz: 5000}
	f := func(values []uint16) bool {
		m := NewWithOptions(Options{Policy: PolicyMostDemanding})
		m.SetDefaultConstraints(cons)
		for i, v := range values {
			val := uint32(v) + 1
			name := "c" + string(rune('a'+i%26))
			if _, err := m.Submit(rateDemand(name, val, 0)); err != nil {
				return false
			}
			eff, ok := m.Effective(target, ClassRate)
			if !ok || eff < cons.MinRateMilliHz || eff > cons.MaxRateMilliHz {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounters(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyFirstComeDeny})
	if _, err := m.Submit(rateDemand("a", 1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(rateDemand("b", 2000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Withdraw("a", target, ClassRate); !ok {
		t.Fatal("withdraw failed")
	}
	st := m.Stats()
	if st.Submitted != 2 || st.Approved != 1 || st.Denied != 1 || st.Withdrawals != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A consumer re-asserting a standing demand — the common case when many
// consumers refresh what they already asked for — leaves the effective
// setting untouched and must not allocate.
func TestSubmitStandingDemandZeroAllocs(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	demand := rateDemand("app", 2000, 0)
	if _, err := m.Submit(demand); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		dec, err := m.Submit(demand)
		if err != nil || dec.Changed {
			t.Fatalf("re-asserted demand: %+v, %v", dec, err)
		}
	})
	if allocs != 0 {
		t.Errorf("standing-demand Submit allocates %.1f/op, want 0", allocs)
	}
}
