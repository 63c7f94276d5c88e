package resource

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/garnet-middleware/garnet/internal/wire"
)

func randomDemand(rng *rand.Rand, consumer string) Demand {
	target := wire.MustStreamID(wire.SensorID(rng.Intn(10)), wire.StreamIndex(rng.Intn(2)))
	d := Demand{Consumer: consumer, Target: target, Priority: rng.Intn(3)}
	switch rng.Intn(4) {
	case 0:
		d.Op = wire.OpSetRate
		d.Value = uint32(rng.Intn(5) + 1)
	case 1:
		d.Op = wire.OpEnableStream
	case 2:
		d.Op = wire.OpDisableStream
	case 3:
		d.Op = wire.OpSetPayloadLimit
		d.Value = uint32(rng.Intn(4)*128 + 64)
	}
	return d
}

// TestControlPlaneRaceStress hammers one manager from many goroutines —
// submissions, withdrawals, policy flips, coordinator-style demand-set
// applications and stats readers — and checks the counters balance. The
// manager is one mutex, so this is its whole concurrency contract. Run
// with -race.
func TestControlPlaneRaceStress(t *testing.T) {
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	m.SetDefaultConstraints(Constraints{MaxRateMilliHz: 4000})

	const perWorker = 1500
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			consumer := string(rune('a' + seed))
			for i := 0; i < perWorker; i++ {
				d := randomDemand(rng, consumer)
				if _, err := m.Submit(d); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if rng.Intn(4) == 0 {
					class, _ := classOf(d.Op)
					m.Withdraw(consumer, d.Target, class)
				}
			}
			m.WithdrawAll(consumer)
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < perWorker; i++ {
			set := make([]Demand, rng.Intn(4))
			for j := range set {
				set[j] = randomDemand(rng, "sc/app")
			}
			m.Apply("sc/app", set)
		}
		m.Apply("sc/app", nil)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []Policy{PolicyMostDemanding, PolicyLeastDemanding, PolicyPriority, PolicyFirstComeDeny}
		for i := 0; i < perWorker; i++ {
			m.SetPolicy(policies[i%len(policies)])
			_ = m.Stats()
		}
	}()
	wg.Wait()

	st := m.Stats()
	if st.Submitted != st.Approved+st.Modified+st.Denied {
		t.Fatalf("counters unbalanced: %+v", st)
	}
	// Every worker withdrew everything it owned, so the ledger only holds
	// whatever the final Apply left (nothing).
	if st.Ledger != 0 {
		t.Fatalf("ledger not empty after withdraw-all: %+v", st)
	}
}

// A malformed replacement demand must not withdraw the owner's standing
// demand on the same key: the fire-and-forget coordinator contract drops
// the bad value, not the stream.
func TestApplyInvalidReplacementKeepsStandingDemand(t *testing.T) {
	target := wire.MustStreamID(5, 0)
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	if got := m.Apply("sc/app", []Demand{{Target: target, Op: wire.OpSetRate, Value: 2000}}); len(got) != 1 {
		t.Fatalf("initial apply actions = %+v", got)
	}
	// Value 0 is an invalid rate: the demand is dropped, the standing
	// 2000 mHz demand survives, and nothing is actuated.
	if got := m.Apply("sc/app", []Demand{{Target: target, Op: wire.OpSetRate, Value: 0}}); len(got) != 0 {
		t.Fatalf("invalid replacement produced actions %+v", got)
	}
	if eff, ok := m.Effective(target, ClassRate); !ok || eff != 2000 {
		t.Fatalf("effective = (%d, %v), want standing 2000", eff, ok)
	}
	// An empty set still withdraws it.
	m.Apply("sc/app", nil)
	if _, ok := m.Effective(target, ClassRate); ok {
		t.Fatal("standing demand survived an empty replacement set")
	}
}

// Apply replaces an owner's whole demand set: standing demands absent from
// the new set are withdrawn first, then the set is submitted, and the
// actions come back in that order, each half sorted by (target, class).
func TestApplyReplacesDemandSet(t *testing.T) {
	a, b, c := wire.MustStreamID(1, 0), wire.MustStreamID(2, 0), wire.MustStreamID(3, 0)
	m := NewWithOptions(Options{Policy: PolicyMostDemanding})
	// Another consumer's lower demands stand behind the owner's, so
	// withdrawing the owner's relaxes the stream instead of freeing it.
	for _, target := range []wire.StreamID{a, b} {
		if _, err := m.Submit(Demand{Consumer: "other", Target: target, Op: wire.OpSetRate, Value: 500}); err != nil {
			t.Fatal(err)
		}
	}
	m.Apply("sc/app", []Demand{
		{Target: b, Op: wire.OpSetRate, Value: 2000},
		{Target: a, Op: wire.OpSetRate, Value: 2000},
	})
	got := m.Apply("sc/app", []Demand{
		{Target: c, Op: wire.OpSetRate, Value: 1000},
		{Target: b, Op: wire.OpSetRate, Value: 3000},
		{Target: b, Op: wire.OpSetRate, Value: 4000}, // last demand for a key wins
	})
	want := []Action{
		{Target: a, Op: wire.OpSetRate, Value: 500},  // withdrawn: relaxes to the other consumer's
		{Target: b, Op: wire.OpSetRate, Value: 4000}, // replaced
		{Target: c, Op: wire.OpSetRate, Value: 1000}, // added
	}
	if len(got) != len(want) {
		t.Fatalf("actions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("action %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// "other" on a and b, the owner on b and c.
	if st := m.Stats(); st.Ledger != 3 || st.Withdrawals != 1 {
		t.Fatalf("stats = %+v, want 3 ledger entries and 1 withdrawal", st)
	}
}
