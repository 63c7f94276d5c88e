package coordinator

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// TestPrearmRacesReportState pins the predictive pre-arm path against
// concurrent state reports: one goroutine advances the virtual clock in
// small steps (firing pre-arm timers) while another keeps reporting state
// changes, so a timer routinely fires while ReportState is mid-flight.
// Run with -race. The invariant under any interleaving: the demand sink
// only ever receives one of the registered states' demand sets, and the
// coordinator's counters balance (every scored prediction is a hit or a
// miss, pre-arms never exceed predictions).
func TestPrearmRacesReportState(t *testing.T) {
	clock := sim.NewVirtualClock(epoch)
	target := wire.MustStreamID(1, 0)
	rateOf := map[string]uint32{"calm": 100, "storm": 5000}

	var mu sync.Mutex
	applies := 0
	sink := sinkFunc(func(owner string, demands []resource.Demand) {
		mu.Lock()
		defer mu.Unlock()
		applies++
		if owner != "sc/app" {
			t.Errorf("owner = %q", owner)
		}
		if len(demands) != 1 || rateOf[demandState(demands[0])] == 0 {
			t.Errorf("unexpected demand set %+v", demands)
		}
	})
	c := New(clock, sink, Options{
		Mode:          ModePredictive,
		Horizon:       40 * time.Millisecond,
		MinConfidence: 0.5,
	})
	model := map[string][]resource.Demand{}
	for state, rate := range rateOf {
		model[state] = []resource.Demand{{Target: target, Op: wire.OpSetRate, Value: rate}}
	}
	if err := c.Register("app", model); err != nil {
		t.Fatal(err)
	}

	// Teach the model a calm↔storm oscillation with a short dwell, so a
	// prediction (and a pre-arm timer) is outstanding almost always.
	states := []string{"calm", "storm"}
	for i := 0; i < 6; i++ {
		if err := c.ReportState("app", states[i%2]); err != nil {
			t.Fatal(err)
		}
		clock.Advance(50 * time.Millisecond)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // clock driver: fires pre-arm timers mid-report
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 400; i++ {
			clock.Advance(time.Duration(rng.Intn(20)+1) * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // reporter: races the firing timers
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 400; i++ {
			if err := c.ReportState("app", states[rng.Intn(2)]); err != nil {
				t.Errorf("report: %v", err)
				return
			}
			if i%16 == 0 {
				_, _ = c.PredictNext("app")
			}
		}
	}()
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses > st.Predictions {
		t.Fatalf("scored %d predictions but only %d were made: %+v", st.Hits+st.Misses, st.Predictions, st)
	}
	if st.PreArms > st.Predictions {
		t.Fatalf("pre-arms %d exceed predictions %d: %+v", st.PreArms, st.Predictions, st)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(applies) != st.Applications {
		t.Fatalf("sink saw %d applications, coordinator counted %d", applies, st.Applications)
	}
}

// demandState recovers which registered state a demand set belongs to.
func demandState(d resource.Demand) string {
	switch d.Value {
	case 100:
		return "calm"
	case 5000:
		return "storm"
	default:
		return ""
	}
}
