package experiments

import (
	"fmt"
	"time"

	"github.com/garnet-middleware/garnet/internal/actuation"
	"github.com/garnet-middleware/garnet/internal/coordinator"
	"github.com/garnet-middleware/garnet/internal/core"
	"github.com/garnet-middleware/garnet/internal/field"
	"github.com/garnet-middleware/garnet/internal/geo"
	"github.com/garnet-middleware/garnet/internal/radio"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/sim"
	"github.com/garnet-middleware/garnet/internal/transmit"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// runE7 exercises the Resource Manager's conflict mediation: four
// mutually-unaware consumers with incompatible rate demands on the same
// stream, under each policy, with a codified sensor constraint in force.
func runE7(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Resource-manager conflict mediation",
		Claim: "§4.2/§6: the Resource Manager “exercises control over the permissible actions which a set of consumers may request” given “the potential for conflicting consumer requests”",
		Columns: []string{
			"policy", "demands mHz", "effective mHz", "approved", "modified", "denied",
			"constraint ok", "after top withdraws",
		},
	}
	demands := []uint32{500, 1000, 4000, 8000}
	cons, err := resource.ParseConstraints("rate<=5/s; rate>=0.1/s")
	if err != nil {
		return nil, err
	}
	target := wire.MustStreamID(7, 0)
	for _, policy := range []resource.Policy{
		resource.PolicyMostDemanding,
		resource.PolicyLeastDemanding,
		resource.PolicyPriority,
		resource.PolicyFirstComeDeny,
	} {
		m := resource.NewWithOptions(resource.Options{Policy: policy})
		m.SetConstraints(target.Sensor(), cons)
		var approved, modified, denied int
		for i, v := range demands {
			dec, err := m.Submit(resource.Demand{
				Consumer: fmt.Sprintf("app-%d", i),
				Target:   target,
				Op:       wire.OpSetRate,
				Value:    v,
				Priority: i, // later consumers carry higher priority
			})
			if err != nil {
				return nil, err
			}
			switch dec.Verdict {
			case resource.VerdictApproved:
				approved++
			case resource.VerdictModified:
				modified++
			case resource.VerdictDenied:
				denied++
			}
		}
		effective, _ := m.Effective(target, resource.ClassRate)
		constraintOK := effective <= 5000 && effective >= 100

		// The hungriest consumer leaves; the ledger must relax.
		afterWithdraw := effective
		if dec, ok := m.Withdraw("app-3", target, resource.ClassRate); ok {
			afterWithdraw = dec.Effective
		}
		t.addRow(policy.String(), fmt.Sprintf("%v", demands), effective,
			approved, modified, denied, constraintOK, afterWithdraw)
		if !constraintOK {
			return t, fmt.Errorf("E7: %v violated constraints: %d mHz", policy, effective)
		}
	}
	t.Notes = append(t.Notes,
		"constraint in force: rate<=5/s; rate>=0.1/s (the codified constraint language of §8)",
		"priorities rise with consumer index, so priority policy follows app-3 until it withdraws")
	return t, nil
}

// runE8 measures the Super Coordinator's predictive pay-off: the time from
// a consumer entering a state to the sensor actually running at that
// state's rate, reactive vs predictive, over a lossy downlink.
func runE8(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Predictive vs reactive super coordination",
		Claim: "§6/§6.1: the Super Coordinator can “predictively anticipate changes … reducing the effect of latencies arising from message-handling”; in the water-course scenario it would “anticipate changes to water bodies and preempt actuation requests”",
		Columns: []string{
			"mode", "state entries", "mean in-place ms", "p95 in-place ms",
			"already-armed entries", "prediction accuracy",
		},
	}
	warmup, measured := 3, 4
	if cfg.Quick {
		warmup, measured = 2, 2
	}
	dwell := 60 * time.Second
	states := []string{"calm", "rising", "flood"}
	rates := map[string]uint32{"calm": 200, "rising": 1000, "flood": 5000}

	// meanInPlace and armed are each mode's figures, for the claim checks.
	meanInPlace := map[bool]float64{}
	armed := map[bool]int{}
	for _, predictive := range []bool{false, true} {
		clock := sim.NewVirtualClock(epoch)
		coordOpts := coordinator.Options{Mode: coordinator.ModeReactive}
		if predictive {
			coordOpts = coordinator.Options{
				Mode:          coordinator.ModePredictive,
				Horizon:       10 * time.Second,
				MinConfidence: 0.5,
			}
		}
		d := core.New(core.Config{
			Clock: clock,
			// A lossy, slow downlink makes reactive actuation latency
			// visible: ~50% of control frames are lost and retried.
			Radio:       radio.Params{LossProb: 0.5, DelayMin: 50 * time.Millisecond, DelayMax: 250 * time.Millisecond, Seed: sim.SubSeed(cfg.Seed, "e8")},
			Secret:      []byte("e8"),
			Coordinator: coordOpts,
			// A generous retry budget so every approved change eventually
			// lands; what differs between the arms is *when*.
			Actuation: actuation.Options{RetryInterval: 2 * time.Second, MaxAttempts: 30},
		})
		d.AddReceiver(receiver.Config{Name: "rx", Position: geo.Pt(0, 0), Radius: 1000})
		d.AddTransmitter(transmit.Config{Name: "tx", Position: geo.Pt(0, 0), Range: 1000})
		target := wire.MustStreamID(1, 0)
		node, err := d.AddSensor(sensor.Config{
			ID: 1, Capabilities: sensor.CapReceive,
			Mobility: field.Static{P: geo.Pt(10, 0)}, TxRange: 1000,
			Streams: []sensor.StreamConfig{{
				Index: 0, Sampler: sensor.SizedSampler(8), Period: 5 * time.Second, Enabled: true,
			}},
		})
		if err != nil {
			return nil, err
		}
		model := map[string][]resource.Demand{}
		for s, r := range rates {
			model[s] = []resource.Demand{{Target: target, Op: wire.OpSetRate, Value: r}}
		}
		if err := d.Coordinator().Register("water", model); err != nil {
			return nil, err
		}
		d.Start()
		clock.Advance(time.Second)

		wantPeriod := func(state string) time.Duration {
			return time.Duration(float64(time.Second) * 1000.0 / float64(rates[state]))
		}
		var latencies []float64
		alreadyArmed := 0
		entries := 0
		cycle := 0
		for c := 0; c < warmup+measured; c++ {
			for _, state := range states {
				if err := d.Coordinator().ReportState("water", state); err != nil {
					return nil, err
				}
				measuredPhase := c >= warmup
				if measuredPhase {
					entries++
					if p, _ := node.StreamPeriod(0); p == wantPeriod(state) {
						alreadyArmed++
						latencies = append(latencies, 0)
					} else {
						// Step until the sensor runs at the state's rate.
						var lat time.Duration
						for lat < dwell {
							clock.Advance(50 * time.Millisecond)
							lat += 50 * time.Millisecond
							if p, _ := node.StreamPeriod(0); p == wantPeriod(state) {
								break
							}
						}
						latencies = append(latencies, float64(lat.Milliseconds()))
						clock.Advance(dwell - lat)
						continue
					}
				}
				clock.Advance(dwell)
			}
			cycle++
		}
		d.Stop()

		var sum float64
		for _, l := range latencies {
			sum += l
		}
		mean := sum / float64(len(latencies))
		p95 := percentile(latencies, 95)
		cs := d.Coordinator().Stats()
		accuracy := "n/a"
		if cs.Hits+cs.Misses > 0 {
			accuracy = fmt.Sprintf("%.0f%%", float64(cs.Hits)/float64(cs.Hits+cs.Misses)*100)
		}
		mode := "reactive"
		if predictive {
			mode = "predictive"
		}
		t.addRow(mode, entries, mean, p95, alreadyArmed, accuracy)
		meanInPlace[predictive], armed[predictive] = mean, alreadyArmed
	}
	if pred, react := meanInPlace[true], meanInPlace[false]; pred >= react {
		return t, fmt.Errorf("E8: predictive mean in-place latency %v ms is not below reactive's %v ms", pred, react)
	}
	if armed[true] == 0 {
		return t, fmt.Errorf("E8: predictive mode found no state entry already armed")
	}
	t.Notes = append(t.Notes,
		"in-place latency: consumer reports a state → sensor actually samples at that state's rate (50% downlink loss, 2s retry)",
		"predictive mode pre-arms the anticipated state 10s early after a 3-cycle warm-up, so most entries find the rate already in place")
	return t, nil
}

func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	rank := int(p/100*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
