package experiments

import (
	"fmt"
	"time"

	"github.com/garnet-middleware/garnet/internal/baseline/directpoll"
	"github.com/garnet-middleware/garnet/internal/baseline/retri"
	"github.com/garnet-middleware/garnet/internal/baseline/txonly"
	"github.com/garnet-middleware/garnet/internal/sensor"
)

// runE3 reproduces the Fjords comparison: N simultaneous queries over one
// sensor, with and without stream sharing.
func runE3(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Shared stream vs per-query direct polling",
		Claim: "§7 (Fjords): sharing one sensor stream across queries “resulted in significant improvements to their ability to handle simultaneous queries”",
		Columns: []string{
			"queries", "sensor tx (direct)", "sensor tx (shared)", "energy mJ (direct)",
			"energy mJ (shared)", "saving ×", "deliveries equal",
		},
	}
	queries := []int{1, 2, 4, 8, 16, 32, 64}
	duration := 60 * time.Second
	if cfg.Quick {
		queries = []int{1, 4, 16}
		duration = 20 * time.Second
	}
	for _, q := range queries {
		w := directpoll.Workload{
			Queries:      q,
			SamplePeriod: time.Second,
			Duration:     duration,
			PayloadBytes: 16,
			Energy:       sensor.EnergyParams{TxBase: 1, TxPerByte: 0.01},
			Seed:         cfg.Seed,
		}
		direct, err := directpoll.DirectPolling(w)
		if err != nil {
			return nil, err
		}
		shared, err := directpoll.SharedStream(w)
		if err != nil {
			return nil, err
		}
		saving := direct.SensorEnergy / shared.SensorEnergy
		t.addRow(q, direct.SensorTransmissions, shared.SensorTransmissions,
			direct.SensorEnergy, shared.SensorEnergy, saving,
			direct.ConsumerDeliveries == shared.ConsumerDeliveries)
		if q > 1 && saving < float64(q)*0.9 {
			return t, fmt.Errorf("E3: saving %.2f at q=%d, expected ≈%d×", saving, q, q)
		}
	}
	t.Notes = append(t.Notes, "sensor-side cost is flat under sharing (the dispatcher fans out at the fixed network), linear under direct polling")
	return t, nil
}

// runE4 reproduces the RETRI comparison: header bytes saved vs the stream
// corruption ephemeral identifiers would cause Garnet.
func runE4(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Header cost vs RETRI ephemeral ids",
		Claim: "§7: RETRI “reduces the cost of data transmission by using fewer bits” but “because Garnet depends on unique consistent stream IDs, the ephemeral nature of the RETRI identifier renders their technique inappropriate”",
		Columns: []string{
			"scheme", "header B", "saving % (16B payload)", "density", "collision p (analytic)",
			"collision p (simulated)", "stream misattribution",
		},
	}
	densities := []int{10, 100, 1000}
	rounds := 4000
	if cfg.Quick {
		densities = []int{10, 100}
		rounds = 500
	}
	t.addRow("garnet 32-bit StreamID", retri.GarnetHeaderBytes(), 0.0, "any", 0.0, 0.0, 0.0)
	for _, bits := range []int{8, 16, 24} {
		for _, density := range densities {
			analytic := retri.AnalyticCollisionProb(bits, density)
			simulated := retri.SimulateCollisionRate(cfg.Seed, bits, density, rounds)
			misattr := retri.SimulateMisattribution(cfg.Seed, bits, density, 10, rounds/4)
			t.addRow(fmt.Sprintf("retri %d-bit", bits), retri.HeaderBytes(bits),
				retri.HeaderSavingPercent(bits, 16), density, analytic, simulated, misattr)
		}
	}
	t.Notes = append(t.Notes,
		"RETRI saves 1–3 header bytes per message but corrupts stream identity at realistic densities",
		"misattribution = fraction of messages spliced into a stream another sensor claims")
	return t, nil
}

// runE12 quantifies the motivation for the return path: adaptive rate
// control vs a transmit-only field under intermittent consumer interest.
func runE12(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Return-path value vs transmit-only fields",
		Claim: "§2: consumers “may attempt to influence the future contents of the originating data streams”, which transmit-only deployments cannot support",
		Columns: []string{
			"mode", "samples", "useful", "wasted", "energy mJ", "mJ/useful sample",
		},
	}
	w := txonly.Workload{
		BusyPeriod:      30 * time.Second,
		IdlePeriod:      4 * time.Minute,
		Cycles:          6,
		BusyRateMilliHz: 2000,
		IdleRateMilliHz: 100,
		PayloadBytes:    16,
		Energy:          sensor.EnergyParams{TxBase: 1, TxPerByte: 0.01, PerSample: 0.1},
	}
	if cfg.Quick {
		w.Cycles = 2
		w.IdlePeriod = time.Minute
	}
	fixed, err := txonly.Run(w, false)
	if err != nil {
		return nil, err
	}
	adaptive, err := txonly.Run(w, true)
	if err != nil {
		return nil, err
	}
	for _, r := range []txonly.Result{fixed, adaptive} {
		t.addRow(r.Mode, r.SamplesTaken, r.UsefulSamples, r.WastedSamples,
			r.SensorEnergy, r.EnergyPerUsefulSample)
	}
	if adaptive.SensorEnergy >= fixed.SensorEnergy {
		return t, fmt.Errorf("E12: adaptive arm used more energy (%v vs %v)", adaptive.SensorEnergy, fixed.SensorEnergy)
	}
	t.addRow("saving", "", "", "",
		fmt.Sprintf("%.1f%%", (1-adaptive.SensorEnergy/fixed.SensorEnergy)*100), "")
	t.Notes = append(t.Notes, "consumers are interested 30s out of every 4.5min; the adaptive arm lowers the rate through the actuation path in between")
	return t, nil
}
