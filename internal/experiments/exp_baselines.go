package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/garnet-middleware/garnet/internal/sensor"
	"github.com/garnet-middleware/garnet/internal/wire"
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
		w := pollWorkload{
			Queries:      q,
			SamplePeriod: time.Second,
			Duration:     duration,
			PayloadBytes: 16,
			Energy:       sensor.EnergyParams{TxBase: 1, TxPerByte: 0.01},
			Seed:         cfg.Seed,
		}
		direct, err := directPolling(w)
		if err != nil {
			return nil, err
		}
		shared, err := sharedStream(w)
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
	// Garnet's ids are configured, not drawn: its misattribution is
	// measured the way RETRI's is, and must be 0 at every density.
	garnet := 0.0
	for _, density := range densities {
		if garnet = garnetMisattribution(density); garnet != 0 {
			return t, fmt.Errorf("E4: garnet misattributes %v of messages at density %d", garnet, density)
		}
	}
	t.addRow("garnet 32-bit StreamID", garnetHeaderBytes(), 0.0, "any", 0.0, 0.0, garnet)
	for _, bits := range []int{8, 16, 24} {
		for _, density := range densities {
			analytic := analyticCollisionProb(bits, density)
			simulated := simulateCollisionRate(cfg.Seed, bits, density, rounds)
			misattr := simulateMisattribution(cfg.Seed, bits, density, 10, rounds/4)
			t.addRow(fmt.Sprintf("retri %d-bit", bits), retriHeaderBytes(bits),
				headerSavingPercent(bits, 16), density, analytic, simulated, misattr)
			if math.Abs(simulated-analytic) > e4CollisionTolerance {
				return t, fmt.Errorf("E4: retri %d-bit at density %d: simulated collision p %v is more than %v from analytic %v",
					bits, density, simulated, e4CollisionTolerance, analytic)
			}
			if bits == 8 && density == 100 && misattr == 0 {
				return t, fmt.Errorf("E4: retri 8-bit misattributes nothing at density 100")
			}
		}
	}
	t.Notes = append(t.Notes,
		"RETRI saves 1–3 header bytes per message but corrupts stream identity at realistic densities",
		"misattribution = fraction of messages spliced into a stream another sensor claims")
	return t, nil
}

// e4CollisionTolerance bounds |simulated − analytic| collision p in E4.
// The analytic value is the birthday approximation 1 − exp(−n(n−1)/2N);
// at 500 rounds (-quick) a rate near 0.07 has a standard error of 0.012,
// and the widest gap E4 shows is 0.023 (16-bit ids, density 100).
const e4CollisionTolerance = 0.05

// garnetMisattribution is simulateMisattribution's measure for Garnet: the
// share of messages sent under a StreamID that another of the concurrent
// sensors also sends under. Sensors 1..concurrent each send on stream 0.
func garnetMisattribution(concurrent int) float64 {
	owners := make(map[wire.StreamID]int, concurrent)
	for s := 1; s <= concurrent; s++ {
		owners[wire.MustStreamID(wire.SensorID(s), 0)]++
	}
	shared := 0
	for _, n := range owners {
		if n > 1 {
			shared += n
		}
	}
	return float64(shared) / float64(concurrent)
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
	w := txWorkload{
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
	fixed, err := runTxOnly(w, false)
	if err != nil {
		return nil, err
	}
	adaptive, err := runTxOnly(w, true)
	if err != nil {
		return nil, err
	}
	for _, r := range []txResult{fixed, adaptive} {
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
