package experiments

import (
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/sensor"
)

func txLoad() txWorkload {
	return txWorkload{
		BusyPeriod:      30 * time.Second,
		IdlePeriod:      90 * time.Second,
		Cycles:          4,
		BusyRateMilliHz: 2000, // 2 Hz while interested
		IdleRateMilliHz: 100,  // 0.1 Hz keep-alive
		PayloadBytes:    16,
		Energy:          sensor.EnergyParams{TxBase: 1, TxPerByte: 0.01, PerSample: 0.1},
	}
}

func TestTransmitOnlyWastesEnergy(t *testing.T) {
	w := txLoad()
	fixed, err := runTxOnly(w, false)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := runTxOnly(w, true)
	if err != nil {
		t.Fatal(err)
	}

	// The transmit-only arm samples at the busy rate forever.
	if fixed.WastedSamples == 0 {
		t.Fatal("transmit-only arm wasted nothing — schedule broken")
	}
	// The adaptive arm spends materially less sensor energy…
	if adaptive.SensorEnergy >= fixed.SensorEnergy*0.7 {
		t.Fatalf("adaptive energy %v not well below fixed %v", adaptive.SensorEnergy, fixed.SensorEnergy)
	}
	// …while still delivering (almost all of) the useful samples. The
	// adaptive arm loses at most the first busy window of the first cycle
	// to actuation latency.
	if adaptive.UsefulSamples < fixed.UsefulSamples*8/10 {
		t.Fatalf("adaptive useful %d too far below fixed %d", adaptive.UsefulSamples, fixed.UsefulSamples)
	}
	// Figure of merit: energy per useful sample.
	if adaptive.EnergyPerUsefulSample >= fixed.EnergyPerUsefulSample {
		t.Fatalf("energy/useful: adaptive %v, fixed %v", adaptive.EnergyPerUsefulSample, fixed.EnergyPerUsefulSample)
	}
}

func TestAccounting(t *testing.T) {
	w := txLoad()
	fixed, err := runTxOnly(w, false)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect channel: every sample is delivered either usefully or not.
	if fixed.UsefulSamples+fixed.WastedSamples != fixed.SamplesTaken {
		t.Fatalf("accounting: useful %d + wasted %d != taken %d",
			fixed.UsefulSamples, fixed.WastedSamples, fixed.SamplesTaken)
	}
	// 2 Hz over 4×(30+90)s = 480 s ⇒ 960 samples.
	if fixed.SamplesTaken != 960 {
		t.Fatalf("samples = %d, want 960", fixed.SamplesTaken)
	}
}

func TestModeLabels(t *testing.T) {
	w := txLoad()
	fixed, err := runTxOnly(w, false)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := runTxOnly(w, true)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Mode != "transmit-only" || adaptive.Mode != "garnet-adaptive" {
		t.Fatalf("modes = %q, %q", fixed.Mode, adaptive.Mode)
	}
}
