package experiments

import (
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/sensor"
)

func pollLoad(queries int) pollWorkload {
	return pollWorkload{
		Queries:      queries,
		SamplePeriod: time.Second,
		Duration:     60 * time.Second,
		PayloadBytes: 16,
		Energy:       sensor.EnergyParams{TxBase: 1, TxPerByte: 0.01},
		Seed:         1,
	}
}

func TestSharedStreamTransmissionsIndependentOfQueries(t *testing.T) {
	r1, err := sharedStream(pollLoad(1))
	if err != nil {
		t.Fatal(err)
	}
	r16, err := sharedStream(pollLoad(16))
	if err != nil {
		t.Fatal(err)
	}
	if r1.SensorTransmissions != r16.SensorTransmissions {
		t.Fatalf("shared arm transmissions changed with query count: %d vs %d",
			r1.SensorTransmissions, r16.SensorTransmissions)
	}
	if r1.SensorTransmissions != 60 {
		t.Fatalf("transmissions = %d, want 60 (1 Hz × 60 s)", r1.SensorTransmissions)
	}
	// But deliveries scale with queries (fan-out at the fixed network).
	if r16.ConsumerDeliveries != 16*60 {
		t.Fatalf("deliveries = %d, want 960", r16.ConsumerDeliveries)
	}
}

func TestDirectPollingScalesWithQueries(t *testing.T) {
	r4, err := directPolling(pollLoad(4))
	if err != nil {
		t.Fatal(err)
	}
	if r4.SensorTransmissions != 4*60 {
		t.Fatalf("direct transmissions = %d, want 240", r4.SensorTransmissions)
	}
	if r4.ConsumerDeliveries != 4*60 {
		t.Fatalf("direct deliveries = %d, want 240", r4.ConsumerDeliveries)
	}
}

func TestSharedBeatsDirectOnSensorEnergy(t *testing.T) {
	for _, q := range []int{2, 8, 32} {
		shared, err := sharedStream(pollLoad(q))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := directPolling(pollLoad(q))
		if err != nil {
			t.Fatal(err)
		}
		if shared.SensorEnergy >= direct.SensorEnergy {
			t.Fatalf("q=%d: shared energy %v not below direct %v", q, shared.SensorEnergy, direct.SensorEnergy)
		}
		// The saving factor approaches q.
		factor := direct.SensorEnergy / shared.SensorEnergy
		if factor < float64(q)*0.9 {
			t.Fatalf("q=%d: saving factor %v, want ≈%d", q, factor, q)
		}
		// Both arms deliver the same data to consumers.
		if shared.ConsumerDeliveries != direct.ConsumerDeliveries {
			t.Fatalf("q=%d: deliveries differ: %d vs %d", q, shared.ConsumerDeliveries, direct.ConsumerDeliveries)
		}
	}
}

func TestQueryCountValidation(t *testing.T) {
	if _, err := directPolling(pollLoad(0)); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := directPolling(pollLoad(251)); err == nil {
		t.Error("more queries than stream indices accepted")
	}
}
