package retri

import (
	"math"
	"testing"
)

func TestHeaderBytes(t *testing.T) {
	tests := []struct {
		idBits int
		want   int
	}{
		{8, 1 + 1 + 2 + 2},
		{16, 1 + 2 + 2 + 2},
		{24, 1 + 3 + 2 + 2},
	}
	for _, tt := range tests {
		if got := HeaderBytes(tt.idBits); got != tt.want {
			t.Errorf("HeaderBytes(%d) = %d, want %d", tt.idBits, got, tt.want)
		}
	}
	if got := GarnetHeaderBytes(); got != 11 {
		t.Errorf("GarnetHeaderBytes = %d, want 11 (9-byte Figure 2 header + checksum)", got)
	}
}

func TestRETRISavesHeaderBytes(t *testing.T) {
	// The whole point of RETRI: fewer header bytes than Garnet's fixed ids.
	for _, bits := range []int{8, 16, 24} {
		if HeaderBytes(bits) >= GarnetHeaderBytes() {
			t.Errorf("RETRI %d-bit header (%d B) not smaller than Garnet (%d B)",
				bits, HeaderBytes(bits), GarnetHeaderBytes())
		}
	}
	if s := HeaderSavingPercent(8, 16); s <= 0 || s >= 100 {
		t.Errorf("HeaderSavingPercent = %v", s)
	}
	// Savings shrink as payloads grow.
	if HeaderSavingPercent(8, 1024) >= HeaderSavingPercent(8, 16) {
		t.Error("saving should shrink with payload size")
	}
}

func TestAnalyticCollisionProb(t *testing.T) {
	if p := AnalyticCollisionProb(16, 1); p != 0 {
		t.Errorf("single transaction collides with itself: %v", p)
	}
	// Monotone in density, decreasing in id width.
	if AnalyticCollisionProb(8, 10) <= AnalyticCollisionProb(8, 5) {
		t.Error("not monotone in density")
	}
	if AnalyticCollisionProb(16, 10) >= AnalyticCollisionProb(8, 10) {
		t.Error("not decreasing in id width")
	}
	// Birthday sanity: 20 transactions over 8 bits collide with p≈0.52.
	if p := AnalyticCollisionProb(8, 20); p < 0.4 || p < 0 || p > 0.7 {
		t.Errorf("AnalyticCollisionProb(8, 20) = %v, want ≈0.52", p)
	}
}

func TestSimulatedMatchesAnalytic(t *testing.T) {
	for _, tt := range []struct {
		bits, concurrent int
	}{{8, 10}, {8, 20}, {16, 100}} {
		analytic := AnalyticCollisionProb(tt.bits, tt.concurrent)
		simulated := SimulateCollisionRate(7, tt.bits, tt.concurrent, 5000)
		if math.Abs(analytic-simulated) > 0.05 {
			t.Errorf("bits=%d n=%d: analytic %v vs simulated %v", tt.bits, tt.concurrent, analytic, simulated)
		}
	}
}

func TestMisattributionGrowsWithDensity(t *testing.T) {
	low := SimulateMisattribution(3, 16, 10, 10, 2000)
	high := SimulateMisattribution(3, 16, 500, 10, 200)
	if high <= low {
		t.Errorf("misattribution should grow with density: %v then %v", low, high)
	}
	// Garnet's unique 24-bit sensor ids have zero misattribution by
	// construction; RETRI's must be non-zero at high density.
	if high == 0 {
		t.Error("dense RETRI field shows no stream corruption — simulation broken")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := SimulateCollisionRate(11, 8, 20, 1000)
	b := SimulateCollisionRate(11, 8, 20, 1000)
	if a != b {
		t.Error("simulation not deterministic for same seed")
	}
}
