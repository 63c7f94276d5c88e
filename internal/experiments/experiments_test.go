package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Seed: 42, Quick: true} }

// TestAllExperimentsRun executes every registered experiment in quick mode
// and validates table shape.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if table.ID != e.ID {
				t.Errorf("table id %q, want %q", table.ID, e.ID)
			}
			if len(table.Columns) == 0 || len(table.Rows) == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("%s row %d has %d cells, want %d", e.ID, i, len(row), len(table.Columns))
				}
			}
			var sb strings.Builder
			table.Render(&sb)
			if !strings.Contains(sb.String(), e.ID) {
				t.Error("render missing experiment id")
			}
		})
	}
}

func TestRunByID(t *testing.T) {
	if _, err := Run("c1", quickCfg()); err != nil {
		t.Fatalf("case-insensitive lookup failed: %v", err)
	}
	_, err := Run("nope", quickCfg())
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	// The ids are listed in All()'s presentation order, not sorted as strings.
	e2, e10 := strings.Index(err.Error(), " E2,"), strings.Index(err.Error(), " E10,")
	if e2 < 0 || e10 < 0 || e2 > e10 {
		t.Errorf("unknown-id error lists E10 before E2 (or omits one): %v", err)
	}
}

func cell(t *testing.T, table *Table, row int, col string) string {
	t.Helper()
	for i, c := range table.Columns {
		if c == col {
			return table.Rows[row][i]
		}
	}
	t.Fatalf("no column %q in %v", col, table.Columns)
	return ""
}

func cellFloat(t *testing.T, table *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, table, row, col), 64)
	if err != nil {
		t.Fatalf("cell %q/%d = %q not numeric", col, row, cell(t, table, row, col))
	}
	return v
}

// The headline shape claims the experiments must reproduce.

func TestE1DuplicationGrowsWithOverlapAndFilterHolds(t *testing.T) {
	table, err := Run("E1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := cellFloat(t, table, 0, "dup factor")
	last := cellFloat(t, table, len(table.Rows)-1, "dup factor")
	if last <= first {
		t.Errorf("dup factor did not grow with receivers: %v → %v", first, last)
	}
	firstRatio := cellFloat(t, table, 0, "delivery ratio")
	lastRatio := cellFloat(t, table, len(table.Rows)-1, "delivery ratio")
	if lastRatio <= firstRatio {
		t.Errorf("delivery ratio did not improve with overlap: %v → %v", firstRatio, lastRatio)
	}
	for i := range table.Rows {
		if cell(t, table, i, "dups after filter") != "0" {
			t.Errorf("row %d: duplicates escaped the filter", i)
		}
	}
}

func TestE3SharedWins(t *testing.T) {
	table, err := Run("E3", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := len(table.Rows) - 1
	if got := cellFloat(t, table, last, "saving ×"); got < 10 {
		t.Errorf("shared-stream saving at 16 queries = %v, want ≥10×", got)
	}
}

func TestE4RETRIShape(t *testing.T) {
	table, err := Run("E4", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Garnet row first: 11-byte header, zero collisions.
	if cell(t, table, 0, "header B") != "11" {
		t.Errorf("garnet header = %s", cell(t, table, 0, "header B"))
	}
	// Every RETRI row has a smaller header but the dense rows collide.
	sawCollision := false
	for i := 1; i < len(table.Rows); i++ {
		if cellFloat(t, table, i, "header B") >= 11 {
			t.Errorf("row %d: RETRI header not smaller", i)
		}
		if cellFloat(t, table, i, "collision p (simulated)") > 0.2 {
			sawCollision = true
		}
	}
	if !sawCollision {
		t.Error("no RETRI configuration showed substantial collisions")
	}
}

func TestE5HintsImproveAccuracy(t *testing.T) {
	table, err := Run("E5", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate (no hints, hints) per grid size.
	for i := 0; i+1 < len(table.Rows); i += 2 {
		plain := cellFloat(t, table, i, "mean err m")
		hinted := cellFloat(t, table, i+1, "mean err m")
		if hinted >= plain {
			t.Errorf("grid row %d: hints did not improve accuracy (%v vs %v)", i, plain, hinted)
		}
	}
	// Densest grid beats the sparsest (both without hints).
	if cellFloat(t, table, len(table.Rows)-2, "mean err m") >= cellFloat(t, table, 0, "mean err m") {
		t.Error("denser receiver grid did not improve inference")
	}
}

func TestE6TargetedCheaperThanFlood(t *testing.T) {
	table, err := Run("E6", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(table.Rows); i += 2 {
		targeted := cellFloat(t, table, i, "broadcasts/request")
		flood := cellFloat(t, table, i+1, "broadcasts/request")
		if targeted > flood/2 {
			t.Errorf("row %d: targeted %v broadcasts/request, want at most half the flood's %v", i, targeted, flood)
		}
		if acked, pings := cell(t, table, i, "acked"), cell(t, table, i, "pings"); acked != pings {
			t.Errorf("row %d: targeted mode acked %s of %s pings", i, acked, pings)
		}
	}
}

func TestE7PoliciesDiffer(t *testing.T) {
	table, err := Run("E7", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// most-demanding is clamped to 5000; least-demanding picks 500.
	if got := cell(t, table, 0, "effective mHz"); got != "5000" {
		t.Errorf("most-demanding effective = %s, want 5000 (clamped)", got)
	}
	if got := cell(t, table, 1, "effective mHz"); got != "500" {
		t.Errorf("least-demanding effective = %s, want 500", got)
	}
	for i := range table.Rows {
		if cell(t, table, i, "constraint ok") != "true" {
			t.Errorf("row %d violated constraints", i)
		}
	}
	// first-come-deny must deny at least one conflicting demand.
	if got := cellFloat(t, table, 3, "denied"); got == 0 {
		t.Error("first-come-deny denied nothing")
	}
}

func TestE8PredictiveReducesLatency(t *testing.T) {
	table, err := Run("E8", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	reactive := cellFloat(t, table, 0, "mean in-place ms")
	predictive := cellFloat(t, table, 1, "mean in-place ms")
	if predictive >= reactive {
		t.Errorf("predictive %v ms not below reactive %v ms", predictive, reactive)
	}
	if armed := cellFloat(t, table, 1, "already-armed entries"); armed == 0 {
		t.Error("predictive mode never pre-armed")
	}
}

func TestE12AdaptiveSavesEnergy(t *testing.T) {
	table, err := Run("E12", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	fixed := cellFloat(t, table, 0, "energy mJ")
	adaptive := cellFloat(t, table, 1, "energy mJ")
	if adaptive >= fixed {
		t.Errorf("adaptive %v not below transmit-only %v", adaptive, fixed)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	table := &Table{
		ID: "X", Title: "T", Columns: []string{"a", "long-column"},
	}
	table.AddRow(1, 2.5)
	table.AddRow("wide-value", 3)
	var sb strings.Builder
	table.Render(&sb)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("render lines = %d", len(lines))
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1.0, "1"}, {2.5, "2.5"}, {0.125, "0.125"}, {0, "0"}, {1.23456, "1.235"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.in); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestX1RelayReachGrows(t *testing.T) {
	table, err := Run("X1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := cellFloat(t, table, 0, "reachable sensors")
	last := cellFloat(t, table, len(table.Rows)-1, "reachable sensors")
	if last <= first {
		t.Errorf("relays did not extend reach: %v → %v", first, last)
	}
	for i := range table.Rows {
		if rate := cellFloat(t, table, i, "delivery rate"); rate < 0.99 {
			t.Errorf("row %d delivery rate %v, want lossless", i, rate)
		}
	}
}

// TestFlagUsage pins the derived -experiment usage summary: it must
// track All() so the cmd/garnet-bench help text can never go stale,
// compressing the contiguous E-range and keeping the other ids verbatim.
func TestFlagUsage(t *testing.T) {
	got := FlagUsage()
	highE := 0
	for _, e := range All() {
		var n int
		isE := false
		if _, err := fmt.Sscanf(e.ID, "E%d", &n); err == nil && fmt.Sprintf("E%d", n) == e.ID {
			isE = true
			if n > highE {
				highE = n
			}
		}
		if !isE && !strings.Contains(got, e.ID) {
			t.Errorf("usage %q missing id %s", got, e.ID)
		}
	}
	want := fmt.Sprintf("E1..E%d", highE)
	if !strings.Contains(got, want) {
		t.Errorf("usage %q missing compressed range %q", got, want)
	}
	if highE < 18 {
		t.Errorf("registry lost experiments: highest E id %d < 18", highE)
	}
}
