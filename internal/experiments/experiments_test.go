package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// -update rewrites testdata/<ID>.golden from what the experiments print
// now. A golden moves only with a CHANGES.md line saying which table and
// why.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current tables")

func quickCfg() Config { return Config{Seed: 42, Quick: true} }

// render runs e in quick mode and returns its table and the bytes it
// renders to.
func render(t *testing.T, e Experiment) (*Table, []byte) {
	t.Helper()
	table, err := e.Run(quickCfg())
	if err != nil {
		t.Fatalf("%s failed: %v", e.ID, err)
	}
	var out bytes.Buffer
	table.Render(&out)
	return table, out.Bytes()
}

// TestAllExperimentsRun executes every registered experiment in quick
// mode, validates table shape and compares the rendered table byte for
// byte with its golden file: the paper's tables are this repository's
// answers, and an answer that moves has to be moved on purpose.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			table, got := render(t, e)
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
			golden := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s (rewrite with -update and say why in CHANGES.md)\ngot:\n%swant:\n%s",
					e.ID, golden, got, want)
			}
		})
	}
	// A retired id takes its golden with it.
	if files, _ := filepath.Glob(filepath.Join("testdata", "*.golden")); len(files) != len(All()) {
		t.Errorf("%d golden files for %d experiments: %v", len(files), len(All()), files)
	}
}

// TestTablesDoNotDependOnTheSchedule is the rule the goldens rest on,
// checked without them (so it holds under -update too): no cell may carry
// a stopwatch reading or a tally that depends on how goroutines
// interleave, so every table renders to the same bytes on one P and on
// eight.
func TestTablesDoNotDependOnTheSchedule(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, e := range All() {
		runtime.GOMAXPROCS(1)
		_, one := render(t, e)
		runtime.GOMAXPROCS(8)
		_, eight := render(t, e)
		if !bytes.Equal(one, eight) {
			t.Errorf("%s renders differently at GOMAXPROCS 1 and 8:\n%s---\n%s", e.ID, one, eight)
		}
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
	e3, e10 := strings.Index(err.Error(), " E3,"), strings.Index(err.Error(), " E10,")
	if e3 < 0 || e10 < 0 || e3 > e10 {
		t.Errorf("unknown-id error lists E10 before E3 (or omits one): %v", err)
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

// TestFlagUsage pins the -experiment help text and, through it, the
// registry: the exact ids in presentation order, holes and all.
func TestFlagUsage(t *testing.T) {
	const want = "F1, F2, C1, E1, E3, E4, E5, E6, E7, E8, E10, E11, E12, E15, X1"
	if got := FlagUsage(); got != want {
		t.Errorf("FlagUsage() = %q, want %q", got, want)
	}
}
