package perfharness

import (
	"encoding/json"
	"os"
	"testing"
)

// TestWriteReportsQuick runs the quick sweep end to end: all three
// reports must validate (which enforces the 0-alloc paths), serialise
// to the stable schema and cover every hot path.
func TestWriteReportsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("perf sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts, failing the 0-alloc bars")
	}
	dir := t.TempDir()
	dp, pp, sp, err := WriteReports(Options{Quick: true, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The expected path set per report is derived from the scenario
	// registry, never duplicated as literals: the registry is the single
	// source of truth for what a sweep runs.
	wantPaths := map[string]map[string]bool{dp: {}, pp: {}, sp: {}}
	for _, sc := range Scenarios() {
		file := dp
		switch sc.Area {
		case "pipeline":
			file = pp
		case "store":
			file = sp
		}
		wantPaths[file][sc.Name] = true
	}
	for file, paths := range wantPaths {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var r Report
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if err := Validate(r); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		seen := map[string]bool{}
		for _, res := range r.Results {
			seen[res.Path] = true
		}
		for p := range paths {
			if !seen[p] {
				t.Fatalf("%s: path %q missing from results", file, p)
			}
		}
		for p := range seen {
			if !paths[p] {
				t.Fatalf("%s: path %q emitted but not registered for this area", file, p)
			}
		}
		if !r.Quick {
			t.Fatalf("%s: quick flag not recorded", file)
		}
	}
}

// TestScenarioRegistry pins the scenario list cmd/garnet-bench and the
// reports derive from: adding, removing or renaming a scenario (or
// moving its 0-alloc bar) must be a deliberate edit here too.
func TestScenarioRegistry(t *testing.T) {
	want := []ScenarioInfo{
		{"dispatch", "dispatch", false},
		{"fanin", "dispatch", false},
		{"ring_enqueue_drain", "dispatch", true},
		{"pipeline", "pipeline", false},
		{"store_tee", "pipeline", true},
		{"control_submit", "pipeline", true},
		{"store_archive_spill", "store", true},
		{"store_archive_range", "store", false},
	}
	got := Scenarios()
	if len(got) != len(want) {
		t.Fatalf("registry has %d scenarios, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scenario %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The -scenario filter resolves through the same registry: every
	// listed name must be addressable, and an unknown name must be
	// refused before any benchmark runs.
	for _, sc := range got {
		if _, ok := scenarioByName(sc.Name); !ok {
			t.Fatalf("scenario %q listed but not addressable by name", sc.Name)
		}
	}
	if _, ok := scenarioByName("no_such_scenario"); ok {
		t.Fatal("unknown scenario name resolved")
	}
	if _, _, _, err := WriteReports(Options{Scenario: "no_such_scenario"}); err == nil {
		t.Fatal("WriteReports accepted an unknown -scenario name")
	}
}

// TestScenarioFilter runs one registry scenario through the -scenario
// path: only that scenario's cells may appear, and the other areas'
// reports must not be written at all.
func TestScenarioFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("perf sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts, failing the 0-alloc bars")
	}
	dir := t.TempDir()
	dp, pp, sp, err := WriteReports(Options{Quick: true, OutDir: dir, Scenario: "ring_enqueue_drain"})
	if err != nil {
		t.Fatal(err)
	}
	if pp != "" {
		t.Fatalf("pipeline report written (%q) for a dispatch-area scenario", pp)
	}
	if sp != "" {
		t.Fatalf("store report written (%q) for a dispatch-area scenario", sp)
	}
	data, err := os.ReadFile(dp)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	for _, res := range r.Results {
		if res.Path != "ring_enqueue_drain" {
			t.Fatalf("filtered run emitted foreign cell %q", res.Path)
		}
	}
}

// TestCompare pins baseline matching: cells pair up by scenario key,
// unmatched cells are skipped, and the delta is a msgs/s percentage.
func TestCompare(t *testing.T) {
	mk := func(path, variant string, msgs float64) Result {
		return Result{Path: path, Variant: variant, Shards: 4, Procs: 4,
			Publishers: 16, Msgs: 100, NsPerOp: 10, MsgsPerSec: msgs}
	}
	baseline := Report{Results: []Result{
		mk("pipeline", "", 1e6),
		mk("fanin", "ring", 2e6),
		mk("fanin", "mutex", 5e5), // not in current: must be skipped
	}}
	current := Report{Results: []Result{
		mk("pipeline", "", 1.1e6),
		mk("fanin", "ring", 1e6),
		mk("ring_enqueue_drain", "", 9e6), // not in baseline: must be skipped
	}}
	ds := Compare(baseline, current)
	if len(ds) != 2 {
		t.Fatalf("got %d deltas, want 2: %+v", len(ds), ds)
	}
	if ds[0].Key != "pipeline shards=4 procs=4" || ds[0].Pct < 9.9 || ds[0].Pct > 10.1 {
		t.Fatalf("pipeline delta wrong: %+v", ds[0])
	}
	if ds[1].Key != "fanin/ring shards=4 procs=4" || ds[1].Pct != -50 {
		t.Fatalf("fanin/ring delta wrong: %+v", ds[1])
	}
}

// TestValidate pins the failure modes the CI smoke job relies on.
func TestValidate(t *testing.T) {
	good := Report{
		Schema: Schema, Area: "dispatch", Date: "2026-08-08",
		Go: "go1.0", HostCPUs: 1,
		Results: []Result{{
			Path: "dispatch", Shards: 1, Procs: 1, Publishers: 16,
			Msgs: 100, NsPerOp: 10, MsgsPerSec: 1e6,
		}},
	}
	if err := Validate(good); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	bad := good
	bad.Schema = "garnet-bench-perf/v0"
	if Validate(bad) == nil {
		t.Fatal("wrong schema accepted")
	}

	regressed := good
	regressed.Results = []Result{{
		Path: "store_tee", Shards: 1, Procs: 1, Publishers: 16,
		Msgs: 100, NsPerOp: 10, MsgsPerSec: 1e6, AllocsPerOp: 1.5,
	}}
	if Validate(regressed) == nil {
		t.Fatal("allocs/op regression on a 0-alloc path accepted")
	}

	empty := good
	empty.Results = nil
	if Validate(empty) == nil {
		t.Fatal("empty report accepted")
	}
}
