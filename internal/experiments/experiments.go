// Package experiments is the benchmark harness that regenerates every
// measurable artifact of the paper: the two figures (F1 architecture, F2
// message format), the §1 capacity claims (C1), the qualitative claims
// and related-work comparisons of §§2–7 as the E experiments, and the §8
// multi-hop extension (X1). All lists the full index.
//
// Each experiment is a pure function from a Config to a Table, rendered
// as aligned text by cmd/garnet-bench: every cell is the same bytes on
// every run, at any GOMAXPROCS, with or without -race, and
// TestAllExperimentsRun compares each table with testdata/<ID>.golden.
// Experiments that need time run on a virtual clock with seeded
// randomness. Nothing here reads a stopwatch into a cell: Garnet is timed
// by bench/ (BENCHMARK.json) and the go test -bench micro-benchmarks. Ids
// are never renumbered, so a retired experiment leaves a hole.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Config parameterises a run.
type Config struct {
	// Seed drives every random stream in the experiment.
	Seed uint64
	// Quick shrinks the sweeps for use in unit tests and smoke runs.
	Quick bool
}

// Table is one regenerated result table.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement under test
	Columns []string
	Rows    [][]string
	Notes   []string
}

// addRow appends a formatted row; values are stringified with %v.
func (t *Table) addRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Figure 1 — architecture walk-through", runF1},
		{"F2", "Figure 2 — data message format", runF2},
		{"C1", "§1 capacity claims", runC1},
		{"E1", "Duplicate elimination vs receiver overlap", runE1},
		{"E3", "Shared stream vs per-query direct polling (Fjords, §7)", runE3},
		{"E4", "Header cost vs RETRI ephemeral ids (§7)", runE4},
		{"E5", "Inferred location accuracy and consumer hints (§5)", runE5},
		{"E6", "Location-targeted actuation vs flooding (§5)", runE6},
		{"E7", "Resource-manager conflict mediation (§4.2/§6)", runE7},
		{"E8", "Predictive vs reactive super coordination (§6.1)", runE8},
		{"E10", "Orphanage capture and late claims (§4.2)", runE10},
		{"E11", "Multi-level consumer hierarchies (§6)", runE11},
		{"E12", "Return-path value vs transmit-only fields (§2)", runE12},
		{"E15", "Dense-field broadcast: cost vs attached receivers", runE15},
		{"X1", "Multi-hop relaying — §8 future-work extension", runX1},
	}
}

// FlagUsage lists every experiment id in presentation order: the
// -experiment help text and Run's unknown-id error.
func FlagUsage() string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

// Run executes the experiment with the given id ("all" is not accepted
// here; iterate All instead).
func Run(id string, cfg Config) (*Table, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, FlagUsage())
}
