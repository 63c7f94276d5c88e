package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/garnet-middleware/garnet/internal/experiments"
)

func TestRunOneExperimentRendersItsTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "C1", "-quick"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(first, "C1") {
		t.Errorf("first line %q does not name C1", first)
	}
}

// Standard output is the artifact: `garnet-bench -quick` prints exactly
// the golden files internal/experiments checks, in presentation order,
// and the progress lines go elsewhere.
func TestRunAllQuickPrintsTheGoldens(t *testing.T) {
	var want bytes.Buffer
	for _, e := range experiments.All() {
		golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", e.ID+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(golden)
	}
	var out, progress bytes.Buffer
	if err := run([]string{"-quick"}, &out, &progress); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Errorf("stdout is not the concatenated goldens:\n%s", out.String())
	}
	if !strings.Contains(progress.String(), "all experiments completed in") {
		t.Errorf("progress output %q lacks the completion line", progress.String())
	}
}

func TestRunUnknownExperimentFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "nope"}, &out, io.Discard); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	if out.Len() != 0 {
		t.Errorf("unknown id still wrote output: %q", out.String())
	}
}

// The perf-sweep and census modes were removed with their harnesses; a
// leftover invocation must fail loudly, not fall through to the tables.
func TestRunRejectsRemovedFlags(t *testing.T) {
	for _, removed := range []string{"-perf", "-scale"} {
		var out bytes.Buffer
		err := run([]string{removed, "-experiment", "C1", "-quick"}, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want a flag-not-defined error", removed, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: ran an experiment anyway: %q", removed, out.String())
		}
	}
}
