package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunOneExperimentRendersItsTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "C1", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(first, "C1") {
		t.Errorf("first line %q does not name C1", first)
	}
}

func TestRunUnknownExperimentFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "nope"}, &out); err == nil {
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
		err := run([]string{removed, "-experiment", "C1", "-quick"}, &out)
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want a flag-not-defined error", removed, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: ran an experiment anyway: %q", removed, out.String())
		}
	}
}
