package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what garnet-sim prints now")

// wallClock matches the one figure of the report that is not a function of
// the flags: the real time the run took.
var wallClock = regexp.MustCompile(`\(.* wall clock\)`)

// TestActuateRunMatchesGolden pins the whole report of one seeded run with
// the return path on: every service's counters, the ack latencies and the
// field's energy. The sensors pay to listen (RxPerByte > 0), so every
// downlink frame reaches every sensor in range and is charged there; a
// change to the medium, the replicator or the sensors that moves any of it
// shows here.
func TestActuateRunMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sensors", "10", "-duration", "30s", "-seed", "7", "-actuate"}, &out); err != nil {
		t.Fatal(err)
	}
	got := wallClock.ReplaceAll(out.Bytes(), []byte("(WALL wall clock)"))
	golden := filepath.Join("testdata", "actuate.golden")
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
		t.Errorf("report differs from %s (rewrite with -update and say why in CHANGES.md)\ngot:\n%swant:\n%s", golden, got, want)
	}
}
