package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/store/codec"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// encode helpers: golden tests round-trip frames built with the real
// codec, so the output pins both the decoder and the renderer.

func dataFrame(t *testing.T, m wire.Message) string {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(b)
}

func controlFrame(t *testing.T, c wire.ControlMessage) string {
	t.Helper()
	b, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(b)
}

func runInspect(t *testing.T, args []string, stdin string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, strings.NewReader(stdin), &out, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestInspectDataGolden(t *testing.T) {
	frame := dataFrame(t, wire.Message{
		Stream:   wire.MustStreamID(1042, 3),
		Seq:      7,
		Flags:    wire.FlagUpdateAck | wire.FlagRelayed,
		AckID:    99,
		HopCount: 2,
		Payload:  []byte{0xde, 0xad, 0xbe, 0xef},
	})
	got := runInspect(t, []string{frame}, "")
	want := strings.Join([]string{
		"data message (18 bytes)",
		"  stream   1042/3 (sensor 1042, internal stream 3)",
		"  seq      7",
		"  flags    ack|relayed",
		"  ack-id   99",
		"  hops     2",
		"  payload  4 bytes: de ad be ef",
		"",
	}, "\n")
	if got != want {
		t.Errorf("data golden mismatch:\n got: %q\nwant: %q", got, want)
	}
	// Frames on stdin decode identically.
	if fromStdin := runInspect(t, nil, frame+"\n"); fromStdin != want {
		t.Errorf("stdin output differs from arg output:\n%q\n%q", fromStdin, want)
	}
}

func TestInspectControlGolden(t *testing.T) {
	issued := time.UnixMicro(1053302400000000) // 2003-05-19 00:00:00 UTC, µs precision
	frame := controlFrame(t, wire.ControlMessage{
		UpdateID: 5,
		Target:   wire.MustStreamID(7, 1),
		Op:       wire.OpSetParam,
		Param:    2,
		Value:    1500,
		Issued:   issued,
	})
	got := runInspect(t, []string{"-control", frame}, "")
	want := strings.Join([]string{
		"control message (23 bytes)",
		"  update-id 5",
		"  target    7/1 (sensor 7, internal stream 1)",
		"  op        set-param",
		"  param     2",
		"  value     1500",
		fmt.Sprintf("  issued    %v", time.UnixMicro(issued.UnixMicro())),
		"",
	}, "\n")
	if got != want {
		t.Errorf("control golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestInspectStoreDumpGolden(t *testing.T) {
	frames := []string{
		dataFrame(t, wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 0, Payload: []byte{0xaa, 0xbb}}),
		dataFrame(t, wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 1, Payload: []byte{0xcc}}),
		dataFrame(t, wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 1, Payload: []byte{0xcc}}), // duplicate address collapses
		dataFrame(t, wire.Message{Stream: wire.MustStreamID(2, 5), Seq: 9, Payload: nil}),
	}
	got := runInspect(t, append([]string{"-store"}, frames...), "")
	want := strings.Join([]string{
		"stream store dump: 4 frames in, 2 streams, 3 retained messages, 3 payload bytes",
		"stream 1/0: 2 retained, store seq 65536..65537, next wire seq 2, 3 B, ~240 B resident",
		"  seq 65536    wire 0     flags none       2 B: aa bb",
		"  seq 65537    wire 1     flags none       1 B: cc",
		"stream 2/5: 1 retained, store seq 65545..65545, next wire seq 10, 0 B, ~176 B resident",
		"  seq 65545    wire 9     flags none       0 B",
		"",
	}, "\n")
	if got != want {
		t.Errorf("store dump golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestInspectStoreRetainBound(t *testing.T) {
	var frames []string
	for seq := 0; seq < 10; seq++ {
		frames = append(frames, dataFrame(t, wire.Message{
			Stream: wire.MustStreamID(3, 0), Seq: wire.Seq(seq), Payload: []byte{byte(seq)},
		}))
	}
	got := runInspect(t, append([]string{"-store", "-retain", "4"}, frames...), "")
	if !strings.Contains(got, "stream 3/0: 4 retained, store seq 65542..65545") {
		t.Errorf("retain bound not applied:\n%s", got)
	}
	if !strings.Contains(got, "evicted 6, dropped-behind 0") {
		t.Errorf("eviction accounting missing:\n%s", got)
	}
}

func TestInspectRejectsConflictingModes(t *testing.T) {
	if err := run([]string{"-control", "-store", "00"}, strings.NewReader(""), &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Fatal("conflicting -control and -store accepted")
	}
	if err := run(nil, strings.NewReader(""), &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestInspectHelpIsNotAnError(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-h"}, strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if !strings.Contains(errOut.String(), "-store") {
		t.Errorf("usage not printed to stderr: %q", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("usage leaked to stdout: %q", out.String())
	}
}

func TestInspectStoreCodecColumns(t *testing.T) {
	var frames []string
	payload := []byte{0x40, 0x35, 0x80, 0, 0, 0, 0, 0} // constant f64 21.5
	for seq := 0; seq < 20; seq++ {
		frames = append(frames, dataFrame(t, wire.Message{
			Stream: wire.MustStreamID(3, 0), Seq: wire.Seq(seq), Payload: payload,
		}))
	}
	got := runInspect(t, append([]string{"-store", "-retain", "4", "-codec", "auto"}, frames...), "")
	// Evictions seal instead of dropping: everything stays replayable.
	if !strings.Contains(got, "20 retained messages") {
		t.Errorf("sealed entries dropped from the dump:\n%s", got)
	}
	if !strings.Contains(got, "codec auto: 2 blocks sealed, 16 messages") {
		t.Errorf("cold-tier summary missing:\n%s", got)
	}
	if !strings.Contains(got, ", codec ") || !strings.Contains(got, "16 cold in ") {
		t.Errorf("per-stream codec/ratio column missing:\n%s", got)
	}
	if strings.Contains(got, "evicted ") {
		t.Errorf("compressed dump reports evictions:\n%s", got)
	}
}

// TestInspectArchiveGolden round-trips a real on-disk archive through
// the scanner: two committed blocks produce an exact report, and a
// truncated segment afterwards is flagged as torn.
func TestInspectArchiveGolden(t *testing.T) {
	dir := t.TempDir()
	b, err := archive.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := wire.MustStreamID(7, 1)
	ref := func(first, last uint64, n int32, data []byte) archive.Ref {
		return archive.Ref{
			Codec: codec.IDRaw, FirstSeq: first, LastSeq: last,
			Count: n, RawBytes: 3 * int64(n), Bytes: int64(len(data)), LastUnix: 1e9,
		}
	}
	if err := b.Append(id, ref(65536, 65585, 50, bytes.Repeat([]byte{0xab}, 75)), bytes.Repeat([]byte{0xab}, 75)); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(id, ref(65586, 65635, 50, bytes.Repeat([]byte{0xcd}, 75)), bytes.Repeat([]byte{0xcd}, 75)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	got := runInspect(t, []string{"-archive", dir}, "")
	if !strings.HasPrefix(got, "archive scan: 1 streams, 2 blocks, 100 messages, 150 B compressed from 300 B raw\n") {
		t.Errorf("scan summary mismatch:\n%s", got)
	}
	if !strings.Contains(got, ": 2 manifest records, 150 of 150 segment B committed\n") {
		t.Errorf("shard line mismatch:\n%s", got)
	}
	if !strings.Contains(got, "stream 7/1: 100 archived in 2 blocks, store seq 65536..65635, floor 0, 150 B from 300 B raw (×2.0)\n") {
		t.Errorf("stream line mismatch:\n%s", got)
	}
	if strings.Contains(got, "TORN") {
		t.Errorf("clean archive flagged torn:\n%s", got)
	}

	// Crash mid-spill: the segment loses its tail, the scan flags the
	// torn block and still reports the surviving one.
	var seg string
	for i := 0; ; i++ {
		p := filepath.Join(dir, fmt.Sprintf("shard-%02d.seg", i))
		if st, err := os.Stat(p); err == nil && st.Size() > 0 {
			seg = p
			break
		}
	}
	if err := os.Truncate(seg, 140); err != nil {
		t.Fatal(err)
	}
	got = runInspect(t, []string{"-archive", dir}, "")
	if !strings.Contains(got, "1 TORN block ref(s)") {
		t.Errorf("torn segment not flagged:\n%s", got)
	}
	if !strings.Contains(got, "torn state in 1 shard(s)") {
		t.Errorf("torn summary missing:\n%s", got)
	}
}

func TestInspectArchiveFlagValidation(t *testing.T) {
	if err := run([]string{"-archive", "x", "-store"}, strings.NewReader(""), &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Fatal("-archive with -store accepted")
	}
	if err := run([]string{"-archive", "x", "00"}, strings.NewReader(""), &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Fatal("-archive with frames accepted")
	}
}

func TestInspectCodecFlagValidation(t *testing.T) {
	frame := dataFrame(t, wire.Message{Stream: wire.MustStreamID(1, 0), Seq: 0})
	if err := run([]string{"-codec", "auto", frame}, strings.NewReader(""), &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Fatal("-codec without -store accepted")
	}
	if err := run([]string{"-store", "-codec", "zstd", frame}, strings.NewReader(""), &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Fatal("unknown codec name accepted")
	}
}
