// Command garnet-inspect decodes hex-encoded Garnet wire frames — data
// messages (Figure 2) and downlink control messages — and prints their
// fields. It is the debugging loupe for anything captured off the
// simulated medium.
//
// The -store mode feeds every decoded data frame through an in-memory
// Stream Store and prints the resulting retention view: per-stream
// 64-bit extended sequences (the store's wrap-free addresses), window
// bounds, a per-stream resident-memory estimate (ring header + slot
// backing + payloads + sealed blocks) and what a replaying consumer would
// receive — the quickest way to see how a captured trace lands in the
// retention layer, including duplicate collapse and eviction under a
// chosen retention bound.
//
// The -archive mode scans an on-disk archive directory (the durable
// tier a deployment spills sealed blocks into) without opening it for
// writing: segment/manifest structure per shard, per-stream archived
// ranges with compression ratios, and torn tails left by a crash —
// the post-mortem view of what a restarted deployment will recover.
//
// Usage:
//
//	garnet-inspect 4a00000...              # decode a data frame
//	garnet-inspect -control 40001...       # decode a control frame
//	garnet-inspect -store -retain 4 f1 f2  # retention view of a trace
//	garnet-inspect -store -codec auto f1   # … with sealed compressed history on
//	garnet-inspect -archive ./archive      # scan a durable archive directory
//	echo 4a0000... | garnet-inspect        # read hex from stdin
package main

import (
	"bufio"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/store/codec"
	"github.com/garnet-middleware/garnet/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "garnet-inspect: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("garnet-inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	control := fs.Bool("control", false, "decode as downlink control messages")
	storeDump := fs.Bool("store", false, "feed data frames through a Stream Store and dump the retention view")
	retain := fs.Int("retain", 0, "per-stream retention bound for -store (0 = default)")
	codecName := fs.String("codec", "", "sealed-history codec for -store: auto, gorilla, rle, lz or raw (\"\" = compression off)")
	archiveDir := fs.String("archive", "", "scan an on-disk archive directory instead of decoding frames")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not an error
		}
		return err
	}
	if *control && *storeDump {
		return fmt.Errorf("-control and -store are mutually exclusive")
	}
	if *archiveDir != "" {
		if *control || *storeDump {
			return fmt.Errorf("-archive is mutually exclusive with -control and -store")
		}
		if len(fs.Args()) != 0 {
			return fmt.Errorf("-archive takes a directory, not frames")
		}
		return inspectArchive(stdout, *archiveDir)
	}
	if *codecName != "" {
		if !*storeDump {
			return fmt.Errorf("-codec requires -store")
		}
		if _, err := codec.PickerFor(*codecName); err != nil {
			return err
		}
	}

	inputs := fs.Args()
	if len(inputs) == 0 {
		scanner := bufio.NewScanner(stdin)
		for scanner.Scan() {
			line := strings.TrimSpace(scanner.Text())
			if line != "" {
				inputs = append(inputs, line)
			}
		}
		if err := scanner.Err(); err != nil {
			return err
		}
	}
	if len(inputs) == 0 {
		return fmt.Errorf("no frames given (args or stdin)")
	}
	frames := make([][]byte, 0, len(inputs))
	for _, in := range inputs {
		frame, err := hex.DecodeString(strings.ReplaceAll(in, " ", ""))
		if err != nil {
			return fmt.Errorf("bad hex %q: %w", in, err)
		}
		frames = append(frames, frame)
	}
	if *storeDump {
		return inspectStore(stdout, frames, *retain, *codecName)
	}
	for _, frame := range frames {
		if *control {
			if err := inspectControl(stdout, frame); err != nil {
				return err
			}
			continue
		}
		if err := inspectData(stdout, frame); err != nil {
			return err
		}
	}
	return nil
}

func inspectData(w io.Writer, frame []byte) error {
	msg, n, err := wire.DecodeMessage(frame)
	if err != nil {
		return fmt.Errorf("data frame: %w", err)
	}
	fmt.Fprintf(w, "data message (%d bytes)\n", n)
	fmt.Fprintf(w, "  stream   %v (sensor %d, internal stream %d)\n", msg.Stream, msg.Stream.Sensor(), msg.Stream.Index())
	fmt.Fprintf(w, "  seq      %d\n", msg.Seq)
	fmt.Fprintf(w, "  flags    %v\n", msg.Flags)
	if msg.Flags.Has(wire.FlagUpdateAck) {
		fmt.Fprintf(w, "  ack-id   %d\n", msg.AckID)
	}
	if msg.Flags.Has(wire.FlagRelayed) {
		fmt.Fprintf(w, "  hops     %d\n", msg.HopCount)
	}
	if msg.Flags.Has(wire.FlagFused) {
		fmt.Fprintf(w, "  fused    %d sources\n", msg.FusedCount)
	}
	fmt.Fprintf(w, "  payload  %d bytes", len(msg.Payload))
	if len(msg.Payload) > 0 {
		limit := len(msg.Payload)
		if limit > 32 {
			limit = 32
		}
		fmt.Fprintf(w, ": % x", msg.Payload[:limit])
		if limit < len(msg.Payload) {
			fmt.Fprintf(w, " …")
		}
	}
	fmt.Fprintln(w)
	return nil
}

func inspectControl(w io.Writer, frame []byte) error {
	c, err := wire.DecodeControl(frame)
	if err != nil {
		return fmt.Errorf("control frame: %w", err)
	}
	fmt.Fprintf(w, "control message (%d bytes)\n", wire.ControlSize)
	fmt.Fprintf(w, "  update-id %d\n", c.UpdateID)
	fmt.Fprintf(w, "  target    %v (sensor %d, internal stream %d)\n", c.Target, c.Target.Sensor(), c.Target.Index())
	fmt.Fprintf(w, "  op        %v\n", c.Op)
	if c.Op == wire.OpSetParam {
		fmt.Fprintf(w, "  param     %d\n", c.Param)
	}
	fmt.Fprintf(w, "  value     %d\n", c.Value)
	fmt.Fprintf(w, "  issued    %v\n", c.Issued)
	return nil
}

// inspectArchive scans a durable archive directory read-only and prints
// what a restarted deployment would recover from it: per-shard
// segment/manifest structure (flagging torn tails a crash left behind)
// and per-stream archived ranges with compression ratios.
func inspectArchive(w io.Writer, dir string) error {
	rep, err := archive.ScanFS(dir)
	if err != nil {
		return err
	}
	var blocks int
	var count, rawBytes, compBytes int64
	for _, s := range rep.Streams {
		blocks += s.Blocks
		count += s.Count
		rawBytes += s.RawBytes
		compBytes += s.Bytes
	}
	fmt.Fprintf(w, "archive scan: %d streams, %d blocks, %d messages, %d B compressed from %d B raw\n",
		len(rep.Streams), blocks, count, compBytes, rawBytes)
	torn := 0
	for _, sh := range rep.Shards {
		if sh.Records == 0 && sh.SegBytes == 0 && !sh.TornManifest {
			continue // never written
		}
		fmt.Fprintf(w, "  shard %02d: %d manifest records, %d of %d segment B committed",
			sh.Index, sh.Records, sh.Committed, sh.SegBytes)
		if sh.TornManifest {
			fmt.Fprintf(w, ", TORN manifest tail")
			torn++
		}
		if sh.TornRefs > 0 {
			fmt.Fprintf(w, ", %d TORN block ref(s)", sh.TornRefs)
			torn++
		}
		fmt.Fprintln(w)
	}
	for _, s := range rep.Streams {
		if s.Blocks == 0 {
			fmt.Fprintf(w, "stream %v: empty (floor %d)\n", s.Stream, s.Floor)
			continue
		}
		fmt.Fprintf(w, "stream %v: %d archived in %d blocks, store seq %d..%d, floor %d, %d B from %d B raw (×%.1f)\n",
			s.Stream, s.Count, s.Blocks, s.FirstSeq, s.LastSeq, s.Floor, s.Bytes, s.RawBytes,
			float64(s.RawBytes)/float64(s.Bytes))
	}
	if torn > 0 {
		fmt.Fprintf(w, "torn state in %d shard(s): the next open recovers to the last complete block\n", torn)
	}
	return nil
}

// inspectStore appends every decoded data frame into a fresh Stream Store
// and dumps the retention view it produces. With a codec named, the hot
// window holds max(retain, 8) entries and a full one seals its oldest 8
// into a compressed block the store files in its own in-memory backend
// (small blocks, so even short traces seal some), and the dump grows
// per-stream codec and compression-ratio columns. "retained" counts hot
// and sealed entries alike; the per-stream "cold" column is the sealed
// ones.
func inspectStore(w io.Writer, frames [][]byte, retain int, codecName string) error {
	st := store.New(store.Options{MaxMessages: retain, Codec: codecName, BlockSize: 8})
	for i, frame := range frames {
		msg, _, err := wire.DecodeMessage(frame)
		if err != nil {
			return fmt.Errorf("data frame %d: %w", i+1, err)
		}
		st.Append(filtering.Delivery{Msg: msg, Receiver: "inspect", RSSI: 1})
	}
	stats := st.Stats()
	streams := st.Streams()
	fmt.Fprintf(w, "stream store dump: %d frames in, %d streams, %d retained messages, %d payload bytes\n",
		stats.Appended, len(streams), stats.RetainedMessages+stats.ArchivedMessages,
		stats.RetainedBytes+stats.ArchivedRawBytes)
	if evicted := stats.EvictedCount + stats.EvictedBytes + stats.EvictedAge; evicted > 0 || stats.DroppedBehind > 0 {
		fmt.Fprintf(w, "  evicted %d, dropped-behind %d\n", evicted, stats.DroppedBehind)
	}
	if stats.Codec != "" {
		fmt.Fprintf(w, "  codec %s: %d blocks sealed, %d messages, %d B compressed from %d B raw\n",
			stats.Codec, stats.SealedBlocks, stats.SealedMessages, stats.ArchivedBytes, stats.ArchivedRawBytes)
	}
	for _, id := range streams {
		ss, _ := st.StreamStats(id)
		fmt.Fprintf(w, "stream %v: %d retained, store seq %d..%d, next wire seq %d, %d B, ~%d B resident",
			id, ss.Count+ss.ArchivedMessages, ss.FirstSeq, ss.LastSeq, ss.NextWire,
			ss.Bytes+ss.ArchivedRawBytes, ss.ResidentBytes)
		if ss.ArchivedBlocks > 0 {
			ratio := float64(ss.ArchivedRawBytes) / float64(ss.ArchivedBytes)
			fmt.Fprintf(w, ", codec %s ×%.1f (%d cold in %d B)", ss.Codec, ratio, ss.ArchivedMessages, ss.ArchivedBytes)
		}
		fmt.Fprintln(w)
		st.RangeFunc(id, 0, ^uint64(0), func(d filtering.Delivery) bool {
			fmt.Fprintf(w, "  seq %-8d wire %-5d flags %-10v %d B", d.StoreSeq, d.Msg.Seq, d.Msg.Flags, len(d.Msg.Payload))
			if len(d.Msg.Payload) > 0 {
				limit := len(d.Msg.Payload)
				if limit > 16 {
					limit = 16
				}
				fmt.Fprintf(w, ": % x", d.Msg.Payload[:limit])
				if limit < len(d.Msg.Payload) {
					fmt.Fprintf(w, " …")
				}
			}
			fmt.Fprintln(w)
			return true
		})
	}
	return nil
}
