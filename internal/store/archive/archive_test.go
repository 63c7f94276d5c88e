package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/store/codec"
	"github.com/garnet-middleware/garnet/internal/wire"
)

func sid(t *testing.T, sensor uint32, idx int) wire.StreamID {
	t.Helper()
	id, err := wire.NewStreamID(wire.SensorID(sensor), wire.StreamIndex(idx))
	if err != nil {
		t.Fatalf("stream id: %v", err)
	}
	return id
}

func blk(firstSeq, lastSeq uint64, fill byte, n int) (Ref, []byte) {
	data := bytes.Repeat([]byte{fill}, n)
	return Ref{
		Codec:    codec.IDRaw,
		FirstSeq: firstSeq,
		LastSeq:  lastSeq,
		Count:    int32(lastSeq - firstSeq + 1),
		RawBytes: int64(n) * 2,
		Bytes:    int64(n),
		LastUnix: int64(lastSeq) * 1e9,
	}, data
}

// openBoth builds a fresh Mem and FS backend and runs the test against
// each — the contract is backend-independent.
func openBoth(t *testing.T, run func(t *testing.T, b Backend)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { run(t, NewMem()) })
	t.Run("fs", func(t *testing.T) {
		f, err := OpenFS(t.TempDir())
		if err != nil {
			t.Fatalf("OpenFS: %v", err)
		}
		defer f.Close()
		run(t, f)
	})
}

func TestBackendContract(t *testing.T) {
	openBoth(t, func(t *testing.T, b Backend) {
		a, bb := sid(t, 7, 0), sid(t, 7, 1)

		if _, err := b.Open(nil, a, 99); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Open on empty backend: %v, want ErrNotFound", err)
		}

		blocks := []struct {
			first, last uint64
			fill        byte
			n           int
		}{{10, 19, 0xAA, 64}, {20, 29, 0xBB, 32}, {30, 39, 0xCC, 48}}
		for _, bl := range blocks {
			ref, data := blk(bl.first, bl.last, bl.fill, bl.n)
			if err := b.Append(a, ref, data); err != nil {
				t.Fatalf("Append(%d): %v", bl.last, err)
			}
		}
		refB, dataB := blk(100, 105, 0xDD, 16)
		if err := b.Append(bb, refB, dataB); err != nil {
			t.Fatalf("Append(b): %v", err)
		}

		// Open round-trips exact bytes and preserves the dst prefix.
		for _, bl := range blocks {
			_, want := blk(bl.first, bl.last, bl.fill, bl.n)
			got, err := b.Open([]byte("prefix"), a, bl.last)
			if err != nil {
				t.Fatalf("Open(%d): %v", bl.last, err)
			}
			if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], want) {
				t.Fatalf("Open(%d): round-trip mismatch (%d bytes)", bl.last, len(got))
			}
		}
		if _, err := b.Open(nil, a, 25); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Open(25) hits no block boundary: %v, want ErrNotFound", err)
		}

		// A stream of many blocks: Open finds its first, middle and last
		// block, and a last sequence between two refs, below the first or
		// past the last is not found.
		many := sid(t, 7, 2)
		const blocksOfMany = 9
		for i := range uint64(blocksOfMany) {
			ref, data := blk(200+10*i, 209+10*i, byte(0x40+i), 8+int(i))
			if err := b.Append(many, ref, data); err != nil {
				t.Fatalf("Append(many %d): %v", i, err)
			}
		}
		for _, i := range []uint64{0, blocksOfMany / 2, blocksOfMany - 1} {
			_, want := blk(200+10*i, 209+10*i, byte(0x40+i), 8+int(i))
			if got, err := b.Open(nil, many, 209+10*i); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Open(many block %d) = %d bytes, %v; want its %d bytes", i, len(got), err, len(want))
			}
		}
		for _, last := range []uint64{244, 199, 209 + 10*blocksOfMany} {
			if _, err := b.Open(nil, many, last); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Open(many, %d) = %v, want ErrNotFound", last, err)
			}
		}
		if err := b.Forget(many); err != nil {
			t.Fatalf("Forget(many): %v", err)
		}

		st, err := b.List(a)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if st.Floor != 0 || len(st.Refs) != 3 {
			t.Fatalf("List = floor %d, %d refs, want 0, 3", st.Floor, len(st.Refs))
		}
		for i, bl := range blocks {
			want, _ := blk(bl.first, bl.last, bl.fill, bl.n)
			if st.Refs[i] != want {
				t.Fatalf("ref %d = %+v, want %+v", i, st.Refs[i], want)
			}
		}

		var visited []wire.StreamID
		if err := b.Streams(func(ss StreamState) error {
			visited = append(visited, ss.Stream)
			return nil
		}); err != nil {
			t.Fatalf("Streams: %v", err)
		}
		if len(visited) != 2 || visited[0] != a || visited[1] != bb {
			t.Fatalf("Streams visited %v, want [%v %v]", visited, a, bb)
		}

		// DeleteBefore removes whole blocks with LastSeq < upto and
		// persists the floor; a straddled block (25 is inside 20..29)
		// survives with the floor recording the logical cut.
		if err := b.DeleteBefore(a, 25); err != nil {
			t.Fatalf("DeleteBefore: %v", err)
		}
		st, _ = b.List(a)
		if st.Floor != 25 || len(st.Refs) != 2 || st.Refs[0].LastSeq != 29 {
			t.Fatalf("after DeleteBefore(25): floor %d, %d refs, head last %d", st.Floor, len(st.Refs), st.Refs[0].LastSeq)
		}
		if _, err := b.Open(nil, a, 19); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Open(19) after delete: %v, want ErrNotFound", err)
		}

		// The floor only advances.
		if err := b.DeleteBefore(a, 20); err != nil {
			t.Fatalf("DeleteBefore(20): %v", err)
		}
		if st, _ = b.List(a); st.Floor != 25 {
			t.Fatalf("floor went backwards: %d", st.Floor)
		}

		if err := b.Forget(bb); err != nil {
			t.Fatalf("Forget: %v", err)
		}
		if st, _ = b.List(bb); st.Floor != 0 || len(st.Refs) != 0 {
			t.Fatalf("forgotten stream still lists %+v", st)
		}
		if _, err := b.Open(nil, bb, 105); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Open on forgotten stream: %v, want ErrNotFound", err)
		}
	})
}

// checkStates holds a backend's recovery view to want: List of every
// stream in want and of every stream in gone, and Streams, report exactly
// the floors and refs given, each ref equal field for field to what was
// appended.
func checkStates(t *testing.T, when string, b Backend, want []StreamState, gone ...wire.StreamID) {
	t.Helper()
	same := func(how string, got, want StreamState) {
		t.Helper()
		if got.Stream != want.Stream || got.Floor != want.Floor || len(got.Refs) != len(want.Refs) {
			t.Fatalf("%s: %s(%v) = floor %d, %d refs; want stream %v, floor %d, %d refs",
				when, how, want.Stream, got.Floor, len(got.Refs), want.Stream, want.Floor, len(want.Refs))
		}
		for i := range want.Refs {
			if got.Refs[i] != want.Refs[i] {
				t.Fatalf("%s: %s(%v) ref %d = %+v, want %+v", when, how, want.Stream, i, got.Refs[i], want.Refs[i])
			}
		}
	}
	for _, w := range want {
		got, err := b.List(w.Stream)
		if err != nil {
			t.Fatalf("%s: List(%v): %v", when, w.Stream, err)
		}
		same("List", got, w)
	}
	for _, id := range gone {
		if got, err := b.List(id); err != nil || got.Floor != 0 || len(got.Refs) != 0 {
			t.Fatalf("%s: List(%v) of a forgotten stream = %+v, %v", when, id, got, err)
		}
	}
	var visited []StreamState
	if err := b.Streams(func(ss StreamState) error {
		visited = append(visited, ss)
		return nil
	}); err != nil {
		t.Fatalf("%s: Streams: %v", when, err)
	}
	if len(visited) != len(want) {
		t.Fatalf("%s: Streams visited %d streams, want %d", when, len(visited), len(want))
	}
	for i := range want {
		same("Streams", visited[i], want[i])
	}
}

// TestFSReopen pins the recovery contract: a re-opened directory serves
// exactly the state the closed one held — blocks, floors, forgets — and
// accepts further appends. Every Ref List and Streams rebuild from the
// manifests, live and after each reopen, is the one appended.
func TestFSReopen(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	a, bb := sid(t, 3, 0), sid(t, 900, 2) // different fs shards, most likely
	ref1, data1 := blk(10, 19, 0x11, 40)
	ref2, data2 := blk(20, 29, 0x22, 40)
	refB, dataB := blk(5, 9, 0x33, 24)
	for _, ap := range []struct {
		id   wire.StreamID
		ref  Ref
		data []byte
	}{{a, ref1, data1}, {a, ref2, data2}, {bb, refB, dataB}} {
		if err := f.Append(ap.id, ap.ref, ap.data); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	checkStates(t, "appended", f, []StreamState{{Stream: a, Refs: []Ref{ref1, ref2}}, {Stream: bb, Refs: []Ref{refB}}})
	if err := f.DeleteBefore(a, 15); err != nil {
		t.Fatalf("DeleteBefore: %v", err)
	}
	if err := f.Forget(bb); err != nil {
		t.Fatalf("Forget: %v", err)
	}
	bare := sid(t, 77, 1) // a floor with no block
	if err := f.DeleteBefore(bare, 500); err != nil {
		t.Fatalf("DeleteBefore(bare): %v", err)
	}
	// Streams visits in stream-id order.
	recovered := []StreamState{{Stream: a, Floor: 15, Refs: []Ref{ref1, ref2}}, {Stream: bare, Floor: 500}}
	if bare < a {
		recovered[0], recovered[1] = recovered[1], recovered[0]
	}
	checkStates(t, "after DeleteBefore and Forget", f, recovered, bb)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	g, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st, _ := g.List(a)
	if st.Floor != 15 || len(st.Refs) != 2 {
		t.Fatalf("recovered: floor %d, %d refs, want 15, 2", st.Floor, len(st.Refs))
	}
	got, err := g.Open(nil, a, 19)
	if err != nil || !bytes.Equal(got, data1) {
		t.Fatalf("recovered Open(19): %v (%d bytes)", err, len(got))
	}
	if st, _ = g.List(bb); len(st.Refs) != 0 {
		t.Fatalf("forget did not survive reopen: %+v", st)
	}
	checkStates(t, "reopened", g, recovered, bb)

	// The recovered backend keeps appending where the old one stopped.
	ref3, data3 := blk(30, 39, 0x44, 40)
	if err := g.Append(a, ref3, data3); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if err := g.DeleteBefore(a, 20); err != nil { // drops ref1 whole
		t.Fatalf("DeleteBefore after reopen: %v", err)
	}
	for i := range recovered {
		if recovered[i].Stream == a {
			recovered[i] = StreamState{Stream: a, Floor: 20, Refs: []Ref{ref2, ref3}}
		}
	}
	checkStates(t, "appended and cut after reopen", g, recovered, bb)
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	h, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer h.Close()
	got, err = h.Open(nil, a, 39)
	if err != nil || !bytes.Equal(got, data3) {
		t.Fatalf("Open(39) after second recovery: %v", err)
	}
	checkStates(t, "second reopen", h, recovered, bb)
}

// TestFSOpenRacesWritesAndClose runs Open outside the backend's mutex
// against everything else that touches the same shard's files: readers
// Open one stream's blocks while a writer appends to a neighbour in the
// same shard and cuts and forgets others there, and then Close lands
// mid-read, once every goroutine has made progress. Every Open returns the
// block's exact bytes or an error, and once Close has returned, only
// errors.
func TestFSOpenRacesWritesAndClose(t *testing.T) {
	f, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	var same []wire.StreamID // four streams of one shard
	for sensor := uint32(1); len(same) < 4; sensor++ {
		if id := sid(t, sensor, 0); len(same) == 0 || fsShardOf(id) == fsShardOf(same[0]) {
			same = append(same, id)
		}
	}
	read, write, cut, forget := same[0], same[1], same[2], same[3]
	const blocks = 16
	want := make([][]byte, blocks)
	for i := range want {
		ref, data := blk(uint64(10*i+10), uint64(10*i+19), byte(i+1), 64+i)
		want[i] = data
		if err := f.Append(read, ref, data); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	const readers = 3
	var closed atomic.Bool
	// Per reader: Opens that returned bytes, and that failed after Close;
	// the writer's rounds.
	var before, after [readers]atomic.Int64
	var rounds atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, readers) // a reader sends at most once, then returns
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []byte
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (n + r) % blocks
				wasClosed := closed.Load()
				got, err := f.Open(buf[:0], read, uint64(10*i+19))
				switch {
				case err == nil && wasClosed:
					errs <- fmt.Errorf("Open(%d) after Close returned bytes", i)
					return
				case err == nil && !bytes.Equal(got, want[i]):
					errs <- fmt.Errorf("Open(%d) returned %d bytes that are not the block's", i, len(got))
					return
				case err == nil:
					buf = got
					before[r].Add(1)
				case wasClosed:
					after[r].Add(1)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are not checked: every call fails once Close has run,
			// and the writer is there for the contention alone.
			ref, data := blk(10*i+10, 10*i+19, byte(i), 32+int(i%64))
			f.Append(write, ref, data)
			f.Append(cut, ref, data)
			f.DeleteBefore(cut, 10*i+10)
			if i%8 == 7 {
				f.Forget(forget)
			} else {
				f.Append(forget, ref, data)
			}
			rounds.Add(1)
		}
	}()
	waitFor := func(what string, done func(r int) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			all := true
			for r := 0; r < readers; r++ {
				all = all && done(r)
			}
			if all || len(errs) > 0 { // a failed reader is reported below
				return
			}
			if time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				t.Fatalf("no progress: %s", what)
			}
		}
	}
	waitFor("every reader read 50 blocks while the writer ran 50 rounds", func(r int) bool {
		return before[r].Load() >= 50 && rounds.Load() >= 50
	})
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	closed.Store(true)
	waitFor("every reader failed after Close", func(r int) bool { return after[r].Load() > 0 })
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := f.Open(nil, read, 19); err == nil {
		t.Fatal("Open after Close returned no error")
	}
}

// TestFSTruncatedSegment kills a deployment mid-spill: the newest block's
// segment bytes are torn off while its manifest record survived. Recovery
// must serve every complete block, report the torn ref, and never panic —
// and appending over the dead extent must work.
func TestFSTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	a := sid(t, 12, 0)
	ref1, data1 := blk(10, 19, 0x5A, 50)
	ref2, data2 := blk(20, 29, 0x6B, 50)
	ref3, data3 := blk(30, 39, 0x7C, 50)
	for _, ap := range []struct {
		ref  Ref
		data []byte
	}{{ref1, data1}, {ref2, data2}, {ref3, data3}} {
		if err := f.Append(a, ap.ref, ap.data); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	f.Close()

	seg := filepath.Join(dir, segName(fsShardOf(a)))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(seg, st.Size()-7); err != nil { // tear into block 3
		t.Fatalf("truncate: %v", err)
	}

	// The read-only inspection view of the crashed directory reports the
	// torn ref before anything heals it.
	rep, err := ScanFS(dir)
	if err != nil {
		t.Fatalf("ScanFS: %v", err)
	}
	torn := 0
	for _, sr := range rep.Shards {
		torn += sr.TornRefs
	}
	if torn != 1 {
		t.Fatalf("ScanFS reports %d torn refs, want 1", torn)
	}

	g, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("recover from torn segment: %v", err)
	}
	ls, _ := g.List(a)
	if len(ls.Refs) != 2 || ls.Refs[1].LastSeq != 29 {
		t.Fatalf("recovered %d refs (last %d), want the 2 complete blocks", len(ls.Refs), ls.Refs[len(ls.Refs)-1].LastSeq)
	}
	if _, err := g.Open(nil, a, 39); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn block still opens: %v", err)
	}
	if got, err := g.Open(nil, a, 29); err != nil || !bytes.Equal(got, data2) {
		t.Fatalf("complete block 2 lost: %v", err)
	}

	// The dead extent is overwritten by the next spill, no gap — and the
	// healed manifest must not resurrect the torn record as a duplicate
	// ref now that live bytes sit under its extent again.
	if err := g.Append(a, ref3, data3); err != nil {
		t.Fatalf("Append over dead extent: %v", err)
	}
	g.Close()
	h, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h.Close()
	ls, _ = h.List(a)
	if len(ls.Refs) != 3 {
		t.Fatalf("after re-spill: %d refs, want exactly 3 (torn record must not resurrect)", len(ls.Refs))
	}
	if got, err := h.Open(nil, a, 39); err != nil || !bytes.Equal(got, data3) {
		t.Fatalf("re-spilled block: %v", err)
	}
}

// TestFSTruncatedManifest kills the deployment mid-manifest-write: the
// torn trailing record (and only it) is discarded.
func TestFSTruncatedManifest(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	a := sid(t, 4, 3)
	ref1, data1 := blk(10, 19, 0x10, 30)
	ref2, data2 := blk(20, 29, 0x20, 30)
	if err := f.Append(a, ref1, data1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := f.Append(a, ref2, data2); err != nil {
		t.Fatalf("Append: %v", err)
	}
	f.Close()

	log := filepath.Join(dir, logName(fsShardOf(a)))
	st, err := os.Stat(log)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(log, st.Size()-5); err != nil { // tear into record 2
		t.Fatalf("truncate: %v", err)
	}

	rep, err := ScanFS(dir)
	if err != nil {
		t.Fatalf("ScanFS: %v", err)
	}
	tornShards := 0
	for _, sr := range rep.Shards {
		if sr.TornManifest {
			tornShards++
		}
	}
	if tornShards != 1 {
		t.Fatalf("ScanFS reports %d torn manifests, want 1", tornShards)
	}

	g, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("recover from torn manifest: %v", err)
	}
	defer g.Close()
	ls, _ := g.List(a)
	if len(ls.Refs) != 1 || ls.Refs[0].LastSeq != 19 {
		t.Fatalf("recovered %d refs, want only the committed block", len(ls.Refs))
	}
	if got, err := g.Open(nil, a, 19); err != nil || !bytes.Equal(got, data1) {
		t.Fatalf("committed block lost: %v", err)
	}
	// The torn tail is overwritten cleanly by the next manifest record,
	// with no duplicate once the block is re-spilled.
	if err := g.Append(a, ref2, data2); err != nil {
		t.Fatalf("Append after torn manifest: %v", err)
	}
	if ls, _ = g.List(a); len(ls.Refs) != 2 {
		t.Fatalf("after re-spill: %d refs, want 2", len(ls.Refs))
	}
}

// TestFSCorruptManifestRecord flips a byte inside a committed record: the
// CRC frame must stop replay there (losing the tail) without a panic.
func TestFSCorruptManifestRecord(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	a := sid(t, 21, 1)
	for i := uint64(0); i < 3; i++ {
		ref, data := blk(10+10*i, 19+10*i, byte(i), 30)
		if err := f.Append(a, ref, data); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	f.Close()

	log := filepath.Join(dir, logName(fsShardOf(a)))
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	raw[recAddLen+10] ^= 0xFF // corrupt the second record's body
	if err := os.WriteFile(log, raw, 0o644); err != nil {
		t.Fatalf("write log: %v", err)
	}

	g, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("recover from corrupt manifest: %v", err)
	}
	defer g.Close()
	ls, _ := g.List(a)
	if len(ls.Refs) != 1 || ls.Refs[0].LastSeq != 19 {
		t.Fatalf("recovered %d refs, want 1 (replay stops at the corrupt record)", len(ls.Refs))
	}
}

// TestScanFSReport pins the inspection view: per-shard record counts and
// committed extents, per-stream ranges and sizes.
func TestScanFSReport(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFS(dir)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	a := sid(t, 5, 0)
	ref1, data1 := blk(100, 149, 0xAB, 80)
	ref2, data2 := blk(150, 199, 0xCD, 70)
	if err := f.Append(a, ref1, data1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := f.Append(a, ref2, data2); err != nil {
		t.Fatalf("Append: %v", err)
	}
	f.Close()

	rep, err := ScanFS(dir)
	if err != nil {
		t.Fatalf("ScanFS: %v", err)
	}
	if len(rep.Shards) != FSShards {
		t.Fatalf("%d shard reports, want %d", len(rep.Shards), FSShards)
	}
	sh := rep.Shards[fsShardOf(a)]
	if sh.Records != 2 || sh.TornManifest || sh.TornRefs != 0 || sh.Committed != 150 || sh.SegBytes != 150 {
		t.Fatalf("shard report %+v, want 2 records, committed/seg 150", sh)
	}
	if len(rep.Streams) != 1 {
		t.Fatalf("%d stream reports, want 1", len(rep.Streams))
	}
	sr := rep.Streams[0]
	if sr.Stream != a || sr.Blocks != 2 || sr.FirstSeq != 100 || sr.LastSeq != 199 ||
		sr.Count != 100 || sr.Bytes != 150 || sr.RawBytes != 300 {
		t.Fatalf("stream report %+v", sr)
	}

	// ScanFS of a missing directory reports empty shards, not an error —
	// the inspect tool must cope with a fresh deployment.
	rep, err = ScanFS(filepath.Join(dir, "nope"))
	if err != nil {
		t.Fatalf("ScanFS(missing): %v", err)
	}
	for _, sr := range rep.Shards {
		if sr.Records != 0 || sr.SegBytes != 0 {
			t.Fatalf("missing dir scans non-empty: %+v", sr)
		}
	}
}

// TestMemConcurrentUse runs Mem's every method at once: appenders on
// streams in four different partitions, readers opening their blocks, a
// cutter advancing their floors with DeleteBefore, a forgetter filling and
// forgetting streams in the same partitions — whose dropped buffers the
// appenders' next blocks reuse — and a lister walking Streams. The
// appenders pause after every 16 blocks, so the others get the CPU, and
// keep going until every other goroutine has run 100 rounds beside them.
// Every block appended and not deleted must open
// byte-identical to what was appended, while the others run and once they
// have stopped.
func TestMemConcurrentUse(t *testing.T) {
	const streams, minBlocks, minRounds = 4, 200, 100
	m := NewMem()
	var ids, churn []wire.StreamID
	used := make(map[int]bool)
	for sensor := uint32(1); len(ids) < streams; sensor++ {
		if p := wire.SensorID(sensor).Shard(wire.Shards); !used[p] {
			used[p] = true
			ids = append(ids, sid(t, sensor, 0))
			churn = append(churn, sid(t, sensor, 1)) // the same partition
		}
	}
	// Block i of stream w covers 10i+10..10i+19; its bytes vary in length
	// so a reused buffer is sometimes too short and sometimes too long.
	block := func(w, i int) (Ref, []byte) {
		data := make([]byte, 8+(i*37+w*11)%120)
		for j := range data {
			data[j] = byte(w*31 + i*7 + j)
		}
		return Ref{Codec: codec.IDRaw, FirstSeq: uint64(10*i + 10), LastSeq: uint64(10*i + 19),
			Count: 10, Bytes: int64(len(data)), RawBytes: int64(len(data))}, data
	}
	// appended[w] counts the blocks Append has returned for; floor[w] is
	// published before the DeleteBefore that enforces it.
	var appended, floor [streams]atomic.Int64
	// check opens block i of stream w into buf: it must open
	// byte-identical, or be gone because the floor has passed it.
	check := func(buf []byte, w, i int) ([]byte, error) {
		_, want := block(w, i)
		got, err := m.Open(buf[:0], ids[w], uint64(10*i+19))
		switch {
		case err == nil && !bytes.Equal(got, want):
			return buf, fmt.Errorf("Open(%v, block %d) returned bytes that are not the block's", ids[w], i)
		case err == nil:
			return got, nil
		case uint64(10*i+19) >= uint64(floor[w].Load()):
			return buf, fmt.Errorf("Open(%v, block %d) above the floor: %v", ids[w], i, err)
		}
		return buf, nil
	}

	const helpers = 5 // two readers, the cutter, the forgetter, the lister
	var rounds [helpers]atomic.Int64
	var failed atomic.Bool // a goroutine has stopped on an error: nobody waits for its rounds
	warmedUp := func() bool {
		for i := range rounds {
			if rounds[i].Load() < minRounds {
				return false
			}
		}
		return true
	}
	stop := make(chan struct{})
	errs := make(chan error, helpers+streams) // each goroutine sends at most once
	var appenders, others sync.WaitGroup
	for w := range streams {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for i := 0; !failed.Load() && (i < minBlocks || !warmedUp()); i++ {
				ref, data := block(w, i)
				if err := m.Append(ids[w], ref, data); err != nil {
					failed.Store(true)
					errs <- fmt.Errorf("Append(%v, %d): %v", ids[w], i, err)
					return
				}
				appended[w].Store(int64(i + 1))
				if i%16 == 15 {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
	}
	helper := func(h int, round func(n int) error) {
		others.Add(1)
		go func() {
			defer others.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := round(n); err != nil {
					failed.Store(true)
					errs <- err
					return
				}
				rounds[h].Add(1)
			}
		}()
	}
	for r := range 2 { // the readers
		var buf []byte
		helper(r, func(n int) (err error) {
			w := (n + r) % streams
			if k := int(appended[w].Load()); k > 0 {
				buf, err = check(buf, w, (n*7919)%k)
			}
			return err
		})
	}
	helper(2, func(n int) error { // the cutter: each stream keeps its newest 32 blocks
		w := n % streams
		if k := int(appended[w].Load()); k > 32 {
			upto := uint64(10*(k-32) + 10)
			floor[w].Store(int64(upto))
			return m.DeleteBefore(ids[w], upto)
		}
		return nil
	})
	helper(3, func(n int) error { // the forgetter
		id := churn[n%streams]
		for i := range 8 {
			ref, data := block(n%streams, i+n%200)
			ref.FirstSeq, ref.LastSeq = uint64(10*i+10), uint64(10*i+19)
			if err := m.Append(id, ref, data); err != nil {
				return err
			}
		}
		return m.Forget(id)
	})
	helper(4, func(int) error { // the lister
		return m.Streams(func(ss StreamState) error {
			for i := 1; i < len(ss.Refs); i++ {
				if ss.Refs[i].LastSeq <= ss.Refs[i-1].LastSeq {
					return fmt.Errorf("Streams: %v's refs are out of order", ss.Stream)
				}
			}
			return nil
		})
	})
	appenders.Wait()
	close(stop)
	others.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for w := range streams {
		st, err := m.List(ids[w])
		if err != nil || len(st.Refs) == 0 || st.Floor != uint64(floor[w].Load()) {
			t.Fatalf("List(%v) = floor %d, %d refs, %v; want floor %d", ids[w], st.Floor, len(st.Refs), err, floor[w].Load())
		}
		for i := range int(appended[w].Load()) {
			if _, err := check(nil, w, i); err != nil {
				t.Fatal(err)
			}
		}
	}
}
