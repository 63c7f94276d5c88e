package store

import (
	"fmt"
	"testing"
	"time"

	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// retentionSurvivors is what Options.ArchiveMaxAge / ArchiveMaxBytes must
// leave of a stream's archived blocks (all, ascending): the longest suffix
// inside both bounds, and never less than the newest block. Age is taken
// against the newest archived entry.
func retentionSurvivors(all []archive.Ref, maxAge time.Duration, maxBytes int64) []archive.Ref {
	keep := len(all) - 1
	total := all[keep].Bytes
	cut := all[keep].LastUnix - int64(maxAge)
	for keep > 0 {
		prev := all[keep-1]
		if maxBytes > 0 && total+prev.Bytes > maxBytes {
			break
		}
		if maxAge > 0 && prev.LastUnix < cut {
			break
		}
		total += prev.Bytes
		keep--
	}
	return all[keep:]
}

// TestArchiveRetentionBounds runs the one path that deletes durable data:
// each bound alone, both together and the degenerate bounds that would
// delete everything, over both backends. An unbounded twin fed the same
// appends says which blocks exist, so the survivors are computed, not
// assumed.
func TestArchiveRetentionBounds(t *testing.T) {
	const n = 400 // one entry a second, 8 to a block
	id := wire.MustStreamID(9, 0)
	base := Options{MaxMessages: 16, BlockSize: 8, ColdBudget: 1, archiveSync: true}
	payload := func(seq int) []byte { return []byte(fmt.Sprintf("reading %03d", seq)) }
	at := func(seq int) time.Time { return epoch.Add(time.Duration(seq) * time.Second) }

	twinOpts := base
	twinOpts.Archive = archive.NewMem()
	twin := New(twinOpts)
	defer twin.Close()
	for seq := 0; seq < n; seq++ {
		twin.Append(del(id, wire.Seq(seq), at(seq), payload(seq)))
	}
	full, err := twinOpts.Archive.List(id)
	if err != nil || len(full.Refs) < 40 {
		t.Fatalf("unbounded twin archived %d blocks, %v", len(full.Refs), err)
	}
	blockBytes := full.Refs[0].Bytes

	bounds := []struct {
		name     string
		maxAge   time.Duration
		maxBytes int64
	}{
		{"age", 60 * time.Second, 0},
		{"bytes", 0, 5*blockBytes + blockBytes/2},
		{"both, age binds", 30 * time.Second, 10 * blockBytes},
		{"both, bytes bind", 10 * time.Minute, 3 * blockBytes},
		{"age below one block", time.Nanosecond, 0},
		{"bytes below one block", 0, 1},
	}
	for _, kind := range []string{"mem", "fs"} {
		for _, bd := range bounds {
			t.Run(kind+"/"+bd.name, func(t *testing.T) {
				// open returns the case's backend; opening it again after
				// closing it stands for a restart.
				mem, dir := archive.NewMem(), t.TempDir()
				open := func() (archive.Backend, func()) {
					if kind == "mem" {
						return mem, func() {}
					}
					fs, err := archive.OpenFS(dir)
					if err != nil {
						t.Fatalf("OpenFS: %v", err)
					}
					return fs, func() {
						if err := fs.Close(); err != nil {
							t.Fatalf("backend close: %v", err)
						}
					}
				}
				opts := base
				opts.ArchiveMaxAge, opts.ArchiveMaxBytes = bd.maxAge, bd.maxBytes
				backend, closeBackend := open()
				opts.Archive = backend
				s := New(opts)
				for seq := 0; seq < n; seq++ {
					s.Append(del(id, wire.Seq(seq), at(seq), payload(seq)))
					checkArchiveIdentity(t, s, fmt.Sprintf("after append %d", seq))
				}

				want := retentionSurvivors(full.Refs, bd.maxAge, bd.maxBytes)
				if len(want) == len(full.Refs) {
					t.Fatalf("bounds %v / %d B would evict nothing: the case tests no deletion", bd.maxAge, bd.maxBytes)
				}
				firstKept := want[0].FirstSeq
				dropped := int64(firstKept - extBase)

				st := s.Stats()
				if st.EvictedArchive != dropped {
					t.Fatalf("EvictedArchive = %d, want exactly the %d entries below seq %d", st.EvictedArchive, dropped, firstKept)
				}
				if st.ArchivedBlocks != int64(len(want)) {
					t.Fatalf("ArchivedBlocks = %d, want the newest %d of %d", st.ArchivedBlocks, len(want), len(full.Refs))
				}
				if other := st.EvictedCount + st.EvictedBytes + st.EvictedAge + st.EvictedCold + st.ArchiveFailed; other != 0 {
					t.Fatalf("entries lost outside archive retention: %+v", st)
				}
				held, err := backend.List(id)
				if err != nil {
					t.Fatal(err)
				}
				if held.Floor != firstKept || len(held.Refs) != len(want) {
					t.Fatalf("backend holds %d blocks above floor %d, want %d above %d", len(held.Refs), held.Floor, len(want), firstKept)
				}
				for i := range want {
					if held.Refs[i] != want[i] {
						t.Fatalf("backend block %d = %+v, want %+v (oldest must go first)", i, held.Refs[i], want[i])
					}
				}

				// The surviving suffix, in order, from the archive through
				// the hot ring; a range that starts below the cut begins at
				// the cut.
				if first, ok := s.FirstSeq(id); !ok || first != firstKept {
					t.Fatalf("FirstSeq = %d %v, want %d", first, ok, firstKept)
				}
				suffix := twin.Range(id, firstKept, ^uint64(0))
				if err := sameDeliveriesFull(s.Range(id, 0, ^uint64(0)), suffix); err != nil {
					t.Fatalf("Range(all) is not the surviving suffix: %v", err)
				}
				if err := sameDeliveriesFull(s.Range(id, firstKept-12, firstKept+12), suffix[:13]); err != nil {
					t.Fatalf("Range across the cut: %v", err)
				}

				// A restart over the same backend recovers the survivors
				// and nothing that was deleted.
				archived := st.ArchivedMessages
				s.Close()
				closeBackend()
				reopened, closeReopened := open()
				defer closeReopened()
				opts.Archive = reopened
				s2 := New(opts)
				defer s2.Close()
				if got := s2.Stats().ArchiveRecovered; got != archived {
					t.Fatalf("restart recovered %d entries, %d were archived", got, archived)
				}
				if err := sameDeliveriesFull(s2.Range(id, 0, ^uint64(0)), suffix[:archived]); err != nil {
					t.Fatalf("restart resurrected or lost blocks: %v", err)
				}
				checkArchiveIdentity(t, s2, "after restart")
			})
		}
	}
}
