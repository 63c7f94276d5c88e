package store

import (
	"cmp"
	"time"

	"github.com/garnet-middleware/garnet/internal/metrics"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// archiveState is the store-wide archive tier: the backend, the retention
// policy, and the write/read latency histograms Stats snapshots. Each
// stream's archive state — its refs and floor — lives on its ring's tail.
// own marks the store's own in-memory backend, whose bytes are the
// store's heap.
type archiveState struct {
	backend  archive.Backend
	maxAge   time.Duration
	maxBytes int64
	own      bool

	writeLat metrics.Histogram
	readLat  metrics.Histogram
}

// now reads the clock before a backend call, whose latency observe then
// records. The store's own backend is a map lookup and a copy, not timed.
func (a *archiveState) now() time.Time {
	if a.own {
		return time.Time{}
	}
	return time.Now()
}

func (a *archiveState) observe(h *metrics.Histogram, start time.Time) {
	if !a.own {
		h.ObserveDuration(time.Since(start))
	}
}

// initArchive wires the archive tier into a freshly constructed sealing
// store. Without Options.Archive the store files its blocks in its own
// archive.Mem, bounded per stream by ColdBudget alone; with one it
// recovers the in-memory index from the backend's manifests. Called from
// New before the store is shared, so no locks are held.
func (s *Store) initArchive(opts Options) {
	if opts.Archive == nil {
		s.arch = &archiveState{
			backend:  archive.NewMem(),
			maxBytes: cmp.Or(max(opts.ColdBudget, 0), DefaultColdBudget),
			own:      true,
		}
		return
	}
	s.arch = &archiveState{
		backend:  opts.Archive,
		maxAge:   opts.ArchiveMaxAge,
		maxBytes: opts.ArchiveMaxBytes,
	}
	s.recoverArchive()
}

// recoverArchive gives every stream the backend holds a ring record whose
// tail carries its surviving refs and floor, and whose lastExt is its last
// archived sequence: a restarted deployment serves archived history for
// streams it has never seen live, and resumes their addressing where the
// archive ends. Blocks the persisted floor cuts into are decoded once to
// recover exact live counts.
func (s *Store) recoverArchive() {
	err := s.arch.backend.Streams(func(ss archive.StreamState) error {
		sh := s.shardFor(ss.Stream)
		r := sh.rings.add(ss.Stream)
		t := &tail{floor: ss.Floor}
		r.tail = t
		for _, ref := range ss.Refs {
			if ref.LastSeq < ss.Floor {
				continue
			}
			if ref.FirstSeq < ss.Floor {
				if _, _, ok := s.cutHeadLocked(ss.Stream, &ref, ss.Floor); !ok {
					continue
				}
			}
			t.refs = append(t.refs, ref)
			t.refBytes += ref.Bytes
			sh.archivedBlocks++
			sh.archivedMsgs += int64(ref.Count)
			sh.archivedBytes += ref.Bytes
			sh.archivedRaw += ref.RawBytes
			sh.archiveRecovered += int64(ref.Count)
		}
		r.lastExt = t.lastSealed()
		return nil
	})
	if err != nil {
		panic("store: archive recovery: " + err.Error())
	}
}

// spillLocked files a block the stream has just sealed, its header ref and
// its encoded bytes data, in the backend and settles it: on success its
// entries move from the retained counts to the archived ones and its ref
// joins the stream's index; on failure the entries are lost and credited
// to Stats.ArchiveFailed so the conservation identity still closes. The
// backend copies data, so the caller may reuse it. Caller holds mu: the
// backend's write latency is the appender's.
func (s *Store) spillLocked(sh *shard, t *tail, id wire.StreamID, ref archive.Ref, data []byte) {
	start := s.arch.now()
	err := s.arch.backend.Append(id, ref, data)
	s.arch.observe(&s.arch.writeLat, start)
	sh.retainedMessages -= int64(ref.Count)
	sh.retainedBytes -= ref.RawBytes
	if err != nil {
		sh.archiveFailed += int64(ref.Count)
		return
	}
	t.refs = append(t.refs, ref)
	t.refBytes += ref.Bytes
	sh.archivedBlocks++
	sh.archivedMsgs += int64(ref.Count)
	sh.archivedBytes += ref.Bytes
	sh.archivedRaw += ref.RawBytes
	s.enforceArchiveRetentionLocked(sh, t, id, ref.LastUnix)
}

// enforceArchiveRetentionLocked applies the backend's bounds after a
// spill — WithArchiveRetention's, or ColdBudget for the store's own:
// oldest blocks past the per-stream byte budget or the age cut (relative
// to the newest archived entry, so virtual clocks stay deterministic) are
// dropped and the floor persisted. The newest block always survives.
// Caller holds mu.
func (s *Store) enforceArchiveRetentionLocked(sh *shard, t *tail, id wire.StreamID, nowUnix int64) {
	dropped := false
	if s.arch.maxBytes > 0 {
		for len(t.refs) > 1 && t.refBytes > s.arch.maxBytes {
			sh.dropRefLocked(t, &sh.evictedArchive)
			dropped = true
		}
	}
	if s.arch.maxAge > 0 {
		cut := nowUnix - int64(s.arch.maxAge)
		for len(t.refs) > 1 && t.refs[0].LastUnix < cut {
			sh.dropRefLocked(t, &sh.evictedArchive)
			dropped = true
		}
	}
	if dropped {
		t.floor = max(t.floor, t.refs[0].FirstSeq)
		s.arch.backend.DeleteBefore(id, t.floor)
	}
}

// dropRefLocked removes the oldest sealed block from the stream's index,
// crediting its live entries to *reason. The caller deletes the backend's
// copy (one DeleteBefore or Forget covers a run of drops).
// Caller holds mu.
func (sh *shard) dropRefLocked(t *tail, reason *int64) {
	ref := popHead(&t.refs)
	t.refBytes -= ref.Bytes
	sh.archivedBlocks--
	sh.archivedMsgs -= int64(ref.Count)
	sh.archivedBytes -= ref.Bytes
	sh.archivedRaw -= ref.RawBytes
	*reason += int64(ref.Count)
}

// Close does nothing and stays for existing callers: every sealed block is
// filed in the backend as it seals, so a store has nothing to drain at
// shutdown. A store may still be read and appended to after Close.
func (s *Store) Close() {}
