package store

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/garnet-middleware/garnet/internal/metrics"
	mpmc "github.com/garnet-middleware/garnet/internal/ring"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// archiveQueueCap is the per-shard async spill queue capacity. A full
// queue falls back to a synchronous drain (counted in
// Stats.ArchiveSyncSpills): backpressure slows appenders, it never drops
// history.
const archiveQueueCap = 256

// archiveState is the store-wide archiver: the backend, the retention
// policy, one bounded spill queue and parked drainer per shard, and the
// write/read latency histograms Stats snapshots. Each stream's archive
// state — its refs, floor and in-flight block — lives on its ring's tail.
type archiveState struct {
	backend  archive.Backend
	syncMode bool
	maxAge   time.Duration
	maxBytes int64

	queues  []*mpmc.Ring[wire.StreamID]
	waiters []*mpmc.Waiter
	closed  atomic.Bool
	wg      sync.WaitGroup

	writeLat metrics.Histogram
	readLat  metrics.Histogram
}

// initArchive wires the archive tier into a freshly constructed store:
// recovers the in-memory index from the backend's manifests and starts
// the per-shard archiver goroutines (unless Options.archiveSync).
// Called from New before the store is shared, so no locks are held.
func (s *Store) initArchive(opts Options) {
	a := &archiveState{
		backend:  opts.Archive,
		syncMode: opts.archiveSync,
		maxAge:   opts.ArchiveMaxAge,
		maxBytes: opts.ArchiveMaxBytes,
	}
	s.arch = a
	s.recoverArchive()
	if a.syncMode {
		return
	}
	a.queues = make([]*mpmc.Ring[wire.StreamID], len(s.shards))
	a.waiters = make([]*mpmc.Waiter, len(s.shards))
	for i := range s.shards {
		a.queues[i] = mpmc.New[wire.StreamID](archiveQueueCap)
		a.waiters[i] = mpmc.NewWaiter()
		a.wg.Add(1)
		go s.archiverLoop(i)
	}
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
				if _, _, ok := s.cutHeadLocked(ss.Stream, &ref, nil, ss.Floor); !ok {
					continue
				}
			}
			t.refs = append(t.refs, ref)
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

// spillLocked hands the stream's sealed list to the archive: synchronously
// under Options.archiveSync, otherwise by a task enqueued for the shard's
// archiver. A full queue falls back to a synchronous drain (counted in
// Stats.ArchiveSyncSpills) so backpressure never silently drops history.
// Caller holds mu.
func (s *Store) spillLocked(sh *shard, t *tail, id wire.StreamID) {
	if !s.arch.syncMode {
		if s.arch.queues[sh.idx].TryEnqueue(&id) {
			s.arch.waiters[sh.idx].Wake()
			return
		}
		sh.spillSync++
	}
	s.drainLocked(sh, t, id)
}

// drainLocked archives the stream's held blocks inline, oldest first,
// stopping at a block the async archiver has in flight. Caller holds mu.
func (s *Store) drainLocked(sh *shard, t *tail, id wire.StreamID) {
	for len(t.blocks) > 0 && t.inflight != t.blocks[0].LastSeq {
		b := t.popBlock()
		start := time.Now()
		err := s.arch.backend.Append(id, b.Ref, b.data)
		s.arch.writeLat.ObserveDuration(time.Since(start))
		s.commitLocked(sh, t, id, b, err)
	}
}

// commitLocked settles one block whose backend append returned: on
// success its entries move from the retained gauges to the archived
// gauges and its ref joins the stream's index; on failure the entries
// are lost and credited to Stats.ArchiveFailed so the conservation
// identity still closes. Either way the block's buffer is recycled.
// Caller holds mu.
func (s *Store) commitLocked(sh *shard, t *tail, id wire.StreamID, b block, err error) {
	sh.retainedMessages.Add(-int64(b.Count))
	sh.retainedBytes.Add(-b.RawBytes)
	sh.recycleBufLocked(b.data)
	if err != nil {
		sh.archiveFailed += int64(b.Count)
		return
	}
	t.refs = append(t.refs, b.Ref)
	sh.archivedBlocks++
	sh.archivedMsgs += int64(b.Count)
	sh.archivedBytes += b.Bytes
	sh.archivedRaw += b.RawBytes
	s.enforceArchiveRetentionLocked(sh, t, id, b.LastUnix)
}

// enforceArchiveRetentionLocked applies WithArchiveRetention's bounds
// after a commit: oldest blocks past the per-stream byte budget or the
// age cut (relative to the newest archived entry, so virtual clocks
// stay deterministic) are dropped and the floor persisted. The newest
// block always survives. Caller holds mu.
func (s *Store) enforceArchiveRetentionLocked(sh *shard, t *tail, id wire.StreamID, nowUnix int64) {
	dropped := false
	if s.arch.maxBytes > 0 {
		var total int64
		for i := range t.refs {
			total += t.refs[i].Bytes
		}
		for len(t.refs) > 1 && total > s.arch.maxBytes {
			total -= t.refs[0].Bytes
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

// dropRefLocked removes the oldest archived block from the stream's
// index, crediting its live entries to *reason. The caller deletes the
// durable copy (one DeleteBefore or Forget covers a run of drops).
// Caller holds mu.
func (sh *shard) dropRefLocked(t *tail, reason *int64) {
	ref := popHead(&t.refs)
	sh.archivedBlocks--
	sh.archivedMsgs -= int64(ref.Count)
	sh.archivedBytes -= ref.Bytes
	sh.archivedRaw -= ref.RawBytes
	*reason += int64(ref.Count)
}

// archiverLoop is one shard's spill drainer: it dequeues stream tasks
// and archives each stream's held blocks, parking on the shard's Waiter
// when the queue runs dry.
func (s *Store) archiverLoop(idx int) {
	defer s.arch.wg.Done()
	q, w := s.arch.queues[idx], s.arch.waiters[idx]
	for {
		if id, ok := q.TryDequeue(); ok {
			s.spillStream(idx, id)
			continue
		}
		if s.arch.closed.Load() {
			return
		}
		w.Prepare()
		if !q.Empty() || s.arch.closed.Load() {
			w.Cancel()
			continue
		}
		w.Wait()
	}
}

// spillStream archives every held block of one stream, oldest first.
// The backend append runs outside the shard lock; the commit step
// reconciles against whatever EvictTo/Forget did to the list in the
// meantime, deleting the durable copy again if the block was dropped
// while in flight.
func (s *Store) spillStream(idx int, id wire.StreamID) {
	sh := s.shards[idx]
	for {
		sh.mu.Lock()
		r := sh.rings.get(id)
		if r == nil || len(r.tail.blocks) == 0 {
			sh.mu.Unlock()
			return
		}
		t := r.tail
		b := t.blocks[0]
		t.inflight = b.LastSeq
		sh.mu.Unlock()

		start := time.Now()
		err := s.arch.backend.Append(id, b.Ref, b.data)
		s.arch.writeLat.ObserveDuration(time.Since(start))

		sh.mu.Lock()
		t.inflight = 0
		if r.tail == t && len(t.blocks) > 0 && t.blocks[0].LastSeq == b.LastSeq {
			// Commit with the head's live bookkeeping — a concurrent
			// EvictTo may have cut its prefix while the original bytes
			// were in flight; the floor it persisted hides the dead
			// prefix inside the durable copy.
			s.commitLocked(sh, t, id, t.popBlock(), err)
			sh.mu.Unlock()
			continue
		}
		// The block vanished while in flight — EvictTo dropped it, or
		// Forget released the whole tail. The dropper settled the
		// accounting and left the buffer (it was marked in flight), so
		// recycle it here and remove the stray durable copy. A stream
		// left with no archived refs is forgotten by the backend
		// outright: a floor filed for it would keep a forgotten stream
		// in the manifest for ever, and outlive the addressing it was
		// cut against.
		sh.recycleBufLocked(b.data)
		if err == nil {
			if cur := r.tail; len(cur.refs) > 0 {
				s.arch.backend.DeleteBefore(id, b.LastSeq+1)
			} else {
				s.arch.backend.Forget(id)
				if cur != noTail {
					cur.floor = 0
				}
			}
		}
		sh.mu.Unlock()
	}
}

// Close stops the archiver goroutines and synchronously archives every
// block still held, so a clean shutdown loses nothing. Idempotent; a
// store without an archive backend has nothing to do. The store must
// not be appended to after Close (reads remain valid).
func (s *Store) Close() {
	if s.arch == nil || s.arch.closed.Swap(true) {
		return
	}
	for _, w := range s.arch.waiters {
		w.Wake()
	}
	s.arch.wg.Wait()
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, r := range sh.rings.all() {
			s.drainLocked(sh, r.tail, id)
		}
		sh.mu.Unlock()
	}
}
