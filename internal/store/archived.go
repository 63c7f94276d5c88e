package store

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/metrics"
	mpmc "github.com/garnet-middleware/garnet/internal/ring"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/store/codec"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// archiveQueueCap is the per-shard async spill queue capacity. A full
// queue falls back to a synchronous drain (counted in
// Stats.ArchiveSyncSpills): backpressure slows appenders, it never drops
// history.
const archiveQueueCap = 256

// archiveState is the store-wide archiver: the backend, the retention
// policy, one bounded spill queue and parked drainer per shard, and the
// write/read latency histograms Stats snapshots.
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

// archStream is one stream's archive-tier state, held in a per-shard
// side map rather than on the ring so the per-stream idle footprint
// only grows for streams that actually spilled. All sequences
// in refs precede all in pending precede all in the cold tier; entries
// below floor are logically deleted even where a straddling block still
// physically holds them.
type archStream struct {
	// refs are the durably archived blocks, ascending. FirstSeq, Count
	// and RawBytes are live bookkeeping: retention cuts advance them
	// past a block's dead prefix without rewriting the immutable block.
	refs []archive.Ref
	// pending blocks left the cold tier but have not been committed by
	// the archiver yet; their entries still count as retained. FIFO.
	pending []coldBlock
	// floor is the retention cut: entries below it are dropped on
	// decode. Mirrors the backend's persisted floor.
	floor uint64
	// inflight is the lastSeq of the pending head the archiver is
	// writing right now (0 when none): droppers must not recycle that
	// block's buffer, and the archiver reconciles against it on return.
	inflight uint64
}

// lastSeqLocked returns the highest archived or spill-pending sequence,
// 0 when the tier is empty. Caller holds the shard mutex.
func (as *archStream) lastSeqLocked() uint64 {
	if n := len(as.pending); n > 0 {
		return as.pending[n-1].lastSeq
	}
	if n := len(as.refs); n > 0 {
		return as.refs[n-1].LastSeq
	}
	return 0
}

func refFromBlock(b *coldBlock) archive.Ref {
	return archive.Ref{
		Codec:    b.codec,
		FirstSeq: b.firstSeq,
		LastSeq:  b.lastSeq,
		Count:    int32(b.count),
		RawBytes: b.rawBytes,
		Bytes:    int64(len(b.data)),
		LastUnix: b.lastUnix,
	}
}

// initArchive wires the archive tier into a freshly constructed store:
// recovers the in-memory index from the backend's manifests and starts
// the per-shard archiver goroutines (unless Options.ArchiveSync).
// Called from New before the store is shared, so no locks are held.
func (s *Store) initArchive(opts Options) {
	a := &archiveState{
		backend:  opts.Archive,
		syncMode: opts.ArchiveSync,
		maxAge:   opts.ArchiveMaxAge,
		maxBytes: opts.ArchiveMaxBytes,
	}
	s.arch = a
	for _, sh := range s.shards {
		sh.archived = make(map[wire.StreamID]*archStream)
	}
	s.recoverArchive()
	if a.syncMode {
		return
	}
	a.queues = make([]*mpmc.Ring[wire.StreamID], s.shardCnt)
	a.waiters = make([]*mpmc.Waiter, s.shardCnt)
	for i := 0; i < s.shardCnt; i++ {
		a.queues[i] = mpmc.New[wire.StreamID](archiveQueueCap)
		a.waiters[i] = mpmc.NewWaiter()
		a.wg.Add(1)
		go s.archiverLoop(i)
	}
}

// recoverArchive rebuilds the per-shard archive index from the backend:
// a restarted deployment serves archived history for streams it has
// never seen live. Blocks the persisted floor cuts into are decoded
// once to recover exact live counts.
func (s *Store) recoverArchive() {
	err := s.arch.backend.Streams(func(ss archive.StreamState) error {
		sh := s.shardFor(ss.Stream)
		as := &archStream{floor: ss.Floor}
		for _, ref := range ss.Refs {
			if ref.LastSeq < ss.Floor {
				continue
			}
			if ref.FirstSeq < ss.Floor {
				adj, ok := s.recoverCutRef(ss.Stream, ref, ss.Floor)
				if !ok {
					continue
				}
				ref = adj
			}
			as.refs = append(as.refs, ref)
			sh.archivedBlocks++
			sh.archivedMsgs += int64(ref.Count)
			sh.archivedBytes += ref.Bytes
			sh.archivedRaw += ref.RawBytes
			sh.archiveRecovered += int64(ref.Count)
		}
		if len(as.refs) > 0 || as.floor > 0 {
			sh.archived[ss.Stream] = as
		}
		return nil
	})
	if err != nil {
		panic("store: archive recovery: " + err.Error())
	}
}

// recoverCutRef decodes one floor-straddling block at recovery and
// returns its ref adjusted to the live suffix; ok is false when the
// block fails to open or decode (it is dropped rather than trusted).
func (s *Store) recoverCutRef(id wire.StreamID, ref archive.Ref, floor uint64) (archive.Ref, bool) {
	c, ok := codec.ByID(ref.Codec)
	if !ok {
		return ref, false
	}
	ds := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(ds)
	var err error
	ds.buf, err = s.arch.backend.Open(ds.buf[:0], id, ref.LastSeq)
	if err != nil {
		return ref, false
	}
	entries, err := c.Decode(ds.entries[:0], id, ds.buf, &ds.sc)
	ds.entries = entries
	if err != nil {
		return ref, false
	}
	var count int32
	var raw int64
	first := uint64(0)
	for i := range entries {
		if entries[i].StoreSeq < floor {
			continue
		}
		if first == 0 {
			first = entries[i].StoreSeq
		}
		count++
		raw += int64(len(entries[i].Msg.Payload))
	}
	if count == 0 {
		return ref, false
	}
	ref.FirstSeq, ref.Count, ref.RawBytes = first, count, raw
	return ref, true
}

// spillOldestColdLocked moves the oldest cold block into the archive
// tier instead of dropping it: synchronously under Options.ArchiveSync,
// otherwise onto the stream's pending list with a task enqueued for the
// shard's archiver. A full queue falls back to a synchronous drain
// (counted in Stats.ArchiveSyncSpills) so backpressure never silently
// drops history. Caller holds mu.
func (s *Store) spillOldestColdLocked(sh *shard, t *tail, id wire.StreamID) {
	b := t.popOldestCold()
	as, ok := sh.archived[id]
	if !ok {
		as = &archStream{}
		sh.archived[id] = as
	}
	if s.arch.syncMode {
		s.archiveBlockLocked(sh, as, id, b)
		return
	}
	as.pending = append(as.pending, b)
	sh.pendingBlocks++
	if s.arch.queues[sh.idx].TryEnqueue(id) {
		s.arch.waiters[sh.idx].Wake()
		return
	}
	sh.spillSync++
	s.drainPendingLocked(sh, as, id)
}

// drainPendingLocked archives the stream's pending blocks inline,
// oldest first, stopping at a block the async archiver has in flight.
// Caller holds mu.
func (s *Store) drainPendingLocked(sh *shard, as *archStream, id wire.StreamID) {
	for len(as.pending) > 0 && as.inflight != as.pending[0].lastSeq {
		b := as.pending[0]
		dropPendingSlot(as)
		sh.pendingBlocks--
		s.archiveBlockLocked(sh, as, id, b)
	}
}

// dropPendingSlot removes the pending head, keeping the slice capacity.
func dropPendingSlot(as *archStream) {
	n := len(as.pending)
	copy(as.pending, as.pending[1:])
	as.pending[n-1] = coldBlock{}
	as.pending = as.pending[:n-1]
}

// archiveBlockLocked appends one block to the backend and commits it,
// all under the shard mutex (the synchronous paths: ArchiveSync mode,
// queue-full fallback, Close's final drain). Caller holds mu.
func (s *Store) archiveBlockLocked(sh *shard, as *archStream, id wire.StreamID, b coldBlock) {
	ref := refFromBlock(&b)
	start := time.Now()
	err := s.arch.backend.Append(id, ref, b.data)
	s.arch.writeLat.ObserveDuration(time.Since(start))
	s.commitSpilledLocked(sh, as, id, b, err)
}

// commitSpilledLocked settles one block whose backend append returned:
// on success its entries move from the retained gauges to the archived
// gauges and its ref joins the stream's index; on failure the entries
// are lost and credited to Stats.ArchiveFailed so the conservation
// identity still closes. Either way the block's buffer is recycled.
// Caller holds mu.
func (s *Store) commitSpilledLocked(sh *shard, as *archStream, id wire.StreamID, b coldBlock, err error) {
	sh.retainedMessages.Add(-int64(b.count))
	sh.retainedBytes.Add(-b.rawBytes)
	if err != nil {
		sh.archiveFailed += int64(b.count)
		sh.recycleBufLocked(b.data)
		return
	}
	as.refs = append(as.refs, refFromBlock(&b))
	sh.archivedBlocks++
	sh.archivedMsgs += int64(b.count)
	sh.archivedBytes += int64(len(b.data))
	sh.archivedRaw += b.rawBytes
	sh.recycleBufLocked(b.data)
	s.enforceArchiveRetentionLocked(sh, as, id, b.lastUnix)
}

// enforceArchiveRetentionLocked applies WithArchiveRetention's bounds
// after a commit: oldest blocks past the per-stream byte budget or the
// age cut (relative to the newest archived entry, so virtual clocks
// stay deterministic) are dropped and the floor persisted. The newest
// block always survives. Caller holds mu.
func (s *Store) enforceArchiveRetentionLocked(sh *shard, as *archStream, id wire.StreamID, nowUnix int64) {
	dropped := false
	if s.arch.maxBytes > 0 {
		var total int64
		for i := range as.refs {
			total += as.refs[i].Bytes
		}
		for len(as.refs) > 1 && total > s.arch.maxBytes {
			total -= as.refs[0].Bytes
			s.dropOldestRefLocked(sh, as, &sh.evictedArchive)
			dropped = true
		}
	}
	if s.arch.maxAge > 0 {
		cut := nowUnix - int64(s.arch.maxAge)
		for len(as.refs) > 1 && as.refs[0].LastUnix < cut {
			s.dropOldestRefLocked(sh, as, &sh.evictedArchive)
			dropped = true
		}
	}
	if dropped {
		if first := as.refs[0].FirstSeq; first > as.floor {
			as.floor = first
		}
		s.arch.backend.DeleteBefore(id, as.floor)
	}
}

// dropOldestRefLocked removes the oldest archived block from the
// in-memory index, crediting its live entries to *reason. The caller is
// responsible for the backend-side delete (one DeleteBefore covers a
// run of drops). Caller holds mu.
func (s *Store) dropOldestRefLocked(sh *shard, as *archStream, reason *int64) {
	ref := as.refs[0]
	sh.archivedBlocks--
	sh.archivedMsgs -= int64(ref.Count)
	sh.archivedBytes -= ref.Bytes
	sh.archivedRaw -= ref.RawBytes
	*reason += int64(ref.Count)
	n := len(as.refs)
	copy(as.refs, as.refs[1:])
	as.refs[n-1] = archive.Ref{}
	as.refs = as.refs[:n-1]
}

// archiverLoop is one shard's spill drainer: it dequeues stream tasks
// and archives each stream's pending blocks, parking on the shard's
// Waiter when the queue runs dry.
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

// spillStream archives every pending block of one stream, oldest first.
// The backend append runs outside the shard lock; the commit step
// reconciles against whatever EvictTo/Forget did to the pending list in
// the meantime, deleting the durable copy again if the block was
// dropped while in flight.
func (s *Store) spillStream(idx int, id wire.StreamID) {
	sh := s.shards[idx]
	for {
		sh.mu.Lock()
		as := sh.archived[id]
		if as == nil || len(as.pending) == 0 {
			sh.mu.Unlock()
			return
		}
		b := as.pending[0]
		as.inflight = b.lastSeq
		sh.mu.Unlock()

		ref := refFromBlock(&b)
		start := time.Now()
		err := s.arch.backend.Append(id, ref, b.data)
		s.arch.writeLat.ObserveDuration(time.Since(start))

		sh.mu.Lock()
		if cur := sh.archived[id]; cur == as {
			as.inflight = 0
			if len(as.pending) > 0 && as.pending[0].lastSeq == b.lastSeq {
				// Commit with the pending head's live bookkeeping — a
				// concurrent EvictTo may have trimmed its prefix while
				// the original bytes were in flight; the floor hides
				// the dead prefix inside the durable copy.
				live := as.pending[0]
				dropPendingSlot(as)
				sh.pendingBlocks--
				s.commitSpilledLocked(sh, as, id, live, err)
				sh.mu.Unlock()
				continue
			}
		}
		// The block vanished while in flight (EvictTo or Forget): the
		// dropper settled the accounting and skipped the buffer (it was
		// marked in flight), so recycle here and remove the stray
		// durable copy.
		sh.recycleBufLocked(b.data)
		sh.mu.Unlock()
		if err == nil {
			s.arch.backend.DeleteBefore(id, b.lastSeq+1)
		}
	}
}

// Close stops the archiver goroutines and synchronously archives every
// block still pending, so a clean shutdown loses nothing. Idempotent;
// a store without an archive backend has nothing to do. The store must
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
		for id, as := range sh.archived {
			as.inflight = 0
			s.drainPendingLocked(sh, as, id)
		}
		sh.mu.Unlock()
	}
}

// evictArchiveToLocked applies EvictTo to the archive tier: whole
// archived and pending blocks below upto are dropped (credited to
// *reason), a straddling block is cut by advancing its live bookkeeping
// past the dead prefix, and the floor is persisted. Caller holds mu.
func (s *Store) evictArchiveToLocked(sh *shard, as *archStream, id wire.StreamID, upto uint64, reason *int64) {
	for len(as.refs) > 0 && as.refs[0].LastSeq < upto {
		s.dropOldestRefLocked(sh, as, reason)
	}
	if len(as.refs) > 0 && as.refs[0].FirstSeq < upto {
		s.cutHeadRefLocked(sh, as, id, upto, reason)
	}
	for len(as.pending) > 0 && as.pending[0].lastSeq < upto {
		s.dropPendingHeadLocked(sh, as, reason)
	}
	if len(as.pending) > 0 && as.pending[0].firstSeq < upto {
		s.cutPendingHeadLocked(sh, as, upto, reason)
	}
	if upto > as.floor {
		as.floor = upto
		s.arch.backend.DeleteBefore(id, upto)
	}
}

// dropPendingHeadLocked drops the whole pending head block, crediting
// its entries (still retained) to *reason. An in-flight block's buffer
// stays with the archiver, which recycles it on return. Caller holds mu.
func (s *Store) dropPendingHeadLocked(sh *shard, as *archStream, reason *int64) {
	b := as.pending[0]
	sh.retainedMessages.Add(-int64(b.count))
	sh.retainedBytes.Add(-b.rawBytes)
	*reason += int64(b.count)
	if as.inflight != b.lastSeq {
		sh.recycleBufLocked(b.data)
	}
	dropPendingSlot(as)
	sh.pendingBlocks--
}

// cutHeadRefLocked trims the dead prefix [FirstSeq, upto) off the
// oldest archived block: the block is decoded once to count exactly
// what the cut drops, then only the bookkeeping advances — the durable
// bytes are immutable and the floor hides the prefix. A block that
// fails to decode is dropped whole (over-evicting, but exactly
// accounted). Caller holds mu.
func (s *Store) cutHeadRefLocked(sh *shard, as *archStream, id wire.StreamID, upto uint64, reason *int64) {
	ref := &as.refs[0]
	c, ok := codec.ByID(ref.Codec)
	if !ok {
		s.dropOldestRefLocked(sh, as, reason)
		return
	}
	ds := decodePool.Get().(*decodeScratch)
	var entries []filtering.Delivery
	var err error
	ds.buf, err = s.arch.backend.Open(ds.buf[:0], id, ref.LastSeq)
	if err == nil {
		entries, err = c.Decode(ds.entries[:0], id, ds.buf, &ds.sc)
		ds.entries = entries
	}
	if err != nil {
		decodePool.Put(ds)
		s.dropOldestRefLocked(sh, as, reason)
		return
	}
	cut, raw, firstLive := cutPrefix(entries, ref.FirstSeq, upto)
	decodePool.Put(ds)
	if cut == 0 {
		return
	}
	if firstLive == 0 {
		s.dropOldestRefLocked(sh, as, reason)
		return
	}
	ref.FirstSeq = firstLive
	ref.Count -= int32(cut)
	ref.RawBytes -= raw
	sh.archivedMsgs -= int64(cut)
	sh.archivedRaw -= raw
	*reason += int64(cut)
}

// cutPendingHeadLocked is cutHeadRefLocked for the pending head, whose
// bytes are still in memory. Caller holds mu.
func (s *Store) cutPendingHeadLocked(sh *shard, as *archStream, upto uint64, reason *int64) {
	b := &as.pending[0]
	c, ok := codec.ByID(b.codec)
	if !ok {
		s.dropPendingHeadLocked(sh, as, reason)
		return
	}
	ds := decodePool.Get().(*decodeScratch)
	entries, err := c.Decode(ds.entries[:0], 0, b.data, &ds.sc)
	ds.entries = entries
	if err != nil {
		decodePool.Put(ds)
		s.dropPendingHeadLocked(sh, as, reason)
		return
	}
	cut, raw, firstLive := cutPrefix(entries, b.firstSeq, upto)
	decodePool.Put(ds)
	if cut == 0 {
		return
	}
	if firstLive == 0 {
		s.dropPendingHeadLocked(sh, as, reason)
		return
	}
	b.firstSeq = firstLive
	b.count -= cut
	b.rawBytes -= raw
	sh.retainedMessages.Add(-int64(cut))
	sh.retainedBytes.Add(-raw)
	*reason += int64(cut)
}

// cutPrefix counts the entries a cut at upto drops from a decoded
// block whose live bookkeeping starts at first: how many live entries
// fall in [first, upto), their payload bytes, and the sequence of the
// first survivor (0 when none survive).
func cutPrefix(entries []filtering.Delivery, first, upto uint64) (cut int, raw int64, firstLive uint64) {
	for i := range entries {
		seq := entries[i].StoreSeq
		if seq < first {
			continue
		}
		if seq >= upto {
			firstLive = seq
			break
		}
		cut++
		raw += int64(len(entries[i].Msg.Payload))
	}
	return cut, raw, firstLive
}

// forgetArchiveLocked drops the stream's whole archive tier — durable
// blocks, pending spills and the floor — crediting every live entry to
// *reason, and removes the backend's state. An in-flight block's buffer
// is left to the archiver. Returns the entries dropped. Caller holds mu.
func (s *Store) forgetArchiveLocked(sh *shard, as *archStream, id wire.StreamID, reason *int64) int {
	before := *reason
	for len(as.refs) > 0 {
		s.dropOldestRefLocked(sh, as, reason)
	}
	for len(as.pending) > 0 {
		s.dropPendingHeadLocked(sh, as, reason)
	}
	delete(sh.archived, id)
	s.arch.backend.Forget(id)
	return int(*reason - before)
}
