// Package metrics provides the small set of instrumentation primitives the
// middleware services and the experiment harness share: atomic counters
// and a fixed-bucket histogram for latency and error distributions.
// The histogram sits on production paths (every archive spill and block
// read, every actuation ack), so it holds constant memory however long
// the deployment runs and reports percentiles to a stated relative error
// rather than keeping every sample.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// CacheLine is the coherence granularity the padded primitives assume.
// 64 bytes is correct for every amd64 and most arm64 parts; on CPUs with
// a larger effective granularity (adjacent-line prefetchers pairing two
// lines) padding to one line still removes the worst of the ping-pong.
const CacheLine = 64

// Counter is a monotonically increasing atomic counter.
// The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter to stay monotonic;
// this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// PaddedCounter is a Counter occupying a whole cache line, for per-shard
// or per-consumer counter cells that live adjacent in one array or are
// allocated back to back: without the padding, two cells updated by
// different cores ping-pong one line between them (false sharing) even
// though the cells are logically independent. Use the embedded Counter's
// methods; the padding is invisible to callers.
type PaddedCounter struct {
	Counter
	_ [CacheLine - 8]byte
}

// LabeledCounter is a set of Counters keyed by a string label (for
// per-consumer or per-stream accounting). The zero value is ready to use.
// With returns a stable *Counter per label, so hot paths resolve their
// label once and then increment lock-free. Each label's cell is padded to
// a full cache line: per-label counters are hot (every async overflow
// drop hits one), and without padding the tiny allocations pack several
// labels' cells into one line, so unrelated consumers' accounting would
// contend.
type LabeledCounter struct {
	mu sync.Mutex
	m  map[string]*PaddedCounter
}

// With returns the counter for label, creating it on first use. The
// returned pointer stays valid for the LabeledCounter's lifetime.
func (lc *LabeledCounter) With(label string) *Counter {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.m == nil {
		lc.m = make(map[string]*PaddedCounter)
	}
	c, ok := lc.m[label]
	if !ok {
		c = &PaddedCounter{}
		lc.m[label] = c
	}
	return &c.Counter
}

// Snapshot returns the current value of every label's counter.
func (lc *LabeledCounter) Snapshot() map[string]int64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[string]int64, len(lc.m))
	for label, c := range lc.m {
		out[label] = c.Value()
	}
	return out
}

// Histogram bucket layout: log-linear, HDR-style. Each power of two
// (octave) between 2^histMinExp and 2^histMaxExp splits into histSub
// equal sub-buckets, which is exactly the ordering of a positive
// float64's exponent and leading mantissa bits, so a sample's bucket is
// two shifts of its bit pattern. Samples outside the range (zero,
// negatives and NaN below it) are only counted.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMinExp  = -24 // 2^-24 ≈ 6e-8: 0.06 ns when samples are milliseconds
	histMaxExp  = 40  // 2^40 ≈ 1.1e12: 18 minutes when samples are nanoseconds
	histOctaves = histMaxExp - histMinExp
	histShift   = 52 - histSubBits
	histExpBase = 1023 + histMinExp // biased exponent of octave 0
)

// HistogramRelativeError bounds how far below the exact order statistic
// a reported percentile can lie, as a fraction of it: samples inside the
// bucketed range are reported as their bucket's lower edge, and a bucket
// spans 1/32 of its power of two.
const HistogramRelativeError = 1.0 / histSub

type histOctave [histSub]atomic.Uint64

// histState is a histogram's whole mutable state, allocated on the first
// observation so an idle histogram costs one pointer. Octaves are
// allocated the first time a sample lands in them: latencies of one path
// span a few powers of two, not sixty-four.
type histState struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
	min     atomic.Uint64 // float64 bits, +Inf until the first sample
	max     atomic.Uint64 // float64 bits, -Inf until the first sample
	under   atomic.Uint64 // samples below 2^histMinExp
	over    atomic.Uint64 // samples at or above 2^histMaxExp
	octaves [histOctaves]atomic.Pointer[histOctave]
}

func newHistState() *histState {
	st := new(histState)
	st.min.Store(math.Float64bits(math.Inf(1)))
	st.max.Store(math.Float64bits(math.Inf(-1)))
	return st
}

func (st *histState) octave(o int) *histOctave {
	if oct := st.octaves[o].Load(); oct != nil {
		return oct
	}
	st.octaves[o].CompareAndSwap(nil, new(histOctave))
	return st.octaves[o].Load()
}

// bucket returns the counter v belongs to.
func (st *histState) bucket(v float64) *atomic.Uint64 {
	if !(v >= 1.0/(1<<-histMinExp)) {
		return &st.under
	}
	if v >= 1<<histMaxExp {
		return &st.over
	}
	bits := math.Float64bits(v)
	return &st.octave(int(bits>>52) - histExpBase)[bits>>histShift&(histSub-1)]
}

// each visits the non-empty buckets in ascending order with the
// smallest value each can hold, until fn returns false.
func (st *histState) each(fn func(low float64, n uint64) bool) {
	if n := st.under.Load(); n > 0 && !fn(math.Inf(-1), n) {
		return
	}
	for o := range st.octaves {
		oct := st.octaves[o].Load()
		if oct == nil {
			continue
		}
		for sub := range oct {
			if n := oct[sub].Load(); n > 0 {
				low := math.Float64frombits(uint64(o+histExpBase)<<52 | uint64(sub)<<histShift)
				if !fn(low, n) {
					return
				}
			}
		}
	}
	if n := st.over.Load(); n > 0 {
		fn(1<<histMaxExp, n)
	}
}

// casFloat replaces the float64 held in a with next(old) until it sticks
// or next declines by returning its argument.
func casFloat(a *atomic.Uint64, next func(old float64) float64) {
	for {
		old := a.Load()
		nv := math.Float64bits(next(math.Float64frombits(old)))
		if nv == old || a.CompareAndSwap(old, nv) {
			return
		}
	}
}

// fold adds n samples' exact statistics; the caller adds their buckets.
func (st *histState) fold(n uint64, sum, lo, hi float64) {
	st.count.Add(n)
	casFloat(&st.sum, func(old float64) float64 { return old + sum })
	casFloat(&st.min, func(old float64) float64 { return math.Min(old, lo) })
	casFloat(&st.max, func(old float64) float64 { return math.Max(old, hi) })
}

// Histogram counts samples in fixed log-linear buckets: bounded memory
// (about half a kilobyte once used, plus 256 bytes per power of two the
// samples have touched, 17 KB at the very most) and a lock-free observe
// that allocates only the first time a power of two is touched. Count,
// Mean and the extremes Percentile(0) and Percentile(100) are exact. A
// percentile is the lower edge of the bucket holding the nearest-rank
// sample, clamped to the extremes: never above the exact order statistic
// and less than HistogramRelativeError (1/32, 3.2 %) of it below, for
// samples between 6e-8 and 1.1e12; samples outside that range are
// reported as an extreme. The zero value is ready to use. Safe for
// concurrent use; a reader racing writers sees each observation in some
// of the statistics before the others.
type Histogram struct {
	st atomic.Pointer[histState]
}

func (h *Histogram) state() *histState {
	if st := h.st.Load(); st != nil {
		return st
	}
	h.st.CompareAndSwap(nil, newHistState())
	return h.st.Load()
}

// observe records one sample.
func (h *Histogram) observe(v float64) {
	st := h.state()
	st.bucket(v).Add(1)
	st.fold(1, v, v, v)
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int {
	if st := h.st.Load(); st != nil {
		return int(st.count.Load())
	}
	return 0
}

// Mean returns the arithmetic mean, or NaN when empty.
func (h *Histogram) Mean() float64 {
	st := h.st.Load()
	if st == nil || st.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(st.sum.Load()) / float64(st.count.Load())
}

// Percentile returns the p-th percentile (p in [0, 100]) by
// nearest-rank over the buckets, or NaN when empty; see Histogram for
// its error bound. Percentile(0) and Percentile(100) are the exact
// minimum and maximum.
func (h *Histogram) Percentile(p float64) float64 {
	st := h.st.Load()
	if st == nil {
		return math.NaN()
	}
	// Rank against the buckets' own total: counts only grow, so the walk
	// below reaches that rank whatever is observed meanwhile.
	var total uint64
	st.each(func(_ float64, n uint64) bool {
		total += n
		return true
	})
	if total == 0 {
		return math.NaN()
	}
	lo, hi := math.Float64frombits(st.min.Load()), math.Float64frombits(st.max.Load())
	if p <= 0 {
		return lo
	}
	if p >= 100 {
		return hi
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	at := hi
	st.each(func(low float64, n uint64) bool {
		if cum += n; cum >= rank {
			at = math.Min(math.Max(low, lo), hi)
			return false
		}
		return true
	})
	return at
}
