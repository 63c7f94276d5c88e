package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value should read 0")
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("Value = %d, want 16000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
	g.Add(-7)
	if got := g.Value(); got != 0 {
		t.Fatalf("Value after Add(-7) = %d, want 0", got)
	}
}

// TestGaugeConcurrent exercises the pattern the Stream Store relies on:
// per-shard gauges adjusted up and down under concurrent load, summed by
// a Stats reader. Balanced add/remove pairs must net to zero.
func TestGaugeConcurrent(t *testing.T) {
	const shards, workers, perWorker = 4, 8, 1000
	gauges := make([]Gauge, shards)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := &gauges[w%shards]
			for i := 0; i < perWorker; i++ {
				g.Add(5)
				g.Add(-5)
			}
		}(w)
	}
	// Concurrent summed reads must never panic or tear.
	for i := 0; i < 100; i++ {
		var sum int64
		for s := range gauges {
			sum += gauges[s].Value()
		}
		_ = sum
	}
	wg.Wait()
	var sum int64
	for s := range gauges {
		sum += gauges[s].Value()
	}
	if sum != 0 {
		t.Fatalf("balanced adds summed to %d, want 0", sum)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 {
		t.Fatal("empty count")
	}
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.Percentile(50)) || !math.IsNaN(h.Percentile(0)) || !math.IsNaN(h.Percentile(100)) {
		t.Fatal("empty histogram statistics should be NaN")
	}
}

func TestHistogramStatistics(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
	if got := h.Percentile(100); got != 5 {
		t.Fatalf("Max = %v, want 5", got)
	}
	if got := h.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := h.Percentile(90); got != 5 {
		t.Fatalf("p90 = %v, want 5", got)
	}
	if got := h.Percentile(20); got != 1 {
		t.Fatalf("p20 = %v, want 1", got)
	}
}

func TestHistogramObserveAfterPercentile(t *testing.T) {
	// Reading must not freeze the histogram; later observations count.
	var h Histogram
	h.observe(10)
	_ = h.Percentile(50)
	h.observe(1)
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("Min after late observe = %v, want 1", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Microsecond)
	if got := h.Mean(); got != 1.5 {
		t.Fatalf("Mean = %v ms, want 1.5", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.observe(float64(j))
				if j%100 == 0 {
					_ = h.Percentile(50)
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 4000 {
		t.Fatalf("Count = %d, want 4000", got)
	}
}

func TestLabeledCounter(t *testing.T) {
	var lc LabeledCounter
	a := lc.With("a")
	a.Inc()
	a.Add(2)
	lc.With("b").Inc()
	if lc.With("a") != a {
		t.Fatal("With must return a stable pointer per label")
	}
	snap := lc.Snapshot()
	if snap["a"] != 3 || snap["b"] != 1 {
		t.Fatalf("Snapshot = %v, want a=3 b=1", snap)
	}
	if _, ok := snap["c"]; ok {
		t.Fatal("Snapshot invented a label")
	}
}

func TestLabeledCounterConcurrent(t *testing.T) {
	var lc LabeledCounter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			label := fmt.Sprintf("l%d", i%2)
			for j := 0; j < 1000; j++ {
				lc.With(label).Inc()
			}
		}(i)
	}
	wg.Wait()
	snap := lc.Snapshot()
	if snap["l0"] != 4000 || snap["l1"] != 4000 {
		t.Fatalf("Snapshot = %v, want l0=l1=4000", snap)
	}
}

// TestHistogramBoundedAndAccurate is the contract the production paths
// rely on: once the samples' powers of two have been touched, a million
// observations allocate nothing and leave the heap where it was, and
// every percentile lies within the stated relative error below the
// exact order statistic, never above it.
func TestHistogramBoundedAndAccurate(t *testing.T) {
	const (
		warm = 10_000 // enough to land in every power of two of the nine decades
		n    = warm + 1_000_000
	)
	rng := rand.New(rand.NewPCG(1, 2))
	samples := make([]float64, n)
	for i := range samples {
		// Log-uniform over nine decades, the shape of latency data.
		samples[i] = math.Pow(10, -3+9*rng.Float64())
	}
	var h Histogram
	for _, v := range samples[:warm] {
		h.observe(v)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, v := range samples[warm:] {
		h.observe(v)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Slack for the runtime's own background allocations; the sample-
	// keeping histogram this replaced grew by 8 bytes an observation.
	if d := after.Mallocs - before.Mallocs; d > 64 {
		t.Fatalf("%d observations made %d allocations", n-warm, d)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Fatalf("heap grew %d bytes over %d observations", grew, n-warm)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.observe(1.5) }); allocs != 0 {
		t.Fatalf("observe allocates %.2f/op", allocs)
	}

	var ref Histogram
	for _, v := range samples {
		ref.observe(v)
	}
	sort.Float64s(samples)
	for _, p := range []float64{0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 100} {
		rank := int(math.Ceil(p / 100 * n))
		if rank < 1 {
			rank = 1
		}
		exact, got := samples[rank-1], ref.Percentile(p)
		if got > exact || got < exact*(1-HistogramRelativeError) {
			t.Errorf("p%v = %v, exact %v: outside (-%.1f%%, 0]", p, got, exact, 100*HistogramRelativeError)
		}
	}
	if ref.Percentile(0) != samples[0] || ref.Percentile(100) != samples[n-1] {
		t.Fatalf("Min/Max = %v/%v, want exact %v/%v", ref.Percentile(0), ref.Percentile(100), samples[0], samples[n-1])
	}
}

// TestHistogramOutOfRangeSamples pins the edges of the bucketed range:
// zero, negative and enormous samples are counted and reported as the
// exact extremes.
func TestHistogramOutOfRangeSamples(t *testing.T) {
	var h Histogram
	for _, v := range []float64{-2, 0, 1e-12, 1, 1e15} {
		h.observe(v)
	}
	if h.Count() != 5 || h.Percentile(0) != -2 || h.Percentile(100) != 1e15 {
		t.Fatalf("count/min/max = %d/%v/%v", h.Count(), h.Percentile(0), h.Percentile(100))
	}
	if got := h.Percentile(50); got != -2 { // rank 3 lies in the underflow bucket
		t.Fatalf("p50 = %v, want the minimum", got)
	}
	if got := h.Percentile(80); got != 1 {
		t.Fatalf("p80 = %v, want 1", got)
	}
	if got := h.Percentile(99); got < 1<<40 || got > 1e15 {
		t.Fatalf("p99 = %v, want within [2^40, max]", got)
	}
}
