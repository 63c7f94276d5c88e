package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/garnet-middleware/garnet"
)

// scale is every size the workloads use. Sizes are fixed: the seed changes
// positions, stream choices and the script, never how much work a run is.
type scale struct {
	fieldSensors  int
	fanoutStreams int
	censusSensors int
	censusActive  int
	histStreams   int
	histPreload   int // messages per stream written during set-up
	actSensors    int
	warmup        int // samples of fixed-count warm-up, part of set-up
	// window is each uplink workload's deep-phase window: samples in flight
	// in the closed loop. field_uplink's stays below its sensor count, so a
	// sensor never has two samples on the air at once.
	window map[string]int
	setups int // set-ups per end-to-end run; setup_s is their median
	// chainOps is how many operations of the script each chain pass
	// replays; allocOps is the same for the allocation pass, where every
	// span boundary stops the world to read an exact object count.
	chainOps map[string]int
	allocOps map[string]int
}

var fullScale = scale{
	fieldSensors: 2048, fanoutStreams: 64,
	censusSensors: 200000, censusActive: 16384,
	histStreams: 256, histPreload: 4096,
	actSensors: 256, warmup: 16384, setups: 3,
	window:   map[string]int{"field_uplink": 256, "fixednet_fanout": 256, "fixednet_census": 1024},
	chainOps: map[string]int{"field_uplink": 100000, "fixednet_fanout": 200000, "fixednet_census": 200000, "history_replay": 2048, "actuation_loop": 5000},
	allocOps: map[string]int{"field_uplink": 1024, "fixednet_fanout": 2048, "fixednet_census": 2048, "history_replay": 32, "actuation_loop": 32},
}

var smokeScale = scale{
	fieldSensors: 128, fanoutStreams: 16,
	censusSensors: 2000, censusActive: 256,
	histStreams: 16, histPreload: 640,
	actSensors: 32, warmup: 512, setups: 1,
	window:   map[string]int{"field_uplink": 32, "fixednet_fanout": 64, "fixednet_census": 128},
	chainOps: map[string]int{"field_uplink": 2000, "fixednet_fanout": 4000, "fixednet_census": 4000, "history_replay": 48, "actuation_loop": 200},
	allocOps: map[string]int{"field_uplink": 64, "fixednet_fanout": 128, "fixednet_census": 128, "history_replay": 16, "actuation_loop": 32},
}

// runConfig is one invocation's input.
type runConfig struct {
	seed    uint64
	seconds float64
	sc      scale
	out     string // directory for trace files and temporary archives
}

func (c runConfig) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes are facts about the run that are not metrics: sample counts
	// behind the percentiles, the script hash, checker complaints.
	Notes map[string]string `json:"notes,omitempty"`
}

func newResult(workload string, trace bool) *result {
	return &result{Workload: workload, Trace: trace, Correct: true,
		Metrics: make(map[string]float64), Notes: make(map[string]string)}
}

// complain records a checker failure.
func (r *result) complain(format string, args ...any) {
	r.Correct = false
	r.Notes[fmt.Sprintf("check.%d", len(r.Notes))] = fmt.Sprintf(format, args...)
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	why  string
	// e2e runs the real facade with tracing off and fills the end-to-end
	// metrics; traced fills the per-layer ones.
	e2e    func(cfg runConfig, r *result) error
	traced func(cfg runConfig, r *result) error
	// hash digests the workload's seeded inputs.
	hash func(seed uint64, sc scale) string
}

var workloads = []workload{
	{
		name: "field_uplink",
		why:  "whole simulated field on the real clock: sensor, radio, receiver, location and duplicate-dropping dominate; store and dispatch changes should not move it",
		e2e:  uplinkE2E(newFieldUplink), traced: uplinkTraced(newFieldUplink),
		hash: uplinkHash(newFieldUplink),
	},
	{
		name: "fixednet_fanout",
		why:  "injected receptions, 64 in-order streams, 16 consumers of all four pattern kinds, 9 deliveries per sample: dispatch dominates and the working set fits in cache",
		e2e:  uplinkE2E(newFanout), traced: uplinkTraced(newFanout),
		hash: uplinkHash(newFanout),
	},
	{
		name: "fixednet_census",
		why:  "200000-sensor census with 16384 active streams, duplicate copies, swaps and gaps, one consumer: per-stream state in filter, store and dispatch falls out of cache",
		e2e:  uplinkE2E(newCensus), traced: uplinkTraced(newCensus),
		hash: uplinkHash(newCensus),
	},
	{
		name: "history_replay",
		why:  "range replay, late joiners and latest-value reads beside live writes over a mostly archived history: the only workload where a store read/write trade-off shows",
		e2e:  historyE2E, traced: historyTraced,
		hash: func(seed uint64, sc scale) string {
			h := sha256.New()
			newHistScript(seed, sc).digest(h, 64)
			return hex.EncodeToString(h.Sum(nil))
		},
	},
	{
		name: "actuation_loop",
		why:  "demand to acknowledged actuation on a virtual clock: the return path through registry, resource manager, actuation, replicator, transmitters, downlink and sensor",
		e2e:  actuationE2E, traced: actuationTraced,
		hash: func(seed uint64, sc scale) string {
			h := sha256.New()
			newActScript(seed, sc).digest(h, 4096)
			return hex.EncodeToString(h.Sum(nil))
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func newFieldUplink(seed uint64, sc scale) uplinkScript { return newFieldScript(seed, sc) }
func newFanout(seed uint64, sc scale) uplinkScript      { return newFanoutScript(seed, sc) }
func newCensus(seed uint64, sc scale) uplinkScript      { return newCensusScript(seed, sc) }

func uplinkHash(mk func(uint64, scale) uplinkScript) func(uint64, scale) string {
	return func(seed uint64, sc scale) string {
		s := mk(seed, sc)
		h := sha256.New()
		s.digest(h)
		for i := 0; i < s.preload()+4096; i++ {
			spec, expect, _ := s.next()
			writeSpec(h, spec)
			fmt.Fprintf(h, "%x;", expect)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
}

// timedSetups sets the workload up several times — at least sc.setups, and
// for short set-ups as many as fit in setupBudget, up to maxSetups —
// discarding all but the last. It returns the last, to measure on, and the
// median set-up time, which is setup_s. A short set-up is mostly a warm-up
// of a few tens of milliseconds, which one burst of interference on a shared
// host stretches by half; the median of many is what repeats.
func timedSetups[T any](sc scale, build func() (T, error), discard func(T)) (last T, seconds float64, err error) {
	var took []float64
	var total float64
	for len(took) < sc.setups || (sc.setups > 1 && total < setupBudget && len(took) < maxSetups) {
		if len(took) > 0 {
			discard(last)
			runtime.GC()
		}
		t0 := time.Now()
		if last, err = build(); err != nil {
			return last, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		total += took[len(took)-1]
	}
	return last, median(took), nil
}

const (
	setupBudget = 1.5 // seconds
	maxSetups   = 31
)

// liveHeapMB is the heap still reachable after two collections (the second
// frees what the first one's finalizers and pools released). It is read
// when set-up ends: the deployment is populated and warm, and what it holds
// is a function of the seed and the sizes alone. Under load the store's
// rings keep growing towards their bound, so a reading after a timed phase
// would depend on how far the phase got.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setLatency fills the latency metrics from per-operation timings: the
// gated median on an end-to-end run, the ungated p99 on a traced run's
// facade pass. p99 needs ten samples beyond it to mean anything; with fewer
// it is left out (0, and a note saying why) rather than reported as a
// percentile of noise.
func setLatency(r *result, timings []int64) {
	const need = 1000
	sorted := sortedCopy(timings)
	r.Notes["latency_samples"] = fmt.Sprint(len(timings))
	p99 := rankUs(sorted, 99)
	if len(timings) < need {
		p99 = 0
		r.Notes["latency_p99_us"] = fmt.Sprintf("left out: p99 needs %d samples", need)
	} else if !r.Trace {
		r.Notes["latency_p99_us"] = fmt.Sprintf("%.3f", p99)
	}
	if r.Trace {
		r.Metrics["e2e.latency_p99_us"] = p99
	} else {
		r.Metrics["latency_p50_us"] = rankUs(sorted, 50)
	}
}

// checkUplink is the output checker for the uplink workloads, run after
// the system has stopped.
func checkUplink(r *result, run *uplinkRun, st garnet.Snapshot, phases ...phase) {
	sent := int64(run.nextID - 1)
	r.Attempted += sent
	for _, ph := range phases {
		r.Failed += int64(ph.missing)
	}
	if n := run.trk.strays.Load(); n != 0 {
		r.Failed += n
		r.complain("%d deliveries were repeats, unknown samples or to an unmatched consumer", n)
	}
	var inversions, consumed int64
	for _, c := range run.cons {
		inversions += c.inversions
		consumed += c.count
	}
	// The fixed-network scripts are injected by one goroutine, so per
	// consumer and stream StoreSeq steps back only for a scripted swap: never
	// on the in-order fan-out, exactly once per swap on the census. On the
	// field the runtime's timers hand frames to receivers on many
	// goroutines, and a straggler can be overtaken by its sensor's next
	// sample (see the README); there the count is a note, not a check.
	f := st.Filter
	switch c := run.sc.(type) {
	case *fieldScript:
		r.Notes["overtaken"] = fmt.Sprintf("%d of %d deliveries arrived after a later one of their stream", inversions, consumed)
	case *censusScript:
		if want := c.swaps - int64(len(c.pending)); f.GapsRecovered != want || inversions != want {
			r.complain("script swapped %d pairs, filter recovered %d gaps, consumer saw %d inversions", want, f.GapsRecovered, inversions)
		}
	default:
		if inversions != 0 {
			r.complain("per-consumer StoreSeq order: %d inversions on in-order streams", inversions)
		}
	}
	if f.Received != f.Delivered+f.Duplicates+f.Stale {
		r.complain("filter books: received %d != delivered %d + duplicates %d + stale %d", f.Received, f.Delivered, f.Duplicates, f.Stale)
	}
	if f.Delivered != sent-r.Failed {
		r.complain("filter delivered %d unique messages, generator sent %d", f.Delivered, sent)
	}
	d := st.Dispatch
	if d.Dropped != 0 || d.Orphaned != 0 {
		r.Failed += d.Dropped + d.Orphaned
		r.complain("dispatch dropped %d and orphaned %d", d.Dropped, d.Orphaned)
	}
	if want := sent * int64(run.matches); d.Delivered+d.Dropped != want || consumed != d.Delivered {
		r.complain("dispatch delivered %d + dropped %d of %d expected deliveries, consumers saw %d", d.Delivered, d.Dropped, want, consumed)
	}
	if st.Store.ArchiveFailed != 0 {
		r.complain("store lost %d deliveries to archive errors", st.Store.ArchiveFailed)
	}
	if r.Failed != 0 {
		r.Correct = false
	}
}

// uplinkE2E is the end-to-end run of an uplink workload: the facade on the
// real clock, a deep closed-loop phase for throughput and CPU, then an
// unloaded one (window 1) for latency.
func uplinkE2E(mk func(uint64, scale) uplinkScript) func(runConfig, *result) error {
	return func(cfg runConfig, r *result) error {
		window := cfg.sc.window[r.Workload]
		run, setup, err := timedSetups(cfg.sc, func() (*uplinkRun, error) {
			script := mk(cfg.seed, cfg.sc)
			return newUplinkRun(script, newFacade(nil, script.options()...), window, cfg.sc.warmup)
		}, func(run *uplinkRun) { run.sys.stop() })
		if err != nil {
			return err
		}
		r.Metrics["live_heap_mb"] = liveHeapMB()
		deep := run.run(runSpec{window: window, dur: cfg.dur(0.6)})
		unloaded := run.run(runSpec{window: 1, dur: cfg.dur(0.4), record: true})
		st := run.sys.stats()
		run.sys.stop()

		r.Metrics["setup_s"] = setup
		r.Metrics["ops_per_s"] = deep.opsPerSec()
		r.Metrics["cpu_us_per_op"] = deep.cpuUsPerOp()
		setLatency(r, unloaded.lat)
		r.Notes["deep_ops"] = fmt.Sprint(deep.ops)
		checkUplink(r, run, st, deep, unloaded)
		return nil
	}
}

// traceEvery is the share of samples a traced uplink pass records: one in
// this many.
const traceEvery = 8

// uplinkChainPass replays the first ops operations of the script through a
// fresh chain, stops it, and holds the chain's books to the same check as
// the deployment's. tr is nil for the untraced pass.
func uplinkChainPass(cfg runConfig, r *result, mk func(uint64, scale) uplinkScript, ops int, tr *tracer) (phase, error) {
	script := mk(cfg.seed, cfg.sc)
	window := cfg.sc.window[r.Workload]
	run, err := newUplinkRun(script, newChain(tr, script.options()...), window, cfg.sc.warmup)
	if err != nil {
		return phase{}, err
	}
	run.recordWait = true
	ph := run.run(runSpec{window: window, maxOps: ops, record: true, traceEvery: traceEvery})
	tr.enable(false)
	run.sys.stop()
	checkUplink(r, run, run.sys.stats(), ph)
	return ph, nil
}

// uplinkTraced is the traced run of an uplink workload. A short facade
// pass gives the ratios the layers' own counters hold; three chain passes
// over the same script give the timings (traced), the tracing overhead
// (untraced) and the allocations (alloc mode).
func uplinkTraced(mk func(uint64, scale) uplinkScript) func(runConfig, *result) error {
	return func(cfg runConfig, r *result) error {
		name := r.Workload
		window := cfg.sc.window[name]
		// Facade pass.
		script := mk(cfg.seed, cfg.sc)
		run, err := newUplinkRun(script, newFacade(nil, script.options()...), window, cfg.sc.warmup)
		if err != nil {
			return err
		}
		heap := liveHeapMB() // at the end of set-up, as live_heap_mb is
		run.sampleInject, run.injectNs = true, newSamples(1<<18)
		deep := run.run(runSpec{window: window, dur: cfg.dur(0.3), record: true})
		unloaded := run.run(runSpec{window: 1, dur: cfg.dur(0.2), record: true})
		setLatency(r, unloaded.lat)
		phases := []phase{deep, unloaded}
		if name == "field_uplink" {
			paced := run.run(runSpec{window: 1 << 15, dur: cfg.dur(0.2), rate: 40000, record: true})
			phases = append(phases, paced)
			r.Metrics["paced.p50_us"] = percentileUs(paced.lat, 50)
			r.Metrics["paced.p99_us"] = percentileUs(paced.lat, 99)
			r.Metrics["paced.gen_late_max_us"] = float64(paced.genLateMax) / 1e3
			r.Notes["paced_samples"] = fmt.Sprint(len(paced.lat))
			r.Metrics["radio.air_p50_us"] = percentileUs(deep.air, 50)
		}
		st := run.sys.stats()
		air := run.sys.air()
		bcast, deliv := air.Broadcasts.Value(), air.Deliveries.Value()
		run.sys.stop()
		checkUplink(r, run, st, phases...)

		ratioMetrics(r, st)
		if bcast > 0 {
			r.Metrics["radio.copies_per_sample"] = float64(deliv) / float64(bcast)
			r.Metrics["receiver.corrupt_ratio"] = 1 - float64(st.Filter.Received)/float64(deliv)
		}
		r.Metrics["process.allocs_per_sample"] = float64(deep.mallocs) / float64(max(deep.ops, 1))
		r.Metrics["process.gc_cpu_frac"] = deep.gcCPU / deep.cpu.Seconds()
		if name == "fixednet_census" {
			r.Metrics["process.heap_bytes_per_stream"] = heap * (1 << 20) / float64(st.Store.Streams)
		}
		inject := sortedCopy(run.injectNs.values())
		r.Metrics["core.inject_ns"] = meanBelowP99(inject)
		r.Notes["inject_samples"] = fmt.Sprint(len(inject))

		ct, err := chainPasses(cfg, r, 16/traceEvery, func(ops int, tr *tracer) (phase, error) {
			return uplinkChainPass(cfg, r, mk, ops, tr)
		})
		if err != nil {
			return err
		}
		r.Metrics["dispatch.port_wait_p50_us"] = percentileUs(ct.traced.wait, 50)
		if name != "field_uplink" {
			// Both sides drop their top percent: a preempted call would
			// otherwise decide either mean.
			sum := meanBelowP99(ct.tr.injectSums(ct.in, ct.out))
			r.Notes["traced_inject_ns"] = fmt.Sprintf("%.1f", sum)
			if whole := r.Metrics["core.inject_ns"]; whole > 0 {
				r.Metrics["core.sum_gap_frac"] = math.Abs(whole-sum) / whole
			}
		}
		return nil
	}
}

// chainTrace is what chainPasses hands back for a workload's own metrics.
type chainTrace struct {
	traced  phase
	tr      *tracer
	agg     [spanNames]layerCost
	in, out float64 // calibrated recording cost, see calibrate
}

// chainPasses replays the head of the script through three fresh chains —
// untraced, traced, and a shorter one in alloc mode — and fills what every
// traced run takes from them: the per-layer timings and allocations,
// trace.overhead_frac and the trace file. pass runs one chain over the
// first ops operations, holding its books to the workload's check;
// spansPerOp sizes the span buffers.
func chainPasses(cfg runConfig, r *result, spansPerOp int, pass func(ops int, tr *tracer) (phase, error)) (chainTrace, error) {
	ops, allocOps := cfg.sc.chainOps[r.Workload], cfg.sc.allocOps[r.Workload]
	plain, err := pass(ops, nil)
	if err != nil {
		return chainTrace{}, err
	}
	ct := chainTrace{tr: newTracer(ops*spansPerOp, false)}
	if ct.traced, err = pass(ops, ct.tr); err != nil {
		return ct, err
	}
	atr := newTracer(allocOps*spansPerOp, true)
	if _, err := pass(allocOps, atr); err != nil {
		return ct, err
	}
	ct.in, ct.out = calibrate()
	ct.agg = ct.tr.aggregate(ct.in, ct.out)
	allocs := atr.aggregate(0, 0)
	layerMetrics(r, ct.agg, allocs)
	r.Metrics["trace.overhead_frac"] = (ct.traced.wall.Seconds()/float64(ct.traced.ops))/(plain.wall.Seconds()/float64(plain.ops)) - 1
	return ct, writeTrace(cfg, r, ops, ct.in, ct.out, ct.tr, ct.agg, allocs)
}

// meanBelowP99 is the mean of sorted timings without the top percent, which
// a handful of preempted calls would otherwise decide.
func meanBelowP99(sorted []int64) float64 {
	n := len(sorted) * 99 / 100
	if n == 0 {
		return 0
	}
	var sum int64
	for _, v := range sorted[:n] {
		sum += v
	}
	return float64(sum) / float64(n)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ratioMetrics fills the per-layer ratios the layers' public Stats hold.
func ratioMetrics(r *result, st garnet.Snapshot) {
	f, s, d := st.Filter, st.Store, st.Dispatch
	r.Metrics["filtering.dup_ratio"] = ratio(f.Duplicates, f.Received)
	r.Metrics["filtering.stale_ratio"] = ratio(f.Stale, f.Received)
	r.Metrics["filtering.gap_recovered_ratio"] = ratio(f.GapsRecovered, f.Gaps)
	r.Metrics["store.sealed_per_append"] = ratio(s.SealedMessages, s.Appended)
	r.Metrics["store.compress_ratio"] = ratio(s.ArchivedRawBytes, s.ArchivedBytes)
	r.Metrics["store.sync_spill_ratio"] = ratio(s.ArchiveSyncSpills, s.ArchivedBlocks+s.ArchivePendingBlocks)
	r.Metrics["store.archive_write_p50_ms"] = s.ArchiveWriteP50Ms
	r.Metrics["store.archive_read_p50_ms"] = s.ArchiveReadP50Ms
	r.Metrics["dispatch.deliveries_per_sample"] = ratio(d.Delivered, d.Dispatched)
	r.Metrics["dispatch.drop_ratio"] = ratio(d.Dropped, d.Delivered+d.Dropped)
	r.Metrics["dispatch.orphan_ratio"] = ratio(d.Orphaned, d.Dispatched)
	a, rep := st.Actuation, st.Replicator
	r.Metrics["actuation.retry_ratio"] = ratio(a.Retries, a.Issued)
	r.Metrics["replicator.targeted_ratio"] = ratio(rep.Targeted, rep.Requests)
	r.Metrics["replicator.tx_per_request"] = ratio(rep.Broadcasts, rep.Requests)
}

// layerMetrics fills the per-layer timings and allocations from the traced
// and alloc-mode passes.
func layerMetrics(r *result, agg, allocs [spanNames]layerCost) {
	for n, metric := range map[spanName]string{
		spWireEncode: "wire.encode_ns", spWireDecode: "wire.decode_ns",
		spSensorSample: "sensor.sample_ns", spSensorDownlink: "sensor.downlink_ns",
		spReceiverFrame: "receiver.frame_ns", spLocationObserve: "location.observe_ns",
		spFilterIngest: "filtering.ingest_ns", spStoreAppend: "store.append_ns",
		spStoreLatest: "store.latest_ns", spDispatch: "dispatch.dispatch_ns",
		spRegistryRequire: "registry.require_ns", spResourceSubmit: "resource.submit_ns",
		spActuationIssue: "actuation.issue_ns", spActuationHandleAck: "actuation.handle_ack_ns",
		spReplicatorSend: "replicator.send_ns", spTransmitBroadcast: "transmit.broadcast_ns",
	} {
		r.Metrics[metric] = agg[n].perCall()
	}
	r.Metrics["filtering.ingest_allocs"] = allocs[spFilterIngest].perCall()
	r.Metrics["store.append_allocs"] = allocs[spStoreAppend].perCall()
	r.Metrics["dispatch.dispatch_allocs"] = allocs[spDispatch].perCall()
}

func writeTrace(cfg runConfig, r *result, ops int, in, out float64, tr *tracer, agg, allocs [spanNames]layerCost) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	name := r.Workload
	spans, traces := tr.firstSpans()
	r.Notes["trace_file"] = filepath.Join(cfg.out, "trace-"+name+".json")
	return writeTraceFile(r.Notes["trace_file"], traceFile{
		Workload: name, Seed: cfg.seed, Ops: ops, CalibrationNs: [2]float64{in, out},
		Layers: layerMap(agg), Allocs: layerMap(allocs), SpanTraces: traces, Spans: spans,
	})
}

// historyE2E is the end-to-end run of history_replay: one phase of the
// fixed cycle mix. The generator is serial, so there is no separate
// unloaded phase: the latency is that of the late joiners inside the mix.
func historyE2E(cfg runConfig, r *result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	h, setup, err := timedSetups(cfg.sc, func() (*historyRun, error) {
		return newHistoryRun(cfg.seed, cfg.sc, cfg.out, func(o ...garnet.Option) system { return newFacade(nil, o...) })
	}, (*historyRun).close)
	if err != nil {
		return err
	}
	defer h.close()
	r.Metrics["live_heap_mb"] = liveHeapMB()
	ph, joins := h.runFor(cfg.dur(1), 0)
	r.Metrics["setup_s"] = setup
	r.Metrics["ops_per_s"] = ph.opsPerSec()
	r.Metrics["cpu_us_per_op"] = ph.cpuUsPerOp()
	setLatency(r, joins)
	r.Notes["cycles"] = fmt.Sprint(h.cycle)
	h.check(r)
	return nil
}

// runFor runs cycles for d, or exactly n cycles when n > 0, and returns the
// join latencies. The phase's operations are the history messages the reads
// delivered.
func (h *historyRun) runFor(d time.Duration, n int) (phase, []int64) {
	var ph phase
	joins := newSamples(1 << 16)
	before := h.histMsgs
	m := startMeter()
	for c := 0; (n > 0 && c < n) || (n == 0 && time.Since(m.start) < d); c++ {
		if j := h.runCycle(); j > 0 {
			joins.add(int64(j))
		}
	}
	ph.missing = h.drain()
	m.stop(&ph)
	ph.ops = h.histMsgs - before
	return ph, joins.values()
}

// check is history_replay's output checker.
func (h *historyRun) check(r *result) {
	var sent int64
	for _, n := range h.sent {
		sent += int64(n)
	}
	r.Attempted += h.attempted + sent
	r.Failed += h.failed + h.live.bad.Load() + (sent - h.live.count.Load())
	st := h.sys.stats()
	if st.Store.ArchiveFailed != 0 || st.Dispatch.Dropped != 0 {
		r.Failed += st.Store.ArchiveFailed + st.Dispatch.Dropped
		r.complain("store lost %d to archive errors, dispatch dropped %d", st.Store.ArchiveFailed, st.Dispatch.Dropped)
	}
	if f := st.Filter; f.Received != f.Delivered+f.Duplicates+f.Stale || f.Delivered != sent {
		r.complain("filter books: received %d, delivered %d, duplicates %d, stale %d, generator sent %d", f.Received, f.Delivered, f.Duplicates, f.Stale, sent)
	}
	if r.Failed != 0 {
		r.complain("%d of %d reads, joins and live deliveries failed their checks", r.Failed, r.Attempted)
	}
}

// historyChainPass replays the first cycles of the script through a fresh
// chain, holds the chain's books to the same check as the deployment's and
// closes it.
func historyChainPass(cfg runConfig, r *result, cycles int, tr *tracer) (phase, error) {
	h, err := newHistoryRun(cfg.seed, cfg.sc, cfg.out, func(o ...garnet.Option) system { return newChain(tr, o...) })
	if err != nil {
		return phase{}, err
	}
	defer h.close()
	tr.enable(true)
	ph, _ := h.runFor(0, cycles)
	tr.enable(false)
	h.check(r)
	return ph, nil
}

func historyTraced(cfg runConfig, r *result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	h, err := newHistoryRun(cfg.seed, cfg.sc, cfg.out, func(o ...garnet.Option) system { return newFacade(nil, o...) })
	if err != nil {
		return err
	}
	before := h.sys.stats().Store.ArchiveReadMessages
	// The whole of --seconds, as the end-to-end run: late joiners are one
	// cycle in 16, and half the time leaves the p99 short of its 1000.
	ph, joins := h.runFor(cfg.dur(1), 0)
	setLatency(r, joins)
	st := h.sys.stats()
	h.check(r)
	h.close()
	ratioMetrics(r, st)
	r.Metrics["store.archive_read_amp"] = ratio(st.Store.ArchiveReadMessages-before, h.histMsgs)
	r.Metrics["process.allocs_per_sample"] = float64(ph.mallocs) / float64(max(ph.ops, 1))
	r.Metrics["process.gc_cpu_frac"] = ph.gcCPU / ph.cpu.Seconds()

	ct, err := chainPasses(cfg, r, 400, func(cycles int, tr *tracer) (phase, error) {
		return historyChainPass(cfg, r, cycles, tr)
	})
	if err != nil {
		return err
	}
	// Range and join are per message returned, not per call; the pass's ops
	// are the messages both returned.
	ranged := ct.agg[spStoreRange].Calls * histReplayLen
	r.Metrics["store.range_ns_per_msg"] = ct.agg[spStoreRange].Self / float64(max(ranged, 1))
	r.Metrics["store.join_ns_per_msg"] = ct.agg[spStoreJoin].Self / float64(max(ct.traced.ops-ranged, 1))
	return nil
}

// actuationE2E is the end-to-end run of actuation_loop on the facade with
// a virtual clock: single-threaded and deterministic, so ops/s is a pure
// CPU-cost measure and each op's wall time is its latency.
func actuationE2E(cfg runConfig, r *result) error {
	a, setup, err := timedSetups(cfg.sc, func() (*actuationRun, error) {
		return newActuationRun(cfg.seed, cfg.sc, newFacade(garnet.NewVirtualClock(chainEpoch)))
	}, func(a *actuationRun) { a.sys.stop() })
	if err != nil {
		return err
	}
	r.Metrics["live_heap_mb"] = liveHeapMB()
	ph, lat := a.runFor(cfg.dur(1), 0)
	r.Metrics["setup_s"] = setup
	r.Metrics["ops_per_s"] = ph.opsPerSec()
	r.Metrics["cpu_us_per_op"] = ph.cpuUsPerOp()
	setLatency(r, lat)
	a.finish(r)
	return nil
}

func (a *actuationRun) runFor(d time.Duration, n int) (phase, []int64) {
	var ph phase
	lat := newSamples(1 << 20)
	before := a.attempted - a.failed
	m := startMeter()
	last := m.start
	for c := 0; (n > 0 && c < n) || (n == 0 && last.Sub(m.start) < d); c++ {
		a.runOp()
		now := time.Now()
		lat.add(int64(now.Sub(last)))
		last = now
	}
	m.stop(&ph)
	ph.ops = a.attempted - a.failed - before
	return ph, lat.values()
}

// finish stops the system and runs the checker.
func (a *actuationRun) finish(r *result) {
	bad := a.check()
	a.sys.stop()
	r.Attempted += a.attempted
	r.Failed += a.failed
	for _, b := range bad {
		r.complain("%s", b)
	}
	if a.failed != 0 {
		r.complain("%d of %d demands were not acknowledged within their two clock steps", a.failed, a.attempted)
	}
}

func actuationTraced(cfg runConfig, r *result) error {
	a, err := newActuationRun(cfg.seed, cfg.sc, newFacade(garnet.NewVirtualClock(chainEpoch)))
	if err != nil {
		return err
	}
	ph, lat := a.runFor(cfg.dur(0.5), 0)
	setLatency(r, lat)
	st := a.sys.stats()
	air := a.sys.air()
	ratioMetrics(r, st)
	r.Metrics["resource.changed_ratio"] = ratio(a.changed, st.Resource.Submitted)
	r.Metrics["radio.copies_per_sample"] = ratio(air.Deliveries.Value(), air.Broadcasts.Value())
	r.Metrics["process.allocs_per_sample"] = float64(ph.mallocs) / float64(max(ph.ops, 1))
	r.Metrics["process.gc_cpu_frac"] = ph.gcCPU / ph.cpu.Seconds()
	a.finish(r)

	_, err = chainPasses(cfg, r, 64, func(n int, tr *tracer) (phase, error) {
		c, err := newActuationRun(cfg.seed, cfg.sc, newChain(tr))
		if err != nil {
			return phase{}, err
		}
		tr.enable(true)
		ph, _ := c.runFor(0, n)
		tr.enable(false)
		c.finish(r)
		return ph, nil
	})
	return err
}
