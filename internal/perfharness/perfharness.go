// Package perfharness is the multicore performance harness behind
// `garnet-bench -perf`: it sweeps {table shards} × {GOMAXPROCS} over the
// hot paths the sharding era restructured — dispatch fan-out, the
// ingest→dispatch pipeline, the store tee and the control submit — plus
// the lock-free delivery ring against its retained mutex-queue twin,
// plus the archive tier's durable retention tee (append → seal → async
// spill → durable commit) and its cold-miss read path — and emits schema-stable BENCH_dispatch.json, BENCH_pipeline.json and
// BENCH_store.json so the perf trajectory of future PRs is measured,
// not asserted.
//
// Numbers are wall-clock and therefore host-dependent; the reports
// record GOMAXPROCS, the host CPU count and the date so a reader can
// tell a 1-core container run (procs > host_cpus: oversubscribed, ring
// vs mutex parity expected) from a real multicore run (the CI multicore
// job is the arbiter for scaling claims). Allocation counts are
// host-independent; Validate enforces the 0-alloc paths.
package perfharness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/garnet-middleware/garnet/internal/dispatch"
	"github.com/garnet-middleware/garnet/internal/filtering"
	"github.com/garnet-middleware/garnet/internal/receiver"
	"github.com/garnet-middleware/garnet/internal/resource"
	"github.com/garnet-middleware/garnet/internal/ring"
	"github.com/garnet-middleware/garnet/internal/store"
	"github.com/garnet-middleware/garnet/internal/store/archive"
	"github.com/garnet-middleware/garnet/internal/wire"
)

// Schema identifies the report layout; bump only with a migration note
// in the README, because re-anchor tooling diffs these files across PRs.
const Schema = "garnet-bench-perf/v1"

// A scenario is one named sweep of the harness. The registry below is
// the single source of truth for the scenario list: Run executes it in
// order, Validate derives the 0-alloc bars from it, and Scenarios
// exposes it to cmd/garnet-bench and the harness tests — which
// previously duplicated the quick/full scenario lists as literals and
// let them drift.
type scenario struct {
	name string
	area string // which BENCH_*.json report the results land in
	// zeroAlloc holds every cell of the scenario to 0 allocs/op.
	zeroAlloc bool
	run       func(o Options, emit func(Result))
}

var registry = []scenario{
	{"dispatch", "dispatch", false, runDispatch},
	{"fanin", "dispatch", false, runFanin},
	{"ring_enqueue_drain", "dispatch", true, runRingEnqueueDrain},
	{"pipeline", "pipeline", false, runPipeline},
	{"store_tee", "pipeline", true, runStoreTee},
	{"control_submit", "pipeline", true, runControlSubmit},
	{"store_archive_spill", "store", true, runStoreArchiveSpill},
	{"store_archive_range", "store", false, runStoreArchiveRange},
}

func scenarioByName(name string) (scenario, bool) {
	for _, sc := range registry {
		if sc.name == name {
			return sc, true
		}
	}
	return scenario{}, false
}

// ScenarioInfo describes one registered scenario.
type ScenarioInfo struct {
	Name      string
	Area      string
	ZeroAlloc bool
}

// Scenarios lists the registered scenarios in execution order. Every
// derived scenario list (the `garnet-bench -perf` listing, the report
// tests) must come from here rather than a hand-maintained literal.
func Scenarios() []ScenarioInfo {
	out := make([]ScenarioInfo, len(registry))
	for i, sc := range registry {
		out[i] = ScenarioInfo{Name: sc.name, Area: sc.area, ZeroAlloc: sc.zeroAlloc}
	}
	return out
}

// AllocTolerance is the allocs/op ceiling for zeroAllocPaths.
const AllocTolerance = 0.05

// Result is one measured cell of a sweep.
type Result struct {
	Path        string  `json:"path"`              // which hot path
	Variant     string  `json:"variant,omitempty"` // e.g. ring vs mutex
	Shards      int     `json:"shards"`
	Procs       int     `json:"procs"` // GOMAXPROCS during the cell
	Publishers  int     `json:"publishers"`
	Msgs        int     `json:"msgs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
}

// Report is one emitted BENCH_*.json document.
type Report struct {
	Schema   string   `json:"schema"`
	Area     string   `json:"area"`
	Date     string   `json:"date"`
	Go       string   `json:"go"`
	HostCPUs int      `json:"host_cpus"`
	Quick    bool     `json:"quick"`
	Results  []Result `json:"results"`
}

// Options configures a harness run.
type Options struct {
	// Quick shrinks the sweep (shards {1,16} × procs {1,4}, fewer
	// messages) for CI smoke jobs.
	Quick bool
	// OutDir receives BENCH_dispatch.json, BENCH_pipeline.json and
	// BENCH_store.json; empty means the current directory.
	OutDir string
	// Scenario, when non-empty, restricts the run to the one named
	// registry scenario — the local-iteration loop. The reports of the
	// other areas are then empty and are not written.
	Scenario string
	// Log, when non-nil, receives one line per measured cell.
	Log func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o Options) shardSweep() []int {
	if o.Quick {
		return []int{1, 16}
	}
	return []int{1, 4, 16}
}

func (o Options) procSweep() []int {
	if o.Quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8}
}

func (o Options) msgs() int {
	if o.Quick {
		return 20_000
	}
	return 200_000
}

// measure runs fn (which must process msgs messages) at the given
// GOMAXPROCS and returns the cell. Allocations are a runtime-global
// Mallocs delta, so concurrent drainer goroutines are inside the
// measurement — exactly what the 0-alloc enforcement wants.
func measure(path, variant string, shards, procs, publishers, msgs int, fn func()) Result {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(msgs)
	return Result{
		Path:        path,
		Variant:     variant,
		Shards:      shards,
		Procs:       procs,
		Publishers:  publishers,
		Msgs:        msgs,
		NsPerOp:     float64(dur.Nanoseconds()) / float64(msgs),
		AllocsPerOp: allocs,
		MsgsPerSec:  float64(msgs) / dur.Seconds(),
	}
}

// fanOut runs publishers goroutines, splitting msgs between them, each
// calling emit(publisher, i) for its share.
func fanOut(publishers, msgs int, emit func(p, i int)) {
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		n := msgs / publishers
		if p < msgs%publishers {
			n++
		}
		wg.Add(1)
		go func(p, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				emit(p, i)
			}
		}(p, n)
	}
	wg.Wait()
}

const publishers = 16

// benchDispatch is the synchronous fan-out path: 16 publishers on
// distinct sensors, one exact no-op subscriber per stream, sweeping the
// subscription-table shard count.
func benchDispatch(shards, procs, msgs int) Result {
	d := dispatch.New(dispatch.Options{Shards: shards})
	streams := make([]wire.StreamID, publishers)
	for i := range streams {
		streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
		if _, err := d.Subscribe(&dispatch.ConsumerFunc{
			ConsumerName: fmt.Sprintf("c%d", i),
			Fn:           func(filtering.Delivery) {},
		}, dispatch.Exact(streams[i])); err != nil {
			panic(err)
		}
	}
	// Warm the stream-advertising maps so the measured window is steady
	// state.
	for p := range streams {
		d.Dispatch(filtering.Delivery{Msg: wire.Message{Stream: streams[p]}})
	}
	return measure("dispatch", "", shards, procs, publishers, msgs, func() {
		fanOut(publishers, msgs, func(p, i int) {
			d.Dispatch(filtering.Delivery{
				Msg: wire.Message{Stream: streams[p], Seq: wire.Seq(i)},
			})
		})
	})
}

// benchFanin is the async many-to-one path the lock-free ring exists
// for: 16 publishers target one shared async consumer, so every enqueue
// lands on the same port. variant selects the ring or the retained
// mutex queue (Options.ForceLockedQueue); the measured window includes
// the drain, so msgs/s is end-to-end enqueue→consume.
func benchFanin(variant string, procs, msgs int) Result {
	d := dispatch.New(dispatch.Options{
		Mode:             dispatch.ModeAsync,
		QueueCapacity:    8192,
		ForceLockedQueue: variant == "mutex",
	})
	var sunk int64 // single drainer goroutine
	if _, err := d.Subscribe(&dispatch.BatchConsumerFunc{
		ConsumerName: "sink",
		Fn:           func(ds []filtering.Delivery) { sunk += int64(len(ds)) },
	}, dispatch.All()); err != nil {
		panic(err)
	}
	d.Start()
	streams := make([]wire.StreamID, publishers)
	for i := range streams {
		streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
		d.Dispatch(filtering.Delivery{Msg: wire.Message{Stream: streams[i]}})
	}
	res := measure("fanin", variant, dispatch.DefaultShards, procs, publishers, msgs, func() {
		fanOut(publishers, msgs, func(p, i int) {
			d.Dispatch(filtering.Delivery{
				Msg: wire.Message{Stream: streams[p], Seq: wire.Seq(i)},
			})
		})
		d.Stop() // waits for the drainer: the cell includes the drain
	})
	return res
}

// benchRingEnqueueDrain is the raw primitive: publishers spin values
// into one ring.Ring while a drainer batch-consumes behind a Waiter.
// This path must stay at 0 allocs/op — Validate enforces it.
func benchRingEnqueueDrain(procs, msgs int) Result {
	r := ring.New[filtering.Delivery](8192)
	w := ring.NewWaiter()
	var drained int
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]filtering.Delivery, 64)
		for drained < msgs {
			n := r.DequeueBatch(buf)
			drained += n
			if n > 0 {
				continue
			}
			w.Prepare()
			if !r.Empty() {
				w.Cancel()
				continue
			}
			w.Wait()
		}
	}()
	del := filtering.Delivery{Msg: wire.Message{Stream: wire.MustStreamID(1, 0)}}
	res := measure("ring_enqueue_drain", "", 1, procs, publishers, msgs, func() {
		fanOut(publishers, msgs, func(p, i int) {
			for !r.TryEnqueue(del) {
				r.TryDequeue() // drop-oldest, so the producer never stalls
			}
			w.Wake()
		})
		// Producers may have dropped entries; top the drainer up so it
		// always reaches msgs and exits.
		for {
			select {
			case <-done:
				return
			default:
				r.TryEnqueue(del)
				w.Wake()
			}
		}
	})
	<-done
	return res
}

// benchPipeline is ingest→dispatch end to end: receptions enter the
// filter (duplicate screening, per-stream state) and accepted
// deliveries fan out through the dispatcher, both tables at the swept
// shard count.
func benchPipeline(shards, procs, msgs int) Result {
	d := dispatch.New(dispatch.Options{Shards: shards})
	streams := make([]wire.StreamID, publishers)
	for i := range streams {
		streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
		if _, err := d.Subscribe(&dispatch.ConsumerFunc{
			ConsumerName: fmt.Sprintf("c%d", i),
			Fn:           func(filtering.Delivery) {},
		}, dispatch.Exact(streams[i])); err != nil {
			panic(err)
		}
	}
	f := filtering.New(d.Dispatch, filtering.Options{Shards: shards})
	for p := range streams {
		f.Ingest(receiver.Reception{Msg: wire.Message{Stream: streams[p], Seq: 0}})
	}
	return measure("pipeline", "", shards, procs, publishers, msgs, func() {
		fanOut(publishers, msgs, func(p, i int) {
			f.Ingest(receiver.Reception{
				Msg: wire.Message{Stream: streams[p], Seq: wire.Seq(i + 1)},
			})
		})
	})
}

// benchStoreTee is the retention tee: every publisher appends to its own
// stream. Steady-state Append is a 0-alloc path — Validate enforces it.
func benchStoreTee(shards, procs, msgs int) Result {
	st := store.New(store.Options{Shards: shards, MaxMessages: 1024})
	streams := make([]wire.StreamID, publishers)
	for i := range streams {
		streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
	}
	// Warm per-stream rings past their growth phase.
	for p := range streams {
		for i := 0; i < 2048; i++ {
			st.Append(filtering.Delivery{
				Msg: wire.Message{Stream: streams[p], Seq: wire.Seq(i)},
			})
		}
	}
	return measure("store_tee", "", shards, procs, publishers, msgs, func() {
		fanOut(publishers, msgs, func(p, i int) {
			st.Append(filtering.Delivery{
				Msg: wire.Message{Stream: streams[p], Seq: wire.Seq(2048 + i)},
			})
		})
	})
}

// benchStoreArchiveSpill is the durable retention tee: every publisher
// appends to its own stream while a 1-byte cold budget pushes every
// sealed block except the newest through the async archiver into an
// in-memory backend, and the closing drain sits inside the measured
// window — the cell is end-to-end append→seal→spill→durable-commit.
// The append path must stay at 0 allocs/op with the archiver enabled —
// Validate enforces it (the amortised seal/spill cost rides inside the
// same AllocTolerance bar).
func benchStoreArchiveSpill(shards, procs, msgs int) Result {
	st := store.New(store.Options{
		Shards: shards, MaxMessages: 1024,
		Codec: "raw", BlockSize: 256, ColdBudget: 1,
		Archive: archive.NewMem(),
	})
	streams := make([]wire.StreamID, publishers)
	for i := range streams {
		streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
	}
	// Warm past the growth phases of every tier: ring spans, the seal
	// buffers, the pending-spill slices and the backend's per-stream
	// state all reach steady capacity before the window opens.
	for p := range streams {
		for i := 0; i < 4096; i++ {
			st.Append(filtering.Delivery{
				Msg: wire.Message{Stream: streams[p], Seq: wire.Seq(i)},
			})
		}
	}
	return measure("store_archive_spill", "", shards, procs, publishers, msgs, func() {
		fanOut(publishers, msgs, func(p, i int) {
			st.Append(filtering.Delivery{
				Msg: wire.Message{Stream: streams[p], Seq: wire.Seq(4096 + i)},
			})
		})
		st.Close() // waits for the archivers: the cell includes the drain
	})
}

// benchStoreArchiveRange is the cold-miss read path: each stream keeps
// a 128-message hot window while the rest of its 4096-message history
// lives in archived blocks, and every publisher-turned-reader replays
// its full archive→cold→hot span through RangeFunc until its share of
// the message budget is consumed. Decode scratch is pooled but the
// path is not held to the 0-alloc bar.
func benchStoreArchiveRange(shards, procs, msgs int) Result {
	st := store.New(store.Options{
		Shards: shards, MaxMessages: 128,
		Codec: "raw", BlockSize: 64, ColdBudget: 1,
		Archive: archive.NewMem(), ArchiveSync: true,
	})
	defer st.Close()
	streams := make([]wire.StreamID, publishers)
	for i := range streams {
		streams[i] = wire.MustStreamID(wire.SensorID(i+1), 0)
		for seq := 0; seq < 4096; seq++ {
			st.Append(filtering.Delivery{
				Msg: wire.Message{Stream: streams[i], Seq: wire.Seq(seq)},
			})
		}
	}
	return measure("store_archive_range", "", shards, procs, publishers, msgs, func() {
		var wg sync.WaitGroup
		for p := 0; p < publishers; p++ {
			n := msgs / publishers
			if p < msgs%publishers {
				n++
			}
			wg.Add(1)
			go func(p, n int) {
				defer wg.Done()
				for n > 0 {
					st.RangeFunc(streams[p], 0, ^uint64(0), func(d filtering.Delivery) bool {
						n--
						return n > 0
					})
				}
			}(p, n)
		}
		wg.Wait()
	})
}

// benchControlSubmit is the return path's approved-no-change fast path:
// consumers re-asserting standing demands. 0 allocs/op — Validate
// enforces it.
func benchControlSubmit(shards, procs, msgs int) Result {
	rm := resource.NewWithOptions(resource.Options{Shards: shards})
	demands := make([]resource.Demand, publishers)
	for i := range demands {
		demands[i] = resource.Demand{
			Consumer: fmt.Sprintf("app%d", i),
			Target:   wire.MustStreamID(wire.SensorID(i+1), 0),
			Op:       wire.OpSetRate, Value: 2000,
		}
		if _, err := rm.Submit(demands[i]); err != nil {
			panic(err)
		}
	}
	return measure("control_submit", "", shards, procs, publishers, msgs, func() {
		fanOut(publishers, msgs, func(p, i int) {
			if _, err := rm.Submit(demands[p]); err != nil {
				panic(err)
			}
		})
	})
}

// Per-scenario sweeps, one wrapper per registry entry.

func runDispatch(o Options, emit func(Result)) {
	for _, shards := range o.shardSweep() {
		for _, procs := range o.procSweep() {
			emit(benchDispatch(shards, procs, o.msgs()))
		}
	}
}

func runFanin(o Options, emit func(Result)) {
	for _, variant := range []string{"ring", "mutex"} {
		for _, procs := range o.procSweep() {
			emit(benchFanin(variant, procs, o.msgs()))
		}
	}
}

func runRingEnqueueDrain(o Options, emit func(Result)) {
	for _, procs := range o.procSweep() {
		emit(benchRingEnqueueDrain(procs, o.msgs()))
	}
}

func runPipeline(o Options, emit func(Result)) {
	for _, shards := range o.shardSweep() {
		for _, procs := range o.procSweep() {
			emit(benchPipeline(shards, procs, o.msgs()))
		}
	}
}

func runStoreTee(o Options, emit func(Result)) {
	for _, shards := range o.shardSweep() {
		for _, procs := range o.procSweep() {
			emit(benchStoreTee(shards, procs, o.msgs()))
		}
	}
}

func runControlSubmit(o Options, emit func(Result)) {
	for _, shards := range o.shardSweep() {
		for _, procs := range o.procSweep() {
			emit(benchControlSubmit(shards, procs, o.msgs()))
		}
	}
}

func runStoreArchiveSpill(o Options, emit func(Result)) {
	for _, shards := range o.shardSweep() {
		for _, procs := range o.procSweep() {
			emit(benchStoreArchiveSpill(shards, procs, o.msgs()))
		}
	}
}

func runStoreArchiveRange(o Options, emit func(Result)) {
	for _, shards := range o.shardSweep() {
		for _, procs := range o.procSweep() {
			emit(benchStoreArchiveRange(shards, procs, o.msgs()))
		}
	}
}

// Run executes every registered scenario in order and returns the
// three reports in BENCH_dispatch.json, BENCH_pipeline.json,
// BENCH_store.json order.
func Run(opts Options) (dispatchReport, pipelineReport, storeReport Report) {
	newReport := func(area string) Report {
		return Report{
			Schema:   Schema,
			Area:     area,
			Date:     time.Now().UTC().Format("2006-01-02"),
			Go:       runtime.Version(),
			HostCPUs: runtime.NumCPU(),
			Quick:    opts.Quick,
		}
	}
	dr := newReport("dispatch")
	pr := newReport("pipeline")
	sr := newReport("store")
	for _, sc := range registry {
		if opts.Scenario != "" && sc.name != opts.Scenario {
			continue
		}
		rep := &dr
		switch sc.area {
		case "pipeline":
			rep = &pr
		case "store":
			rep = &sr
		}
		sc.run(opts, func(res Result) {
			opts.logf("%s: %.0f ns/op, %.2f Mmsg/s, %.3f allocs/op",
				cellKey(res), res.NsPerOp, res.MsgsPerSec/1e6, res.AllocsPerOp)
			rep.Results = append(rep.Results, res)
		})
	}
	return dr, pr, sr
}

// Validate checks a report against the schema and the 0-alloc bars.
func Validate(r Report) error {
	if r.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", r.Schema, Schema)
	}
	if r.Area == "" || r.Date == "" || r.Go == "" || r.HostCPUs <= 0 {
		return fmt.Errorf("missing header fields: %+v", r)
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("report %q has no results", r.Area)
	}
	for _, res := range r.Results {
		if res.Path == "" || res.Shards <= 0 || res.Procs <= 0 || res.Msgs <= 0 {
			return fmt.Errorf("malformed result: %+v", res)
		}
		if res.NsPerOp <= 0 || res.MsgsPerSec <= 0 {
			return fmt.Errorf("non-positive timing in result: %+v", res)
		}
		sc, known := scenarioByName(res.Path)
		if !known {
			return fmt.Errorf("result path %q is not a registered scenario", res.Path)
		}
		if sc.zeroAlloc && res.AllocsPerOp > AllocTolerance {
			return fmt.Errorf("path %s (shards=%d procs=%d) allocates %.3f/op, bar is %.2f",
				res.Path, res.Shards, res.Procs, res.AllocsPerOp, AllocTolerance)
		}
	}
	return nil
}

// Delta is one matched cell of Compare: msgs/s for the same scenario
// cell in a baseline report and a fresh run.
type Delta struct {
	Key      string  // "path[/variant] shards=S procs=P"
	Baseline float64 // baseline msgs/s
	Current  float64 // fresh msgs/s
	Pct      float64 // 100 * (Current - Baseline) / Baseline
}

func cellKey(res Result) string {
	key := res.Path
	if res.Variant != "" {
		key += "/" + res.Variant
	}
	return key + fmt.Sprintf(" shards=%d procs=%d", res.Shards, res.Procs)
}

// Compare matches every cell of current against baseline by scenario
// key and reports the msgs/s delta for cells present in both, in
// current-report order. Cells only one side has (new scenarios,
// changed sweeps) are skipped, so a baseline committed by an older
// revision stays usable. Message counts are deliberately not part of
// the key: comparing a -quick run against a full baseline is allowed,
// the deltas are just noisier.
func Compare(baseline, current Report) []Delta {
	base := make(map[string]Result, len(baseline.Results))
	for _, res := range baseline.Results {
		base[cellKey(res)] = res
	}
	var out []Delta
	for _, res := range current.Results {
		b, ok := base[cellKey(res)]
		if !ok || b.MsgsPerSec <= 0 {
			continue
		}
		out = append(out, Delta{
			Key:      cellKey(res),
			Baseline: b.MsgsPerSec,
			Current:  res.MsgsPerSec,
			Pct:      100 * (res.MsgsPerSec - b.MsgsPerSec) / b.MsgsPerSec,
		})
	}
	return out
}

// WriteReports runs the sweep, validates the resulting reports and
// writes BENCH_dispatch.json, BENCH_pipeline.json and BENCH_store.json
// into opts.OutDir, returning the three file paths. With
// Options.Scenario set, the areas the scenario does not feed produce no
// results; those reports are skipped (their returned paths are empty)
// rather than overwriting a committed full report with an empty one.
func WriteReports(opts Options) (dispatchPath, pipelinePath, storePath string, err error) {
	if opts.Scenario != "" {
		if _, ok := scenarioByName(opts.Scenario); !ok {
			var names []string
			for _, sc := range registry {
				names = append(names, sc.name)
			}
			return "", "", "", fmt.Errorf("unknown scenario %q (have %v)", opts.Scenario, names)
		}
	}
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return "", "", "", err
		}
	}
	dr, pr, sr := Run(opts)
	write := func(name string, r Report) (string, error) {
		if opts.Scenario != "" && len(r.Results) == 0 {
			return "", nil
		}
		if err := Validate(r); err != nil {
			return "", fmt.Errorf("%s report invalid: %w", r.Area, err)
		}
		path := filepath.Join(opts.OutDir, name)
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return "", err
		}
		return path, os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if dispatchPath, err = write("BENCH_dispatch.json", dr); err != nil {
		return "", "", "", err
	}
	if pipelinePath, err = write("BENCH_pipeline.json", pr); err != nil {
		return "", "", "", err
	}
	if storePath, err = write("BENCH_store.json", sr); err != nil {
		return "", "", "", err
	}
	return dispatchPath, pipelinePath, storePath, nil
}
