package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/garnet-middleware/garnet"
)

func smokeConfig(t *testing.T, seed uint64) runConfig {
	return runConfig{seed: seed, seconds: 0.4, sc: smokeScale, out: t.TempDir()}
}

// TestSmoke runs every workload, untraced and traced, at smoke size: every
// named metric must come out finite and with its unit, and no operation
// may fail.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(smokeConfig(t, 7), w, trace)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.name, trace, r.Correct, r.Attempted, r.Failed, r.Notes)
			}
			line, err := r.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatalf("%s: contract line does not parse: %v", w.name, err)
			}
			if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
				t.Errorf("%s: contract line lacks a key: %s", w.name, line)
			}
			defs := metricsFor(trace)
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d defined", w.name, trace, len(out.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.name, m.Name)
				case v.Unit != m.Unit || v.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, m.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, m.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(r.Notes["trace_file"]); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// TestScriptHash: the same seed gives byte-identical inputs, another seed
// gives others.
func TestScriptHash(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.hash(1, smokeScale), w.hash(1, smokeScale), w.hash(2, smokeScale)
		if a != b {
			t.Errorf("%s: same seed hashed to %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 hashed alike", w.name)
		}
	}
}

// comparableStats strips from a snapshot what legitimately differs between
// two runs of one script: backend latencies, how the async archiver's queue
// happened to fill, and with it whether a read found a block already in the
// archive or still on its way there.
func comparableStats(s garnet.Snapshot) garnet.Snapshot {
	s.Store.ArchiveWriteP50Ms, s.Store.ArchiveWriteP99Ms = 0, 0
	s.Store.ArchiveReadP50Ms, s.Store.ArchiveReadP99Ms = 0, 0
	s.Store.ArchiveSyncSpills, s.Store.ArchiveQueueDepth = 0, 0
	s.Store.ArchiveReadMessages = 0
	if len(s.Dispatch.DroppedByConsumer) == 0 {
		s.Dispatch.DroppedByConsumer = nil
	}
	return s
}

func diffStats(t *testing.T, name string, real, chain garnet.Snapshot) {
	t.Helper()
	real, chain = comparableStats(real), comparableStats(chain)
	for _, layer := range []struct {
		name string
		a, b any
	}{
		{"filtering", real.Filter, chain.Filter},
		{"store", real.Store, chain.Store},
		{"dispatch", real.Dispatch, chain.Dispatch},
		{"resource", real.Resource, chain.Resource},
		{"actuation", real.Actuation, chain.Actuation},
		{"replicator", real.Replicator, chain.Replicator},
	} {
		if !reflect.DeepEqual(layer.a, layer.b) {
			t.Errorf("%s: %s stats differ\n deployment %+v\n chain      %+v", name, layer.name, layer.a, layer.b)
		}
	}
}

// TestChainMatchesDeployment is the traced chain's fidelity test: for the
// same seeded script the layers wired in this package must end with the
// same Stats as the real core.Deployment, or the ~80 lines of wiring
// copied from core have drifted.
func TestChainMatchesDeployment(t *testing.T) {
	const seed = 11
	sc := smokeScale

	for _, u := range []struct {
		name string
		mk   func(uint64, scale) uplinkScript
	}{{"field_uplink", newFieldUplink}, {"fixednet_fanout", newFanout}, {"fixednet_census", newCensus}} {
		stats := func(sys func(opts ...garnet.Option) system) garnet.Snapshot {
			script := u.mk(seed, sc)
			run, err := newUplinkRun(script, sys(script.options()...), sc.window[u.name], sc.warmup)
			if err != nil {
				t.Fatal(err)
			}
			if ph := run.run(runSpec{window: 16, maxOps: 3000}); ph.missing != 0 {
				t.Fatalf("%s: %d samples missing", u.name, ph.missing)
			}
			run.sys.stop()
			return run.sys.stats()
		}
		// The deployment runs on a virtual clock here. On the real clock the
		// runtime's timers decide the order the field's frames arrive in, and
		// with it how many gaps the filter sees; the totals the benchmark
		// checks are the same, these finer ones are not.
		real := stats(func(o ...garnet.Option) system { return newFacade(garnet.NewVirtualClock(chainEpoch), o...) })
		chain := stats(func(o ...garnet.Option) system { return newChain(nil, o...) })
		diffStats(t, u.name, real, chain)
	}

	hist := func(mk func(...garnet.Option) system) garnet.Snapshot {
		h, err := newHistoryRun(seed, sc, t.TempDir(), mk)
		if err != nil {
			t.Fatal(err)
		}
		h.runFor(0, 40)
		if h.failed != 0 {
			t.Fatalf("history_replay: %d of %d checks failed", h.failed, h.attempted)
		}
		h.close()
		return h.sys.stats()
	}
	diffStats(t, "history_replay",
		hist(func(o ...garnet.Option) system { return newFacade(nil, o...) }),
		hist(func(o ...garnet.Option) system { return newChain(nil, o...) }))

	act := func(sys system) garnet.Snapshot {
		a, err := newActuationRun(seed, sc, sys)
		if err != nil {
			t.Fatal(err)
		}
		a.runFor(0, 300)
		if bad := a.check(); len(bad) != 0 || a.failed != 0 {
			t.Fatalf("actuation_loop: %d failed, %v", a.failed, bad)
		}
		sys.stop()
		return sys.stats()
	}
	diffStats(t, "actuation_loop", act(newFacade(garnet.NewVirtualClock(chainEpoch))), act(newChain(nil)))
}

// TestTracerSelfTime checks the self-time arithmetic on hand-made spans.
func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{top: -1}
	tr.spans = []span{
		{name: spOp, parent: -1, children: 2, start: 0, end: 100},
		{name: spFilterIngest, parent: 0, children: 1, start: 10, end: 60},
		{name: spStoreAppend, parent: 1, start: 20, end: 50},
		{name: spDispatch, parent: 0, start: 70, end: 90},
	}
	agg := tr.aggregate(0, 0)
	for name, want := range map[spanName]float64{spOp: 30, spFilterIngest: 20, spStoreAppend: 30, spDispatch: 20} {
		if got := agg[name].Self; got != want {
			t.Errorf("%s: self %v, want %v", spanLabels[name], got, want)
		}
	}
	if got := tr.injectSums(0, 0); len(got) != 1 || got[0] != 50 {
		t.Errorf("inject sums %v, want [50]: the accepted ingest with its store stage", got)
	}
	// With a calibration of 1 ns per span and 2 ns per child the op loses
	// 1+2*2, the ingest 1+2.
	agg = tr.aggregate(1, 2)
	if got := agg[spOp].Self; got != 25 {
		t.Errorf("calibrated op self %v, want 25", got)
	}
	if got := agg[spFilterIngest].Self; got != 17 {
		t.Errorf("calibrated ingest self %v, want 17", got)
	}
}

// TestQuartileSpread pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the benchmark contract names.
func TestQuartileSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles → [2.75, 5.5, 8.25]
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
	// quantiles([10, 11, 13], n=4) → [10.0, 11.0, 13.0]
	if got := quartileSpread([]float64{13, 10, 11}); math.Abs(got-3.0/11) > 1e-12 {
		t.Errorf("spread %v, want %v", got, 3.0/11)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 102}, []float64{100, 103, 104}, "ok"},
		{lower, []float64{100, 101, 102}, []float64{115, 116, 117}, "regressed"},
		{lower, []float64{80, 100, 130}, []float64{90, 100, 120}, "unresolved"},
		{lower, []float64{80, 100, 130}, []float64{50, 60, 70}, "ok"}, // wide, but every B beats every A
		{higher, []float64{1000, 1010, 1020}, []float64{900, 910, 920}, "regressed"},
		{higher, []float64{1000, 1010, 1020}, []float64{990, 1000, 1015}, "ok"},
		{higher, nil, []float64{1}, "missing"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s A=%v B=%v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the tables this
// package prints from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || len(file.Command) < 2 || file.Command[1] != "bench/run.sh" {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", file.PerLayer, perLayer)
	}
}
