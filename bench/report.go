package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// metricDef is one named metric: BENCHMARK.json lists exactly these, and
// TestBenchmarkJSONMatchesCode keeps the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the deployment would see, measured on
// the real facade with tracing off. Every workload reports every one; what
// an "op" is differs per workload and is defined in the README. Bound is
// the share of the parent's median a metric may worsen by; the README's
// "Measured spreads" says why the timings' bounds are as wide as they are.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run. They have no
// bound; a layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{Name: "e2e.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "sensor.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "sensor.downlink_ns", Unit: "ns", Better: "lower"},
	{Name: "radio.copies_per_sample", Unit: "ratio", Better: "lower"},
	{Name: "radio.air_p50_us", Unit: "us", Better: "lower"},
	{Name: "receiver.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "receiver.corrupt_ratio", Unit: "ratio", Better: "lower"},
	{Name: "location.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "filtering.ingest_ns", Unit: "ns", Better: "lower"},
	{Name: "filtering.ingest_allocs", Unit: "count", Better: "lower"},
	{Name: "filtering.dup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "filtering.stale_ratio", Unit: "ratio", Better: "lower"},
	{Name: "filtering.gap_recovered_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.append_ns", Unit: "ns", Better: "lower"},
	{Name: "store.append_allocs", Unit: "count", Better: "lower"},
	{Name: "store.range_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "store.join_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "store.latest_ns", Unit: "ns", Better: "lower"},
	{Name: "store.sealed_per_append", Unit: "ratio", Better: "higher"},
	{Name: "store.compress_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.archive_read_amp", Unit: "ratio", Better: "lower"},
	{Name: "store.sync_spill_ratio", Unit: "ratio", Better: "lower"},
	{Name: "store.archive_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "store.archive_read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "dispatch.dispatch_allocs", Unit: "count", Better: "lower"},
	{Name: "dispatch.port_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "dispatch.deliveries_per_sample", Unit: "ratio", Better: "higher"},
	{Name: "dispatch.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dispatch.orphan_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "core.sum_gap_frac", Unit: "ratio", Better: "lower"},
	{Name: "registry.require_ns", Unit: "ns", Better: "lower"},
	{Name: "resource.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "resource.changed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "actuation.issue_ns", Unit: "ns", Better: "lower"},
	{Name: "actuation.handle_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "actuation.retry_ratio", Unit: "ratio", Better: "lower"},
	{Name: "replicator.send_ns", Unit: "ns", Better: "lower"},
	{Name: "replicator.targeted_ratio", Unit: "ratio", Better: "higher"},
	{Name: "replicator.tx_per_request", Unit: "ratio", Better: "lower"},
	{Name: "transmit.broadcast_ns", Unit: "ns", Better: "lower"},
	{Name: "process.allocs_per_sample", Unit: "count", Better: "lower"},
	{Name: "process.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "process.heap_bytes_per_stream", Unit: "bytes", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "paced.p50_us", Unit: "us", Better: "lower"},
	{Name: "paced.p99_us", Unit: "us", Better: "lower"},
	{Name: "paced.gen_late_max_us", Unit: "us", Better: "lower"},
}

// sumGapBound is the most core.sum_gap_frac may be: the traced stages must
// add up to the whole call measured on the real deployment within it.
const sumGapBound = 0.15

func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output of a single-workload
// run: exactly the keys the benchmark contract names.
func (r *result) contractLine() ([]byte, error) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]metricValue)}
	for _, m := range metricsFor(r.Trace) {
		out.Metrics[m.Name] = metricValue{r.Metrics[m.Name], m.Unit}
	}
	return json.Marshal(out)
}

// summary prints a run for a person, to w.
func (r *result) summary(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s (%s): correct=%v attempted=%d failed=%d\n", r.Workload, kind, r.Correct, r.Attempted, r.Failed)
	for _, m := range metricsFor(r.Trace) {
		if v := r.Metrics[m.Name]; v != 0 || !r.Trace {
			fmt.Fprintf(w, "  %-32s %14s %s\n", m.Name, strconv.FormatFloat(v, 'g', 6, 64), m.Unit)
		}
	}
	keys := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  # %s: %s\n", k, r.Notes[k])
	}
}

// environment is recorded with every report, so a comparison can tell when
// two sets of runs did not have the same machine under them.
type environment struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readEnvironment() environment {
	// NumCPU reads the process's CPU affinity mask, as nproc does.
	return environment{
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// report is what a full invocation (every workload, both kinds of run)
// writes, and what -compare reads.
type report struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	// Sets holds one entry per -repeat round; each round runs every
	// workload once untraced and once traced, on its own seed.
	Sets []reportSet `json:"sets"`
	// Claim is for a later change that claims a gain to fill; the change
	// that defines the benchmark claims none.
	Claim *string `json:"claim"`
}

type reportSet struct {
	Seed uint64    `json:"seed"`
	Runs []*result `json:"runs"`
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
