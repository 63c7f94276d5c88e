package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartiles as a
// share of the median, with quartiles taken as Python's
// statistics.quantiles(v, n=4) takes them (the benchmark contract's
// definition). It needs two values; with fewer it returns 0.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// valuesOf collects one metric of one workload across a report's sets.
func valuesOf(rep report, workload, metric string, trace bool) []float64 {
	var v []float64
	for _, set := range rep.Sets {
		for _, r := range set.Runs {
			if r.Workload == workload && r.Trace == trace {
				if x, ok := r.Metrics[metric]; ok {
					v = append(v, x)
				}
			}
		}
	}
	return v
}

// verdict applies the rule of the choosing-metrics guide to one pairing of
// workload and end-to-end metric: regressed when B's median is worse than
// A's by more than the bound; unresolved when either side's own spread is
// wider than the bound, unless every run of B beats every run of A.
func verdict(m metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = (ma - mb) / ma
	}
	if quartileSpread(a) > m.Bound || quartileSpread(b) > m.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (m.Better == "lower" && x >= y) || (m.Better == "higher" && x <= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "ok"
}

func describeEnv(w io.Writer, label string, env environment) {
	fmt.Fprintf(w, "%s: host_cpus=%d gomaxprocs=%d %s %s/%s\n", label, env.HostCPUs, env.GOMAXPROCS, env.GoVersion, env.GOOS, env.GOARCH)
	if env.GOMAXPROCS > env.HostCPUs {
		fmt.Fprintf(w, "  WARNING: %s ran with GOMAXPROCS %d on %d CPUs: its goroutines were oversubscribed, not parallel\n", label, env.GOMAXPROCS, env.HostCPUs)
	}
}

// compareReports prints, per workload and metric, both medians, both
// spreads, the bound and the verdict; it returns 1 when anything regressed.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err == nil {
		var b report
		if b, err = readReport(pathB); err == nil {
			return compare(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compare(w io.Writer, a, b report) int {
	describeEnv(w, "A", a.Env)
	describeEnv(w, "B", b.Env)
	if a.Env != b.Env || a.Seconds != b.Seconds {
		fmt.Fprintln(w, "  WARNING: A and B differ in environment or run length; the verdicts compare unlike things")
	}
	fmt.Fprintf(w, "A: %d sets, B: %d sets\n\n", len(a.Sets), len(b.Sets))
	code := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, m := range endToEnd {
			va, vb := valuesOf(a, wl.name, m.Name, false), valuesOf(b, wl.name, m.Name, false)
			v := verdict(m, va, vb)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "  %-28s A %12.6g  B %12.6g %-5s spread A %5.1f%% B %5.1f%%  bound %4.0f%%  %s\n",
				m.Name, median(va), median(vb), m.Unit, 100*quartileSpread(va), 100*quartileSpread(vb), 100*m.Bound, v)
		}
		for _, m := range perLayer {
			va, vb := valuesOf(a, wl.name, m.Name, true), valuesOf(b, wl.name, m.Name, true)
			if median(va) == 0 && median(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-28s A %12.6g  B %12.6g %-5s\n", m.Name, median(va), median(vb), m.Unit)
		}
	}
	return code
}
