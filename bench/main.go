// Command bench is Garnet's deployment benchmark: five seeded workloads,
// end-to-end metrics measured on the real facade with tracing off, and a
// traced per-layer budget measured on the same layers wired inside this
// package. bench/README.md defines every workload and metric.
//
//	bash bench/run.sh --workload fixednet_fanout --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1                 # every workload, both kinds of run
//	bash bench/run.sh --repeat 3 --report A.json
//	bash bench/run.sh --compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print the contract's JSON line; empty runs them all")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "with -workload: 0 end-to-end metrics, 1 per-layer metrics from the traced run")
	smoke := fs.Bool("smoke", false, "small sizes and short phases, for the tests")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for trace files, reports and temporary archives")
	repeat := fs.Int("repeat", 1, "without -workload: how many sets to run, each on its own seed")
	reportPath := fs.String("report", "", "without -workload: where to write the report (default <out>/report.json)")
	compare := fs.Bool("compare", false, "compare two report files given as arguments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareReports(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, sc: fullScale, out: *out}
	if *smoke {
		cfg.sc = smokeScale
		if cfg.seconds > 1 {
			cfg.seconds = 1
		}
	}
	if *name != "" {
		return runOne(cfg, *name, *trace == 1)
	}
	return runAll(cfg, *repeat, *reportPath)
}

func runWorkload(cfg runConfig, w *workload, trace bool) (*result, error) {
	r := newResult(w.name, trace)
	r.Notes["script_sha256"] = w.hash(cfg.seed, cfg.sc)
	fn := w.e2e
	if trace {
		fn = w.traced
	}
	if err := fn(cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if gap := r.Metrics["core.sum_gap_frac"]; gap > sumGapBound {
		r.Notes["sum_gap"] = fmt.Sprintf("traced stages miss the whole inject call by %.0f%%, bound %.0f%%", gap*100, sumGapBound*100)
	}
	return r, nil
}

// runOne is the contract's single run: a summary for people on standard
// error, the JSON line last on standard output.
func runOne(cfg runConfig, name string, trace bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	env := readEnvironment()
	fmt.Fprintf(os.Stderr, "host_cpus=%d gomaxprocs=%d %s seed=%d seconds=%g\n", env.HostCPUs, env.GOMAXPROCS, env.GoVersion, cfg.seed, cfg.seconds)
	r, err := runWorkload(cfg, w, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	r.summary(os.Stderr)
	line, err := r.contractLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !r.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and traced, repeat times, prints
// every metric by name with its unit, and writes the report -compare reads.
func runAll(cfg runConfig, repeat int, path string) int {
	rep := report{Env: readEnvironment(), Seconds: cfg.seconds}
	fmt.Printf("host_cpus=%d gomaxprocs=%d %s seconds=%g\n", rep.Env.HostCPUs, rep.Env.GOMAXPROCS, rep.Env.GoVersion, cfg.seconds)
	code := 0
	for k := 0; k < repeat; k++ {
		set := reportSet{Seed: cfg.seed + uint64(k)}
		c := cfg
		c.seed = set.Seed
		for i := range workloads {
			for _, trace := range []bool{false, true} {
				r, err := runWorkload(c, &workloads[i], trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				r.summary(os.Stdout)
				if !r.Correct {
					code = 1
				}
				set.Runs = append(set.Runs, r)
			}
		}
		rep.Sets = append(rep.Sets, set)
	}
	if path == "" {
		path = filepath.Join(cfg.out, "report.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := writeReport(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("report written to %s\n", path)
	return code
}
