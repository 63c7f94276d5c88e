// Command garnet-bench regenerates the paper's tables and figures through
// the real middleware assembly (internal/experiments). Standard output is
// the tables and nothing else, the same bytes on every run (with -quick,
// the golden files internal/experiments tests against, in order);
// progress goes to standard error. Performance is measured by bench/, not
// here: see bench/README.md.
//
// Usage:
//
//	garnet-bench                  # run every experiment
//	garnet-bench -experiment E5   # run one experiment
//	garnet-bench -quick           # reduced sweeps (smoke run)
//	garnet-bench -seed 7          # change the deterministic seed
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/garnet-middleware/garnet/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "garnet-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, w, progress io.Writer) error {
	fs := flag.NewFlagSet("garnet-bench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all",
			"experiment id ("+experiments.FlagUsage()+") or \"all\"")
		seed  = fs.Uint64("seed", 42, "deterministic seed")
		quick = fs.Bool("quick", false, "reduced sweeps for a fast smoke run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	if *experiment != "all" {
		table, err := experiments.Run(*experiment, cfg)
		if err != nil {
			return err
		}
		table.Render(w)
		return nil
	}
	start := time.Now()
	for _, e := range experiments.All() {
		t0 := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		table.Render(w)
		fmt.Fprintf(progress, "[%s completed in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(progress, "all experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
