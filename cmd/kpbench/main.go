// Command kpbench regenerates the reproduction's experiment tables
// (DESIGN.md §4, E1–E14). Each table states the paper claim it checks and
// the measured values; EXPERIMENTS.md records a full run.
//
// kpbench is not a timing harness: wall-clock performance is measured by
// the bench/ module (repeated runs with their spread), and the gated speed
// claims live in the root bench_test.go as BenchmarkClaim* functions. The
// committed BENCH_PR*.json files are the history of the retired JSON report.
//
// Usage:
//
//	kpbench                 # run every experiment, quick sweeps
//	kpbench -full           # full sweeps (minutes)
//	kpbench -run E4,E10     # selected experiments
//	kpbench -md             # emit Markdown (for EXPERIMENTS.md)
//	kpbench -mul classical  # restrict the multiplier substrate
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/exp"
	"repro/internal/matrix"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids (E1..E14, E3a, E4a, E4m, E10w) or 'all'")
		full    = flag.Bool("full", false, "full parameter sweeps (slower)")
		seed    = flag.Uint64("seed", 20260704, "random seed (runs are deterministic per seed)")
		md      = flag.Bool("md", false, "emit Markdown tables")
		mul     = flag.String("mul", "all", "multipliers: 'all' or a comma-separated subset of "+strings.Join(matrix.Names(), ","))
		workers = flag.Int("workers", 0, "worker count for the shared matrix pool (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *workers > 0 {
		if err := matrix.SetPoolWorkers(*workers); err != nil {
			fatal(err)
		}
	}
	if procs := runtime.GOMAXPROCS(0); procs < matrix.PoolWorkers() {
		fmt.Fprintf(os.Stderr, "kpbench: warning: GOMAXPROCS (%d) < pool workers (%d); workers will contend for cores and parallel timings will under-report speedup\n",
			procs, matrix.PoolWorkers())
	}

	// Unknown -mul names are an error: silently defaulting would relabel a
	// measurement of the wrong kernel.
	muls, err := matrix.ParseMulFlag(*mul)
	if err != nil {
		fatal(err)
	}

	// Header: make the output self-describing — which kernels, which field,
	// how wide the pool is.
	fmt.Printf("kpbench: field F_%d, multipliers %s, pool %d workers (GOMAXPROCS %d), seed %d\n\n",
		exp.FieldModulus(), strings.Join(muls, ","), matrix.PoolWorkers(), runtime.GOMAXPROCS(0), *seed)
	if *mul != "all" {
		if err := exp.SetMultipliers(muls); err != nil {
			fatal(err)
		}
	}

	var selected []exp.Experiment
	if *run == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e := exp.ByID(strings.TrimSpace(id))
			if e == nil {
				fatal(fmt.Errorf("unknown experiment %q", id))
			}
			selected = append(selected, *e)
		}
	}

	for _, e := range selected {
		tab, err := e.Run(*seed, !*full)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if *md {
			fmt.Println(tab.Markdown())
		} else {
			fmt.Println(tab.String())
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kpbench: %v\n", err)
	os.Exit(2)
}
