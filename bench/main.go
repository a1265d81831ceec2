// Command bench is the repository benchmark. It drives the solver library
// and the kpd daemon from outside, through their public entry points, on
// four seeded workloads, and checks every answer itself without calling the
// solver. It prints a header, one line per metric (name, value, unit,
// sample count) and, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {"setup_s": {"value": 0.11, "unit": "s"}, …}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics and writes the spans it recorded
// as a Chrome trace_event file. A wrong answer makes the command exit 1.
// See README.md for the workloads, the metrics and their bounds.
//
//	bash bench/run.sh --workload fp-solve --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/matrix"
)

// spec names one reported metric and its unit; the lists below are the
// "end_to_end" and "per_layer" entries of BENCHMARK.json, in that order.
type spec struct{ name, unit string }

var endToEnd = []spec{
	{"setup_s", "s"},
	{"latency_mean_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"slo_ok_frac", "frac"},
}

var perLayer = []spec{
	{"ff.dot_ns_per_elem", "ns"},
	{"ff.muladd_ns_per_elem", "ns"},
	{"poly.ntt_ns_per_butterfly", "ns"},
	{"matrix.mul_ms.classical_n128", "ms"},
	{"matrix.mul_ms.parallel_n48_p62", "ms"},
	{"matrix.mul_calls_per_solve", "count"},
	{"matrix.mul_wall_share", "frac"},
	{"kp.precondition_ms", "ms"},
	{"kp.krylov_ms", "ms"},
	{"kp.minpoly_ms", "ms"},
	{"kp.backsolve_ms", "ms"},
	{"kp.attempts_per_solve", "count"},
	{"kp.phase_cover_frac", "frac"},
	{"kp.field_ops_abstract", "count"},
	{"rns.residues", "count"},
	{"rns.bad_primes", "count"},
	{"rns.primes_ms", "ms"},
	{"rns.residue_wall_ms", "ms"},
	{"rns.residue_sum_ms", "ms"},
	{"rns.crt_ms", "ms"},
	{"rns.verify_ms", "ms"},
	{"rns.parallel_efficiency", "ratio"},
	{"structured.gs_factor_ms", "ms"},
	{"structured.gs_apply_ms", "ms"},
	{"server.hit_ratio", "frac"},
	{"server.hit_ms_p50", "ms"},
	{"server.miss_ms_p50", "ms"},
	{"server.zz_ms_p50", "ms"},
	{"server.wire_ms_p50", "ms"},
	{"server.minpoly_ms_per_req", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"obs.trace_overhead_frac", "frac"},
}

var workloadNames = []string{"fp-solve", "zz-solve", "toeplitz-gs", "kpd-mixed"}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	kpd      string
	quick    bool // tiny problem sizes, for the package test
	capacity bool
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	fs.Uint64Var(&c.seed, "seed", 1, "seed of every generated input and of the arrival schedule")
	fs.Float64Var(&c.seconds, "seconds", 25, "measured duration of an untraced run; a traced run measures a quarter of it")
	fs.IntVar(&trace, "trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	fs.StringVar(&c.traceOut, "trace-out", "trace.json", "Chrome trace_event file a traced run writes")
	fs.StringVar(&c.kpd, "kpd", "kpd", "kpd binary built from the same commit")
	fs.BoolVar(&c.capacity, "capacity", false, "kpd-mixed only: measure the closed-loop capacity of the mix instead")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = trace == 1
	switch {
	case !slices.Contains(workloadNames, c.workload):
		return c, fmt.Errorf("-workload %q: want one of %s", c.workload, strings.Join(workloadNames, ", "))
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("-trace %d: want 0 or 1", trace)
	case c.seconds <= 0:
		return c, fmt.Errorf("-seconds %v: want a positive duration", c.seconds)
	case c.capacity && (c.workload != "kpd-mixed" || c.trace):
		return c, errors.New("-capacity applies to an untraced kpd-mixed run only")
	}
	return c, nil
}

// sample is one measured metric value and the number of observations it
// summarizes.
type sample struct {
	v float64
	n int
}

type values map[string]sample

// tally counts the operations a run attempted, those that failed (an error,
// a refusal or a wrong answer) and the wrong answers among them.
type tally struct {
	attempted, failed, wrong int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and writes its report to w.
func run(c config, w io.Writer) (*result, error) {
	sz := fullSizes
	if c.quick {
		sz = quickSizes
	}
	// A traced run drives kpd in every workload (see runTraced).
	clients, conns := 1, 0
	if c.workload == "kpd-mixed" || c.trace {
		clients, conns = kpdConns, kpdConns
	}
	if n := runtime.NumCPU(); clients > n || conns > n {
		return nil, fmt.Errorf("refusing to run %d client goroutines over %d connections on %d CPUs", clients, conns, n)
	}
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%g trace=%t quick=%t num_cpu=%d GOMAXPROCS=%d go=%s pool_width=%d clients=%d conns=%d\n",
		c.workload, c.seed, c.seconds, c.trace, c.quick, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), matrix.PoolWorkers(), clients, conns)

	var (
		vals  values
		t     tally
		err   error
		specs = endToEnd
	)
	switch {
	case c.capacity:
		vals, t, err = kpdCapacity(c, sz)
		specs = []spec{{"capacity_ops_s", "1/s"}}
	case c.trace:
		vals, t, err = runTraced(c, sz)
		specs = perLayer
	case c.workload == "kpd-mixed":
		vals, t, err = runKpd(c, sz)
	default:
		vals, t, err = runLibrary(c, sz)
	}
	if err != nil {
		return nil, err
	}
	if t.attempted == 0 {
		return nil, errors.New("no operation completed in the measured window")
	}
	res := &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(w, "# %-32s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metric{Value: v.v, Unit: s.unit}
		fmt.Fprintf(w, "# %-32s %16.6g %-6s %d\n", s.name, v.v, s.unit, v.n)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d wrong=%d\n", t.attempted, t.failed, t.wrong)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(2)
	}
	res, err := run(c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: wrong answers; see the wrong= count above")
		os.Exit(1)
	}
}
