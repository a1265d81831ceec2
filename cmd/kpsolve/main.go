// Command kpsolve runs the Kaltofen–Pan algorithms on a linear system over
// a word-sized prime field, either randomly generated or read from a file.
//
// Usage:
//
//	kpsolve -n 32                     # random non-singular 32×32 system
//	kpsolve -n 16 -op det             # determinant
//	kpsolve -op solve -in system.txt  # read a system from a file
//	kpsolve -n 64 -rhs 8              # batched solve of 8 right-hand sides
//	kpsolve -n 256 -mul parallel      # pooled multicore multiplication
//	kpsolve -n 256 -precond implicit  # black-box Ã = A·H·D (no dense matmul)
//	kpsolve -n 256 -op gs             # Theorem 3 Toeplitz Gohberg–Semencul solve
//	kpsolve -n 8 -ring zz -op solve   # exact solve over ℤ (RNS/CRT engine)
//	kpsolve -n 8 -ring qq -op det     # exact determinant of a rational matrix
//	kpsolve -n 128 -trace out.json    # per-phase Chrome trace_event timeline
//	kpsolve -n 256 -serve :9090       # /metrics, /snapshot and /debug/pprof/
//	kpsolve -n 64 -log json           # structured per-attempt slog records
//
// The input file format is: first line "n p" (dimension and field modulus),
// then n lines of n matrix entries, then one or more right-hand sides of n
// entries each (all integers, reduced mod p; the total count after the
// matrix must be a multiple of n). Multiple right-hand sides go through the
// batched engine for op=solve. The file's modulus is authoritative: if -p
// is not given the file's field is adopted, and an explicit -p that
// disagrees with the file is an error — silently reducing a system mod the
// wrong prime would "verify" an answer to a different system.
//
// -ring selects the coefficient ring. The default fp runs over one word
// prime field; zz and qq run the RNS/CRT multi-modulus engine and print
// exact integer/rational answers (op solve | det | rank; the instance is
// randomly generated, -in stays fp-only).
//
// Exit codes map the typed error taxonomy so scripts can branch without
// parsing messages:
//
//	0  success
//	1  generic failure (I/O, configuration, internal errors)
//	2  usage errors (bad flags or file format)
//	3  kp.ErrRetriesExhausted — all Las Vegas attempts failed
//	4  kp.ErrSingular — a singular matrix where non-singular is required
//	5  kp.ErrInconsistent — the system has no solution
//	6  kp.ErrBadShape — dimension mismatch
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/rns"
	"repro/internal/server"
)

func main() {
	var (
		n      = flag.Int("n", 16, "dimension for randomly generated instances")
		p      = flag.Uint64("p", ff.P62, "prime field modulus (for -in files it must match the file)")
		op     = flag.String("op", "solve", "operation: solve | det | inv | rank | transposed | gs (Theorem 3 Toeplitz fast path)")
		ring   = flag.String("ring", "fp", "coefficient ring: fp (one word prime field) | zz (exact over the integers) | qq (exact over the rationals)")
		prec   = flag.String("precond", "dense", "preconditioner route for the Theorem 4 pipeline: dense (materialize Ã = A·H·D) | implicit (black-box composition, no dense matmul)")
		in     = flag.String("in", "", "read the system from a file instead of generating it")
		rhs    = flag.Int("rhs", 1, "right-hand sides for randomly generated op=solve instances; >1 solves them as one batch")
		mul    = flag.String("mul", "classical", "matrix multiplier: "+strings.Join(matrix.Names(), "|"))
		seed   = flag.Uint64("seed", uint64(time.Now().UnixNano()), "random seed")
		trace  = flag.String("trace", "", "write a Chrome trace_event JSON timeline of the solve phases to this file")
		serve  = flag.String("serve", "", "serve telemetry (/metrics Prometheus text, /snapshot JSON, /healthz, /debug/pprof/) on this address and keep the process alive after the operation until SIGINT/SIGTERM, e.g. :9090")
		logFmt = flag.String("log", "off", "structured per-attempt logging to stderr: off | text | json")
	)
	flag.Parse()
	// Shared -mul validation: unknown names are an error, never a silent
	// fall-back to the classical default.
	names, err := matrix.ParseMulFlag(*mul)
	if err != nil {
		usage(err)
	}
	if len(names) != 1 {
		usage(fmt.Errorf("-mul wants exactly one of %s", strings.Join(matrix.Names(), "|")))
	}
	if *rhs < 1 {
		usage(fmt.Errorf("-rhs wants a positive count, got %d", *rhs))
	}

	var logger *slog.Logger
	switch *logFmt {
	case "off":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		usage(fmt.Errorf("-log wants off|text|json, got %q", *logFmt))
	}

	// The telemetry listener starts before the operation so live runs can be
	// scraped mid-solve; main blocks on SIGINT/SIGTERM after the output when
	// -serve is set, keeping /metrics up for collectors. Shutdown drains
	// in-flight scrapes via http.Server.Shutdown instead of killing them
	// mid-body (the signal handler is installed only once the operation is
	// done, so Ctrl-C mid-solve still aborts the process).
	var (
		serveDone chan error
		serveStop context.CancelFunc
	)
	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			usage(fmt.Errorf("-serve %s: %w", *serve, err))
		}
		// A serving kpsolve gets the closed-loop surfaces too: triggered
		// profile captures (bad-prime storms fire even without a server in
		// front) and the metrics timeline behind /debug/timeline.
		obs.SetProfileStore(obs.NewProfileStore(obs.ProfileStoreConfig{}))
		tl := obs.NewTimeline(obs.TimelineConfig{Interval: time.Second})
		obs.SetTimeline(tl)
		tl.Start()
		fmt.Fprintf(os.Stderr, "kpsolve: telemetry on http://%s (/metrics /snapshot /debug/profiles /debug/timeline /debug/pprof/ /healthz)\n", ln.Addr())
		var serveCtx context.Context
		serveCtx, serveStop = context.WithCancel(context.Background())
		serveDone = make(chan error, 1)
		go func() {
			serveDone <- server.ServeUntil(serveCtx, ln, telemetryMux(), 5*time.Second)
		}()
	}
	// holdTelemetry blocks on SIGINT/SIGTERM after the output when -serve is
	// set, keeping /metrics up for collectors (shared by the fp and ring
	// exits).
	holdTelemetry := func() {
		if *serve == "" {
			return
		}
		fmt.Fprintf(os.Stderr, "kpsolve: holding telemetry endpoints open; SIGINT/SIGTERM to exit\n")
		sigCtx, stop := server.SignalContext(context.Background())
		var serveErr error
		select {
		case <-sigCtx.Done():
			serveStop() // graceful drain: in-flight scrapes finish
			serveErr = <-serveDone
		case serveErr = <-serveDone:
			// The listener failed on its own; nothing left to hold open.
		}
		stop()
		if serveErr != nil {
			fatal(serveErr)
		}
		fmt.Fprintln(os.Stderr, "kpsolve: telemetry drained, bye")
	}
	// -trace needs an Observer for the timeline; -serve installs one too so
	// the phase-latency histograms and /snapshot phase totals are live, not
	// just the always-on attempt statistics.
	var observer *obs.Observer
	if *trace != "" || *serve != "" {
		observer = obs.New(0)
	}

	if *ring != "fp" {
		// The exact rings generate their own instances and print exact
		// answers; the fp-only file/batch/trace-cross-check flags stay out.
		if *in != "" {
			usage(fmt.Errorf("-in reads fp systems; -ring %s generates a random instance", *ring))
		}
		if *rhs != 1 {
			usage(fmt.Errorf("-rhs is fp-only; -ring %s solves a single right-hand side", *ring))
		}
		if observer != nil {
			// The RNS engine records its phases (rns/primes, rns/residue,
			// rns/crt, rns/verify) on the process-global active Observer.
			obs.SetActive(observer)
		}
		runRing(*ring, *op, *n, *seed, names[0], *prec, logger)
		if *trace != "" {
			if err := writeTrace(observer, nil, *trace); err != nil {
				fatal(err)
			}
		}
		holdTelemetry()
		return
	}

	pSet := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "p" {
			pSet = true
		}
	})

	var f ff.Fp64
	var a *matrix.Dense[uint64]
	var bs *matrix.Dense[uint64] // right-hand sides as columns
	if *in != "" {
		f, a, bs, err = readSystem(*in, *p, pSet)
		if err != nil {
			usage(err)
		}
	} else {
		f, err = ff.NewFp64(*p)
		if err != nil {
			usage(err)
		}
	}
	s, err := core.NewSolver[uint64](f, core.Options{
		Seed:        *seed,
		Multiplier:  names[0],
		PrecondMode: *prec,
		Observer:    observer,
		Instrument:  observer != nil,
		Logger:      logger,
	})
	if err != nil {
		usage(err)
	}
	src := ff.NewSource(*seed + 1)

	if *in == "" {
		a = matrix.Random[uint64](f, src, *n, *n, f.Modulus())
		bs = matrix.Random[uint64](f, src, *n, *rhs, f.Modulus())
		fmt.Printf("generated a random %d×%d system with %d right-hand side(s) over F_%d\n", *n, *n, *rhs, f.Modulus())
	}
	if bs.Cols > 1 && *op != "solve" {
		usage(fmt.Errorf("op %q takes a single right-hand side (got %d); only op=solve is batched", *op, bs.Cols))
	}
	if *op == "gs" && *in == "" {
		// The fast path wants a Toeplitz system; regenerate A from 2n−1
		// entries (the dense draw above kept the randomness deterministic
		// but is not Toeplitz).
		a = matrix.ToeplitzDense[uint64](f, ff.SampleVec[uint64](f, src, 2**n-1, f.Modulus()))
		fmt.Printf("regenerated A as a random %d×%d Toeplitz matrix\n", *n, *n)
	}
	b := bs.Col(0)

	// A per-run trace identity: carried as a bare context tag (not a full
	// span-attribution scope — the CLI keeps span parentage on the global
	// Observer chain so the Instrumented field-op attribution in -trace
	// output stays exact), it stamps every flight-recorder entry and
	// per-attempt log record, so a crash dump names the failing run.
	tc := obs.NewTraceContext()
	ctx := obs.ContextWithTrace(context.Background(), tc)

	start := time.Now()
	switch *op {
	case "solve":
		if bs.Cols > 1 {
			x, err := s.SolveBatchCtx(ctx, a, bs)
			if err != nil {
				fatal(err)
			}
			for j := 0; j < x.Cols; j++ {
				fmt.Printf("x[%d] = %s\n", j, ff.VecString[uint64](f, x.Col(j)))
			}
			fmt.Printf("verified A·X = B for all %d columns: %v\n", x.Cols,
				matrix.Mul[uint64](f, a, x).Equal(f, bs))
			break
		}
		x, err := s.SolveCtx(ctx, a, b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("x = %s\n", ff.VecString[uint64](f, x))
		fmt.Printf("verified A·x = b: %v\n", ff.VecEqual[uint64](f, a.MulVec(f, x), b))
	case "det":
		d, err := s.DetCtx(ctx, a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("det(A) = %d\n", d)
	case "inv":
		inv, err := s.InverseCtx(ctx, a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("A⁻¹ computed (Theorem 6 circuit); A·A⁻¹ = I: %v\n",
			matrix.Mul[uint64](f, a, inv).Equal(f, matrix.Identity[uint64](f, a.Rows)))
	case "rank":
		r, err := s.RankCtx(ctx, a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rank(A) = %d\n", r)
	case "gs":
		entries, err := toeplitzEntries(a)
		if err != nil {
			usage(err)
		}
		x, err := s.SolveToeplitzGS(entries, b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("x = %s\n", ff.VecString[uint64](f, x))
		fmt.Printf("verified T·x = b (Theorem 3 Gohberg–Semencul): %v\n",
			ff.VecEqual[uint64](f, a.MulVec(f, x), b))
	case "transposed":
		x, err := s.TransposedSolveCtx(ctx, a, b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("x = %s\n", ff.VecString[uint64](f, x))
		fmt.Printf("verified Aᵀ·x = b: %v\n",
			ff.VecEqual[uint64](f, a.Transpose().MulVec(f, x), b))
	default:
		usage(fmt.Errorf("unknown op %q", *op))
	}
	fmt.Printf("elapsed: %s\n", time.Since(start))

	if *trace != "" {
		if err := writeTrace(observer, s.MulStats(), *trace); err != nil {
			fatal(err)
		}
	}

	holdTelemetry()
}

// runRing executes op over ℤ or ℚ through the RNS/CRT engine: a random
// instance, an exact answer (big rationals/integers on stdout), and the
// residue statistics that summarize the multi-modulus run.
func runRing(ring, op string, n int, seed uint64, mul, prec string, logger *slog.Logger) {
	if op != "solve" && op != "det" && op != "rank" {
		usage(fmt.Errorf("op %q is not available over %s; -ring zz|qq supports solve|det|rank", op, ring))
	}
	s, err := core.NewIntSolver(core.IntOptions{
		Seed:        seed,
		Multiplier:  mul,
		PrecondMode: prec,
		Logger:      logger,
	})
	if err != nil {
		usage(err)
	}
	src := ff.NewSource(seed + 1)
	tc := obs.NewTraceContext()
	ctx := obs.ContextWithTrace(context.Background(), tc)

	var a *rns.IntMat
	switch ring {
	case "zz":
		a = randomIntMat(src, n, 999)
		fmt.Printf("generated a random %d×%d integer matrix with entries in [-999, 999]\n", n, n)
	case "qq":
		if op != "solve" {
			usage(fmt.Errorf("op %q over qq is not supported; rank and det are invariant under clearing denominators — use -ring zz", op))
		}
		fmt.Printf("generated a random %d×%d rational system with entries num/den, |num| ≤ 99, den ≤ 9\n", n, n)
	default:
		usage(fmt.Errorf("unknown -ring %q (want fp|zz|qq)", ring))
	}

	start := time.Now()
	var stats *kp.RingStats
	switch {
	case ring == "qq":
		aq, bq := randomRatSystem(src, n)
		x, st, err := s.SolveRatCtx(ctx, aq, bq)
		if err != nil {
			fatal(err)
		}
		stats = st
		for i, r := range x.Rats() {
			fmt.Printf("x[%d] = %s\n", i, r.RatString())
		}
		fmt.Printf("verified A·x = b exactly over ℚ: %v\n", st.Verified)
	case op == "solve":
		b := randomIntVec(src, n, 999)
		x, st, err := s.SolveIntCtx(ctx, a, b)
		if err != nil {
			fatal(err)
		}
		stats = st
		for i, r := range x.Rats() {
			fmt.Printf("x[%d] = %s\n", i, r.RatString())
		}
		fmt.Printf("verified A·x = b exactly over ℚ: %v\n", st.Verified)
	case op == "det":
		d, st, err := s.DetIntCtx(ctx, a)
		if err != nil {
			fatal(err)
		}
		stats = st
		fmt.Printf("det(A) = %s\n", d)
	case op == "rank":
		r, st, err := s.RankIntCtx(ctx, a)
		if err != nil {
			fatal(err)
		}
		stats = st
		fmt.Printf("rank(A) = %d\n", r)
	}
	fmt.Printf("residues: %d over %d-bit NTT primes (%d bad prime(s) replaced), factor cache %d hit / %d miss\n",
		stats.Residues, 62, stats.BadPrimes, stats.CacheHits, stats.CacheMisses)
	fmt.Printf("phases: primes %s · residues wall %s (sum %s, parallel efficiency %.2f×) · crt+reconstruct %s · verify %s\n",
		time.Duration(stats.PrimesNs), time.Duration(stats.ResidueWallNs), time.Duration(stats.ResidueSumNs),
		stats.ParallelEfficiency, time.Duration(stats.CRTNs), time.Duration(stats.VerifyNs))
	fmt.Printf("elapsed: %s\n", time.Since(start))
}

// randomIntMat draws an n×n integer matrix with entries uniform in
// [-max, max].
func randomIntMat(src *ff.Source, n int, max int64) *rns.IntMat {
	a := rns.NewIntMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, big.NewInt(int64(src.Intn(int(2*max+1)))-max))
		}
	}
	return a
}

// randomIntVec draws an n-vector with entries uniform in [-max, max].
func randomIntVec(src *ff.Source, n int, max int64) []*big.Int {
	b := make([]*big.Int, n)
	for i := range b {
		b[i] = big.NewInt(int64(src.Intn(int(2*max+1))) - max)
	}
	return b
}

// randomRatSystem draws an n×n rational system with numerators in
// [-99, 99] and denominators in [1, 9].
func randomRatSystem(src *ff.Source, n int) ([][]*big.Rat, []*big.Rat) {
	draw := func() *big.Rat {
		return big.NewRat(int64(src.Intn(199))-99, int64(src.Intn(9))+1)
	}
	a := make([][]*big.Rat, n)
	for i := range a {
		a[i] = make([]*big.Rat, n)
		for j := range a[i] {
			a[i][j] = draw()
		}
	}
	b := make([]*big.Rat, n)
	for i := range b {
		b[i] = draw()
	}
	return a, b
}

// writeTrace exports the observer's timeline and prints the per-phase
// summary, cross-checked against the Instrumented multiplier totals (the
// two count the same operations through independent paths). A nil stats
// skips the multiplier cross-check — the ring engine runs one instrumented
// multiplier per residue, so no single MulStats covers the run.
func writeTrace(o *obs.Observer, stats *matrix.MulStats, path string) error {
	if err := o.WriteTraceFile(path); err != nil {
		return err
	}
	fmt.Printf("\nphase summary (trace written to %s):\n", path)
	totals := o.PhaseTotals()
	for _, name := range o.PhaseNames() {
		t := totals[name]
		fmt.Printf("  %-13s %3d span(s)  wall %-14s field-ops %d\n", name, t.Count, t.Wall, t.FieldOps)
	}
	if dropped := o.Dropped(); dropped > 0 {
		fmt.Printf("  (%d spans dropped: ring wrapped)\n", dropped)
	}
	if stats != nil {
		snap := stats.Snapshot()
		fmt.Printf("  multiplier: %d calls, %d classical-equivalent field-ops, wall %s, busy %s\n",
			snap.Calls, snap.FieldOps, snap.Wall, snap.Busy)
		if spanOps := o.TotalFieldOps(); spanOps != snap.FieldOps {
			fmt.Printf("  WARNING: span field-ops %d != instrumented field-ops %d\n", spanOps, snap.FieldOps)
		}
	}
	return nil
}

// toeplitzEntries checks that a is Toeplitz and returns its 2n−1 defining
// entries in the D[n−1+i−j] layout (D[0] = top-right corner). op=gs on a
// file system refuses non-Toeplitz input instead of silently solving a
// different matrix.
func toeplitzEntries(a *matrix.Dense[uint64]) ([]uint64, error) {
	n := a.Rows
	for i := 1; i < n; i++ {
		for j := 1; j < n; j++ {
			if a.At(i, j) != a.At(i-1, j-1) {
				return nil, fmt.Errorf("op=gs needs a Toeplitz matrix, but A[%d][%d] != A[%d][%d]", i, j, i-1, j-1)
			}
		}
	}
	d := make([]uint64, 2*n-1)
	for k := range d {
		if k <= n-1 {
			d[k] = a.At(0, n-1-k)
		} else {
			d[k] = a.At(k-(n-1), 0)
		}
	}
	return d, nil
}

// readSystem parses "n p" followed by n×n matrix entries and one or more
// right-hand sides of n entries each (the trailing count must be a multiple
// of n; each group of n becomes one column of the returned B). The field is
// built from the file's own modulus; pFlag is only consulted when the user
// set -p explicitly (pSet), in which case a mismatch with the file is an
// error rather than a silent wrong-field reduction.
func readSystem(path string, pFlag uint64, pSet bool) (ff.Fp64, *matrix.Dense[uint64], *matrix.Dense[uint64], error) {
	var f ff.Fp64
	file, err := os.Open(path)
	if err != nil {
		return f, nil, nil, err
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(bufio.ScanWords)
	next := func() (int64, error) {
		if !sc.Scan() {
			return 0, fmt.Errorf("unexpected end of input")
		}
		var v int64
		_, err := fmt.Sscan(sc.Text(), &v)
		return v, err
	}
	n64, err := next()
	if err != nil {
		return f, nil, nil, err
	}
	mod, err := next()
	if err != nil {
		return f, nil, nil, err
	}
	if mod <= 1 {
		return f, nil, nil, fmt.Errorf("%s: invalid modulus %d", path, mod)
	}
	if pSet && uint64(mod) != pFlag {
		return f, nil, nil, fmt.Errorf("%s is a system over F_%d but -p selects F_%d; drop -p to adopt the file's field, or rerun with -p %d",
			path, mod, pFlag, mod)
	}
	f, err = ff.NewFp64(uint64(mod))
	if err != nil {
		return f, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	n := int(n64)
	a := matrix.NewDense[uint64](f, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v, err := next()
			if err != nil {
				return f, nil, nil, err
			}
			a.Set(i, j, f.FromInt64(v))
		}
	}
	// Everything after the matrix is right-hand-side data: k·n entries for
	// k right-hand sides.
	var tail []uint64
	for sc.Scan() {
		var v int64
		if _, err := fmt.Sscan(sc.Text(), &v); err != nil {
			return f, nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		tail = append(tail, f.FromInt64(v))
	}
	if len(tail) == 0 || len(tail)%n != 0 {
		return f, nil, nil, fmt.Errorf("%s: %d right-hand-side entries after the matrix; want a positive multiple of n = %d",
			path, len(tail), n)
	}
	k := len(tail) / n
	bs := matrix.NewDense[uint64](f, n, k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			bs.Set(i, j, tail[j*n+i])
		}
	}
	return f, a, bs, nil
}

// usage reports a bad invocation or input file and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "kpsolve:", err)
	dumpFlight()
	os.Exit(2)
}

// fatal maps the typed error taxonomy onto the documented exit codes.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kpsolve:", err)
	dumpFlight()
	switch {
	case errors.Is(err, kp.ErrRetriesExhausted):
		os.Exit(3)
	case errors.Is(err, kp.ErrSingular):
		os.Exit(4)
	case errors.Is(err, kp.ErrInconsistent):
		os.Exit(5)
	case errors.Is(err, kp.ErrBadShape):
		os.Exit(6)
	}
	os.Exit(1)
}

// dumpFlight writes the crash flight recorder — the ring of recent solve
// summaries every driver feeds unconditionally — to stderr on any non-zero
// exit, so a failed run carries its own post-mortem. Writes nothing when no
// solves ran.
func dumpFlight() {
	obs.WriteFlightRecord(os.Stderr)
}

// telemetryMux is what -serve listens with: the obs surfaces plus the
// runtime profiler under /debug/pprof/.
func telemetryMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", obs.Handler())
	return mux
}
