package main

import (
	"fmt"
	"math/big"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/rns"
	"repro/internal/structured"
)

// sizes are the problem dimensions of the workloads and the lengths of the
// extra passes of a traced run.
type sizes struct {
	fpN, zzN, gsN int   // fp-solve, zz-solve and toeplitz-gs dimensions
	kpdN, kpdZZN  int   // kpd-mixed fp and zz dimensions
	kpdHot        int   // kpd-mixed hot-pool matrices
	zzMax         int64 // integer entries lie in [−zzMax, zzMax]
	abstractN     int   // dimension of the counted abstract-field solve
	// sliceOps is how many operations a traced run makes on each library
	// workload other than the named one, and kpdSlice how long it drives
	// kpd when kpd-mixed is not the named workload.
	sliceOps   int
	kpdSlice   time.Duration
	probeBatch time.Duration // length of one timed batch of a layer probe
}

var (
	fullSizes = sizes{
		fpN: 128, zzN: 40, gsN: 256, kpdN: 48, kpdZZN: 12, kpdHot: 32, zzMax: 999,
		abstractN: 64, sliceOps: 4, kpdSlice: 2 * time.Second, probeBatch: 20 * time.Millisecond,
	}
	quickSizes = sizes{
		fpN: 16, zzN: 6, gsN: 32, kpdN: 8, kpdZZN: 4, kpdHot: 4, zzMax: 999,
		abstractN: 16, sliceOps: 2, kpdSlice: 300 * time.Millisecond, probeBatch: time.Millisecond,
	}
)

// setupReps is how many times an untraced library run sets up; setup_s is
// the median.
const setupReps = 5

// task is one generated input. run makes the public call under test, which
// is the timed region; check verifies the answer without calling the solver.
type task interface {
	run() error
	check() bool
}

// libWorkload is a closed-loop workload over the solver library: one caller,
// a fresh input for every operation.
type libWorkload interface {
	// setup constructs the solvers.
	setup() error
	// next draws the next input from src; traced selects the solver a
	// traced operation uses.
	next(src *ff.Source, traced bool) task
	// sloMS is the latency limit of slo_ok_frac: about 4× the median
	// latency on the reference machine, so that only a real stall, not the
	// host's slow phases, misses it.
	sloMS() float64
	// layers adds the per-layer metrics of a traced pass's operations.
	layers(ops []tracedOp, v values)
}

func newLibWorkload(name string, sz sizes) libWorkload {
	switch name {
	case "fp-solve":
		return &fpSolve{n: sz.fpN}
	case "zz-solve":
		return &zzSolve{n: sz.zzN, max: sz.zzMax}
	default:
		return &gsSolve{n: sz.gsN}
	}
}

// runLibrary is an untraced run of a library workload: setupReps set-ups,
// then back-to-back operations for c.seconds.
func runLibrary(c config, sz sizes) (values, tally, error) {
	w := newLibWorkload(c.workload, sz)
	root := ff.NewSource(c.seed)
	setupSrc, opSrc := root.Split(), root.Split()
	var setup []float64
	for range setupReps {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, tally{}, err
		}
		if err := warmUp(w, setupSrc); err != nil {
			return nil, tally{}, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	var (
		t     tally
		lat   []float64
		sloOK int
	)
	start := time.Now()
	for time.Since(start) < seconds(c.seconds) {
		d, ok := attempt(w.next(opSrc, false), &t)
		if ok {
			lat = append(lat, d)
			if d <= w.sloMS() {
				sloOK++
			}
		}
	}
	return endToEndValues(setup, lat, sloOK, t, time.Since(start)), t, nil
}

// warmUp runs one operation outside any measurement and insists on a right
// answer.
func warmUp(w libWorkload, src *ff.Source) error {
	op := w.next(src, false)
	if err := op.run(); err != nil {
		return fmt.Errorf("warm-up operation: %w", err)
	}
	if !op.check() {
		return fmt.Errorf("warm-up operation: wrong answer")
	}
	return nil
}

// attempt runs one operation, times its public call and checks its answer
// outside the timed region. It returns the call's latency in ms and whether
// the answer was right.
func attempt(op task, t *tally) (float64, bool) {
	t.attempted++
	t0 := time.Now()
	err := op.run()
	d := ms(time.Since(t0))
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "bench:", err)
		return d, false
	}
	sp := obs.StartPhase("bench.verify")
	ok := op.check()
	sp.End()
	if !ok {
		t.failed++
		t.wrong++
		fmt.Fprintln(os.Stderr, "bench: wrong answer")
	}
	return d, ok
}

// endToEndValues computes the end-to-end metrics of a run from its set-up
// times, the latencies of its verified operations, how many of those met the
// latency limit, and the wall time of the measured window.
func endToEndValues(setup, lat []float64, sloOK int, t tally, wall time.Duration) values {
	return values{
		"setup_s":          {median(setup), len(setup)},
		"latency_mean_ms":  {mean(lat), len(lat)},
		"throughput_ops_s": {float64(len(lat)) / wall.Seconds(), len(lat)},
		"slo_ok_frac":      {float64(sloOK) / float64(max(t.attempted, 1)), t.attempted},
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// fpSolve is the fp-solve workload: dense random n×n systems over the NTT
// prime PNTT62, solved by core.Solver.Solve with the default options
// (classical multiplier, dense preconditioner).
type fpSolve struct {
	n             int
	f             ff.Fp64
	plain, traced *core.Solver[uint64]
}

func (w *fpSolve) setup() error {
	w.f = ff.MustFp64(ff.PNTT62)
	var err error
	if w.plain, err = core.NewSolver[uint64](w.f, core.Options{}); err != nil {
		return err
	}
	// The traced solver counts its multiplications (matrix.MulStats).
	w.traced, err = core.NewSolver[uint64](w.f, core.Options{Instrument: true})
	return err
}

func (w *fpSolve) next(src *ff.Source, traced bool) task {
	s := w.plain
	if traced {
		s = w.traced
	}
	return &fpTask{
		s: s, f: w.f,
		a: matrix.Random[uint64](w.f, src, w.n, w.n, w.f.Modulus()),
		b: ff.SampleVec[uint64](w.f, src, w.n, w.f.Modulus()),
	}
}

func (w *fpSolve) sloMS() float64 { return 400 }

func (w *fpSolve) layers(ops []tracedOp, v values) {
	phases := []string{obs.PhasePrecondition, obs.PhaseKrylov, obs.PhaseMinPoly, obs.PhaseBacksolve}
	per := make(map[string][]float64)
	var phaseSelf, solveWall time.Duration
	attempts := 0
	for _, op := range ops {
		self := selfTimes(op.recs)
		for _, p := range phases {
			per[p] = append(per[p], ms(self[p]))
			phaseSelf += self[p]
		}
		for _, r := range op.recs {
			switch r.Name {
			case "core.solve":
				solveWall += r.Dur
			case obs.PhasePrecondition:
				attempts++
			}
		}
	}
	n := len(ops)
	for _, p := range phases {
		v["kp."+p+"_ms"] = sample{median(per[p]), n}
	}
	v["kp.attempts_per_solve"] = sample{float64(attempts) / float64(n), n}
	v["kp.phase_cover_frac"] = sample{phaseSelf.Seconds() / solveWall.Seconds(), n}
	st := w.traced.MulStats().Snapshot()
	v["matrix.mul_calls_per_solve"] = sample{float64(st.Calls) / float64(n), n}
	v["matrix.mul_wall_share"] = sample{st.Wall.Seconds() / solveWall.Seconds(), n}
}

type fpTask struct {
	s    *core.Solver[uint64]
	f    ff.Fp64
	a    *matrix.Dense[uint64]
	b, x []uint64
}

func (t *fpTask) run() (err error) {
	sp := obs.StartPhase("core.solve")
	t.x, err = t.s.Solve(t.a, t.b)
	sp.End()
	return err
}

func (t *fpTask) check() bool {
	return len(t.x) == t.a.Cols && ff.VecEqual[uint64](t.f, t.a.MulVec(t.f, t.x), t.b)
}

// zzSolve is the zz-solve workload: random n×n integer systems with entries
// in [−max, max], solved exactly by core.IntSolver.SolveInt with the default
// options.
type zzSolve struct {
	n   int
	max int64
	s   *core.IntSolver
}

func (w *zzSolve) setup() (err error) {
	w.s, err = core.NewIntSolver(core.IntOptions{})
	return err
}

func (w *zzSolve) next(src *ff.Source, _ bool) task {
	a, b := randomIntSystem(src, w.n, w.max)
	return &zzTask{s: w.s, a: a, b: b}
}

func (w *zzSolve) sloMS() float64 { return 800 }

func (w *zzSolve) layers(ops []tracedOp, v values) {
	var res, bad, primes, wall, sum, crt, verify, eff []float64
	for _, op := range ops {
		st := op.task.(*zzTask).stats
		res = append(res, float64(st.Residues))
		bad = append(bad, float64(st.BadPrimes))
		primes = append(primes, ms(time.Duration(st.PrimesNs)))
		wall = append(wall, ms(time.Duration(st.ResidueWallNs)))
		sum = append(sum, ms(time.Duration(st.ResidueSumNs)))
		crt = append(crt, ms(time.Duration(st.CRTNs)))
		verify = append(verify, ms(time.Duration(st.VerifyNs)))
		eff = append(eff, st.ParallelEfficiency)
	}
	n := len(ops)
	v["rns.residues"] = sample{median(res), n}
	v["rns.bad_primes"] = sample{median(bad), n}
	v["rns.primes_ms"] = sample{median(primes), n}
	v["rns.residue_wall_ms"] = sample{median(wall), n}
	v["rns.residue_sum_ms"] = sample{median(sum), n}
	v["rns.crt_ms"] = sample{median(crt), n}
	v["rns.verify_ms"] = sample{median(verify), n}
	v["rns.parallel_efficiency"] = sample{median(eff), n}
}

type zzTask struct {
	s     *core.IntSolver
	a     *rns.IntMat
	b     []*big.Int
	x     *rns.RatVec
	stats *kp.RingStats
}

func (t *zzTask) run() (err error) {
	sp := obs.StartPhase("core.solve_int")
	t.x, t.stats, err = t.s.SolveInt(t.a, t.b)
	sp.End()
	return err
}

func (t *zzTask) check() bool {
	return t.x != nil && solvesExactly(t.a, t.x.Num, t.x.Den, t.b)
}

// randomIntSystem draws an n×n integer system with entries in [−max, max].
func randomIntSystem(src *ff.Source, n int, max int64) (*rns.IntMat, []*big.Int) {
	draw := func() int64 { return int64(src.Uint64n(uint64(2*max+1))) - max }
	a := rns.NewIntMat(n, n)
	for _, e := range a.Data {
		e.SetInt64(draw())
	}
	b := make([]*big.Int, n)
	for i := range b {
		b[i] = big.NewInt(draw())
	}
	return a, b
}

// solvesExactly reports whether x = num/den solves A·x = b over ℚ, by
// checking A·num = den·b over ℤ.
func solvesExactly(a *rns.IntMat, num []*big.Int, den *big.Int, b []*big.Int) bool {
	if len(num) != a.Cols || len(b) != a.Rows || den.Sign() == 0 {
		return false
	}
	var lhs, rhs, p big.Int
	for i := 0; i < a.Rows; i++ {
		lhs.SetInt64(0)
		for j := 0; j < a.Cols; j++ {
			lhs.Add(&lhs, p.Mul(a.At(i, j), num[j]))
		}
		if lhs.Cmp(rhs.Mul(den, b[i])) != 0 {
			return false
		}
	}
	return true
}

// solvesExactlyRats is solvesExactly for the decimal rationals ("p" or
// "p/q") kpd returns for ring zz.
func solvesExactlyRats(a *rns.IntMat, xr []string, b []*big.Int) bool {
	rats := make([]*big.Rat, len(xr))
	den := big.NewInt(1)
	var g big.Int
	for i, s := range xr {
		r, ok := new(big.Rat).SetString(s)
		if !ok {
			return false
		}
		rats[i] = r
		// den = lcm(den, r's denominator)
		d := r.Denom()
		den.Mul(den, new(big.Int).Quo(d, g.GCD(nil, nil, den, d)))
	}
	num := make([]*big.Int, len(rats))
	for i, r := range rats {
		num[i] = new(big.Int).Mul(r.Num(), new(big.Int).Quo(den, r.Denom()))
	}
	return solvesExactly(a, num, den, b)
}

// gsSolve is the toeplitz-gs workload: random n×n Toeplitz systems over
// PNTT62, solved by core.Solver.SolveToeplitzGS (Theorem 3 Newton iteration
// and the Gohberg–Semencul formula).
type gsSolve struct {
	n int
	f ff.Fp64
	s *core.Solver[uint64]
}

func (w *gsSolve) setup() error {
	w.f = ff.MustFp64(ff.PNTT62)
	var err error
	w.s, err = core.NewSolver[uint64](w.f, core.Options{})
	return err
}

func (w *gsSolve) next(src *ff.Source, _ bool) task {
	return &gsTask{
		s: w.s, f: w.f,
		t: structured.RandomToeplitz[uint64](w.f, src, w.n, w.f.Modulus()),
		b: ff.SampleVec[uint64](w.f, src, w.n, w.f.Modulus()),
	}
}

func (w *gsSolve) sloMS() float64 { return 1000 }

func (w *gsSolve) layers(ops []tracedOp, v values) {
	var factor, apply []float64
	for _, op := range ops {
		for _, r := range op.recs {
			switch r.Name {
			case "core.factor_toeplitz":
				factor = append(factor, ms(r.Dur))
			case "structured.solve_vec":
				apply = append(apply, ms(r.Dur))
			}
		}
	}
	v["structured.gs_factor_ms"] = sample{median(factor), len(factor)}
	v["structured.gs_apply_ms"] = sample{median(apply), len(apply)}
}

type gsTask struct {
	s    *core.Solver[uint64]
	f    ff.Fp64
	t    structured.Toeplitz[uint64]
	b, x []uint64
}

// run calls SolveToeplitzGS; a traced operation makes its two steps,
// FactorToeplitz and GSSolver.SolveVec, as separate calls so that each gets
// a span.
func (t *gsTask) run() error {
	if obs.Active() == nil {
		x, err := t.s.SolveToeplitzGS(t.t.D, t.b)
		t.x = x
		return err
	}
	sp := obs.StartPhase("core.factor_toeplitz")
	gs, err := t.s.FactorToeplitz(t.t.D)
	sp.End()
	if err != nil {
		return err
	}
	sp = obs.StartPhase("structured.solve_vec")
	t.x = gs.SolveVec(t.f, t.b)
	sp.End()
	return nil
}

func (t *gsTask) check() bool {
	return len(t.x) == t.t.N && ff.VecEqual[uint64](t.f, t.t.MulVec(t.f, t.x), t.b)
}
