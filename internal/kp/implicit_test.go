package kp

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/structured"
)

var fntt = ff.MustFp64(ff.PNTT62)

// solveBothModes runs kp.Solve twice from identical seeds, once per
// preconditioner mode, and returns both results. Identical seeds mean both
// runs draw the same randomness stream, so the results must agree exactly
// (same attempts, same failures, same final x).
func solveBothModes(a *matrix.Dense[uint64], b []uint64, seed uint64, subset uint64, retries int) (dense, implicit []uint64, denseErr, implicitErr error) {
	dense, denseErr = Solve[uint64](fntt, classical(), a, b,
		Params{Src: ff.NewSource(seed), Subset: subset, Retries: retries, Precond: PrecondDense})
	implicit, implicitErr = Solve[uint64](fntt, classical(), a, b,
		Params{Src: ff.NewSource(seed), Subset: subset, Retries: retries, Precond: PrecondImplicit})
	return
}

// TestImplicitMatchesDenseFp64 is the core differential claim: over the
// NTT-friendly word field, implicit- and dense-preconditioned solves are
// bit-identical for dense random A.
func TestImplicitMatchesDenseFp64(t *testing.T) {
	src := ff.NewSource(31)
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33} {
		a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
		b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
		xd, xi, errD, errI := solveBothModes(a, b, uint64(1000+n), 0, 0)
		if (errD == nil) != (errI == nil) {
			t.Fatalf("n=%d: modes disagree on success: dense=%v implicit=%v", n, errD, errI)
		}
		if errD != nil {
			continue // singular draw: both agreed
		}
		if !ff.VecEqual[uint64](fntt, xd, xi) {
			t.Fatalf("n=%d: implicit solution differs from dense", n)
		}
	}
}

// TestImplicitMatchesDenseToeplitzA: the structured-workload shape — A
// itself a dense-materialized Toeplitz matrix.
func TestImplicitMatchesDenseToeplitzA(t *testing.T) {
	src := ff.NewSource(37)
	for _, n := range []int{4, 16, 31} {
		tm := structured.RandomToeplitz[uint64](fntt, src, n, 1<<40)
		a := tm.Dense(fntt)
		b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
		xd, xi, errD, errI := solveBothModes(a, b, uint64(2000+n), 0, 0)
		if (errD == nil) != (errI == nil) {
			t.Fatalf("n=%d: modes disagree on success: dense=%v implicit=%v", n, errD, errI)
		}
		if errD == nil && !ff.VecEqual[uint64](fntt, xd, xi) {
			t.Fatalf("n=%d: implicit solution differs from dense on Toeplitz A", n)
		}
	}
}

// TestImplicitMatchesDenseFpBig: the wrapper field has no fused NTT kernel,
// so the implicit route runs entirely on schoolbook structured applies —
// and must still agree with the dense route.
func TestImplicitMatchesDenseFpBig(t *testing.T) {
	f, err := ff.NewFpBig(new(big.Int).SetUint64(ff.PNTT62))
	if err != nil {
		t.Fatal(err)
	}
	mul := matrix.Classical[*big.Int]{}
	src := ff.NewSource(41)
	n := 7
	a := matrix.Random[*big.Int](f, src, n, n, 1<<30)
	b := ff.SampleVec[*big.Int](f, src, n, 1<<30)
	xd, errD := Solve[*big.Int](f, mul, a, b,
		Params{Src: ff.NewSource(99), Subset: 1 << 30, Precond: PrecondDense})
	xi, errI := Solve[*big.Int](f, mul, a, b,
		Params{Src: ff.NewSource(99), Subset: 1 << 30, Precond: PrecondImplicit})
	if (errD == nil) != (errI == nil) {
		t.Fatalf("modes disagree on success: dense=%v implicit=%v", errD, errI)
	}
	if errD == nil && !ff.VecEqual(f, xd, xi) {
		t.Fatal("implicit solution differs from dense over FpBig")
	}
}

// TestImplicitRetryPathMatchesDense forces unlucky attempts with a tiny
// sampling subset: both modes must walk the same retry sequence — failing
// and succeeding on exactly the same draws — because they consume one
// randomness stream and compute the same exact values.
func TestImplicitRetryPathMatchesDense(t *testing.T) {
	src := ff.NewSource(43)
	n := 6
	a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
	b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
	agreeing, retried := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		// Subset 2 draws from {0, 1}: preconditioners are frequently
		// singular, so most seeds exercise at least one retry.
		xd, xi, errD, errI := solveBothModes(a, b, seed, 2, 6)
		if (errD == nil) != (errI == nil) {
			t.Fatalf("seed=%d: modes disagree on success: dense=%v implicit=%v", seed, errD, errI)
		}
		if errD != nil {
			if !errors.Is(errD, ErrRetriesExhausted) && !errors.Is(errI, ErrRetriesExhausted) {
				t.Fatalf("seed=%d: unexpected errors dense=%v implicit=%v", seed, errD, errI)
			}
			retried++
			continue
		}
		if !ff.VecEqual[uint64](fntt, xd, xi) {
			t.Fatalf("seed=%d: solutions differ after retry path", seed)
		}
		agreeing++
	}
	if agreeing == 0 {
		t.Fatal("subset too small: no seed ever succeeded, test proves nothing")
	}
}

// TestImplicitBatchMatchesDense: SolveBatch under both modes, same seeds,
// identical k-column results.
func TestImplicitBatchMatchesDense(t *testing.T) {
	src := ff.NewSource(47)
	n, k := 12, 5
	a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
	bm := matrix.Random[uint64](fntt, src, n, k, 1<<40)
	xd, errD := SolveBatch[uint64](fntt, classical(), a, bm,
		Params{Src: ff.NewSource(7), Precond: PrecondDense})
	xi, errI := SolveBatch[uint64](fntt, classical(), a, bm,
		Params{Src: ff.NewSource(7), Precond: PrecondImplicit})
	if (errD == nil) != (errI == nil) {
		t.Fatalf("modes disagree: dense=%v implicit=%v", errD, errI)
	}
	if errD == nil && !xd.Equal(fntt, xi) {
		t.Fatal("implicit batch solution differs from dense")
	}
}

// TestImplicitPreconditionZeroDenseMul is the acceptance-criteria op-count
// check: in implicit mode the precondition phase does no field work at all
// and the whole solve performs zero dense matrix-matrix Mul calls, while
// the black-box apply counters show where the work went instead. The same
// solve in dense mode spends exactly the one product that forms Ã there.
func TestImplicitPreconditionZeroDenseMul(t *testing.T) {
	o := obs.New(0)
	obs.SetActive(o)
	defer obs.SetActive(nil)
	im := matrix.NewInstrumented[uint64](classical())
	src := ff.NewSource(53)
	n := 16
	a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
	b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
	if _, err := Solve[uint64](fntt, im, a, b,
		Params{Src: ff.NewSource(3), Precond: PrecondImplicit}); err != nil {
		t.Fatal(err)
	}
	totals := o.PhaseTotals()
	pre, ok := totals[obs.PhasePrecondition]
	if !ok {
		t.Fatal("no precondition span recorded")
	}
	if pre.MulCalls != 0 {
		t.Fatalf("implicit precondition made %d dense Mul calls, want 0", pre.MulCalls)
	}
	if pre.FieldOps != 0 {
		t.Fatalf("implicit precondition did %d field ops, want 0 (Ã stays a composition)", pre.FieldOps)
	}
	if got := im.Stats.Snapshot().Calls; got != 0 {
		t.Fatalf("implicit solve invoked the dense multiplier %d times, want 0", got)
	}
	if totals[obs.PhaseKrylov].ApplyCalls == 0 {
		t.Fatal("krylov phase recorded no black-box applies")
	}
	if totals[obs.PhaseKrylov].ApplyTime == 0 {
		t.Fatal("krylov phase recorded no apply time")
	}

	// The dense route on the same system and draws: one product A·(H·D).
	od := obs.New(0)
	obs.SetActive(od)
	if _, err := Solve[uint64](fntt, matrix.NewInstrumented[uint64](classical()), a, b,
		Params{Src: ff.NewSource(3), Precond: PrecondDense}); err != nil {
		t.Fatal(err)
	}
	if got := od.PhaseTotals()[obs.PhasePrecondition].MulCalls; got != 1 {
		t.Fatalf("dense precondition made %d Mul calls, want exactly 1", got)
	}

	// The batch engine's implicit front end makes the same claim for
	// batch/precondition (its verify phase legitimately uses dense products).
	o2 := obs.New(0)
	obs.SetActive(o2)
	fa, err := Factor[uint64](fntt, im, a, Params{Src: ff.NewSource(5), Precond: PrecondImplicit})
	if err != nil {
		t.Fatal(err)
	}
	if fa.Mode() != PrecondImplicit {
		t.Fatalf("factorization mode = %q, want implicit", fa.Mode())
	}
	if pre := o2.PhaseTotals()[obs.PhaseBatchPrecondition]; pre.MulCalls != 0 {
		t.Fatalf("implicit batch precondition made %d dense Mul calls, want 0", pre.MulCalls)
	}
}

// TestImplicitFactorSolve: a factorization built implicitly keeps the Las
// Vegas contract — verified solves, correct answers.
func TestImplicitFactorSolve(t *testing.T) {
	src := ff.NewSource(59)
	n := 10
	a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
	fa, err := Factor[uint64](fntt, classical(), a, Params{Src: ff.NewSource(11), Precond: PrecondImplicit})
	if err != nil {
		t.Fatal(err)
	}
	for rhs := 0; rhs < 3; rhs++ {
		b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
		x, err := fa.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ff.VecEqual[uint64](fntt, a.MulVec(fntt, x), b) {
			t.Fatalf("rhs=%d: implicit factorization solution fails A·x = b", rhs)
		}
	}
}

// TestSylvesterDriverNTTField runs the structured Sylvester-GCD driver over
// the NTT-friendly field, so every inner apply goes through the cached
// transforms, and cross-checks against the dense resultant — the Sylvester
// leg of the differential suite.
func TestSylvesterDriverNTTField(t *testing.T) {
	src := ff.NewSource(61)
	randPoly := func(deg int) []uint64 {
		p := ff.SampleVec[uint64](fntt, src, deg+1, 1<<40)
		p[deg] = fntt.One()
		return p
	}
	for trial := 0; trial < 10; trial++ {
		a := randPoly(1 + src.Intn(8))
		b := randPoly(1 + src.Intn(8))
		got, err := ResultantWiedemann[uint64](fntt, a, b, Params{Src: src})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ResultantSylvester[uint64](fntt, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: NTT-field Wiedemann resultant %d != dense %d", trial, got, want)
		}
	}
}

// FuzzImplicitSolveMatchesDense drives random seeds, sizes and subsets
// through both modes; any divergence in success pattern or solution is a
// bug in the implicit pipeline.
func FuzzImplicitSolveMatchesDense(fz *testing.F) {
	fz.Add(uint64(1), uint8(6), uint8(0))
	fz.Add(uint64(42), uint8(3), uint8(1))
	fz.Fuzz(func(t *testing.T, seed uint64, nRaw, small uint8) {
		n := int(nRaw)%12 + 1
		subset := uint64(0)
		if small%2 == 1 {
			subset = 4 // stress the retry path
		}
		src := ff.NewSource(seed)
		a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
		b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
		xd, xi, errD, errI := solveBothModes(a, b, seed^0xabcdef, subset, 4)
		if (errD == nil) != (errI == nil) {
			t.Fatalf("seed=%d n=%d: modes disagree: dense=%v implicit=%v", seed, n, errD, errI)
		}
		if errD == nil && !ff.VecEqual[uint64](fntt, xd, xi) {
			t.Fatalf("seed=%d n=%d: solutions differ", seed, n)
		}
	})
}
