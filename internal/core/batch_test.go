package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/obs"
)

func nonsingular(t *testing.T, src *ff.Source, n int) *matrix.Dense[uint64] {
	t.Helper()
	for {
		a := matrix.Random[uint64](fp, src, n, n, ff.P31)
		if d, _ := matrix.Det[uint64](fp, a); !fp.IsZero(d) {
			return a
		}
	}
}

func TestSolverSolveBatch(t *testing.T) {
	src := ff.NewSource(401)
	n, k := 7, 4
	a := nonsingular(t, src, n)
	bm := matrix.Random[uint64](fp, src, n, k, ff.P31)

	s := newSolver(t)
	x, err := s.SolveBatch(a, bm)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Mul[uint64](fp, a, x).Equal(fp, bm) {
		t.Fatal("SolveBatch: A·X != B")
	}
	// Bit-identical to the per-column path on a fresh, identically seeded
	// solver (the exact solution is unique).
	indep := newSolver(t)
	for j := 0; j < k; j++ {
		want, err := indep.Solve(a, bm.Col(j))
		if err != nil {
			t.Fatal(err)
		}
		if !ff.VecEqual[uint64](fp, x.Col(j), want) {
			t.Fatalf("batch column %d differs from independent Solve", j)
		}
	}
	short := matrix.Random[uint64](fp, src, n-1, k, ff.P31)
	if _, err := s.SolveBatch(a, short); !errors.Is(err, kp.ErrBadShape) {
		t.Fatalf("mismatched B: err = %v", err)
	}
}

// TestSolverFactored exercises the reusable handle through the Solver
// surface and pins the "skips Krylov" claim at this level too: after
// Factor, further Solve calls on the handle add no batch/krylov span.
func TestSolverFactored(t *testing.T) {
	o := obs.New(0)
	s, err := NewSolver[uint64](fp, Options{Seed: 1, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetActive(nil)
	src := ff.NewSource(403)
	n := 6
	a := nonsingular(t, src, n)

	h, err := s.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if h.Dim() != n {
		t.Fatalf("Dim = %d", h.Dim())
	}
	krylov := o.PhaseTotals()[obs.PhaseBatchKrylov].Count
	if krylov == 0 {
		t.Fatal("Factor recorded no batch/krylov span")
	}

	fresh := newSolver(t)
	for trial := 0; trial < 2; trial++ {
		b := ff.SampleVec[uint64](fp, src, n, ff.P31)
		x, err := h.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !ff.VecEqual[uint64](fp, x, want) {
			t.Fatalf("trial %d: Factored.Solve differs from Solver.Solve", trial)
		}
	}
	if got := o.PhaseTotals()[obs.PhaseBatchKrylov].Count; got != krylov {
		t.Fatalf("Factored.Solve re-ran Krylov: %d spans, want %d", got, krylov)
	}

	d, err := h.Det()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.Det[uint64](fp, a)
	if d != want {
		t.Fatalf("Factored.Det = %d, want %d", d, want)
	}
	inv, err := h.InverseApply(matrix.Identity[uint64](fp, n))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Mul[uint64](fp, a, inv).Equal(fp, matrix.Identity[uint64](fp, n)) {
		t.Fatal("Factored.InverseApply(I) is not the inverse")
	}
}

func TestSolverCtxCancellation(t *testing.T) {
	s := newSolver(t)
	src := ff.NewSource(405)
	n := 5
	a := nonsingular(t, src, n)
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)
	bm := matrix.Random[uint64](fp, src, n, 2, ff.P31)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveCtx(ctx, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveCtx: err = %v", err)
	}
	if _, err := s.SolveBatchCtx(ctx, a, bm); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveBatchCtx: err = %v", err)
	}
	if _, err := s.FactorCtx(ctx, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("FactorCtx: err = %v", err)
	}
}

// TestSolveBatchAmortizesFrontEnd: one SolveBatch over k right-hand sides
// shares the precondition/Krylov/minpoly front end, so it does fewer field
// operations than k independent Solve calls on an identically seeded solver
// — the batch engine's reason to exist, counted exactly instead of timed.
// The count is all the work the spans see: the multiplies (classical-
// equivalent ops) and the applies of Ã (n·(2n−1) ops each). Mul calls alone
// no longer compare the two: a concrete-field Solve makes one, and the
// batch's block backsolve makes one per Horner step.
func TestSolveBatchAmortizesFrontEnd(t *testing.T) {
	f := ff.MustFp64(ff.PNTT62)
	n, k := 64, 8
	src := ff.NewSource(20260704)
	a := matrix.Random[uint64](f, src, n, n, f.Modulus())
	bm := matrix.Random[uint64](f, src, n, k, f.Modulus())
	solver := func() *Solver[uint64] {
		s, err := NewSolver[uint64](f, Options{Seed: 20260704, Multiplier: "classical", Instrument: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	o := obs.New(0)
	prev := obs.Active()
	obs.SetActive(o)
	defer obs.SetActive(prev)
	// work returns the field operations the spans recorded while run ran,
	// under a root span that catches any work outside the driver's phases.
	work := func(run func()) uint64 {
		before := o.TotalFieldOps()
		sp := obs.StartPhase("test.run")
		run()
		sp.End()
		return o.TotalFieldOps() - before
	}

	batch := solver()
	batchOps := work(func() {
		x, err := batch.SolveBatch(a, bm)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Mul[uint64](f, a, x).Equal(f, bm) {
			t.Fatal("SolveBatch: A·X != B")
		}
	})
	indep := solver()
	indepOps := work(func() {
		for j := 0; j < k; j++ {
			if _, err := indep.Solve(a, bm.Col(j)); err != nil {
				t.Fatalf("independent solve %d: %v", j, err)
			}
		}
	})
	bs, is := batch.MulStats().Snapshot(), indep.MulStats().Snapshot()
	t.Logf("n=%d k=%d: SolveBatch %d field ops (%d Mul calls); %d× Solve %d field ops (%d Mul calls)",
		n, k, batchOps, bs.Calls, k, indepOps, is.Calls)
	if is.Calls != uint64(k) {
		t.Fatalf("%d independent solves made %d Mul calls, want one each", k, is.Calls)
	}
	if batchOps >= indepOps {
		t.Fatalf("SolveBatch cost %d field ops, not fewer than the %d of %d independent solves", batchOps, indepOps, k)
	}
}
