package kp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"testing"

	"repro/internal/charpoly"
	"repro/internal/circuit"
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// paperField hides Fp64's fused kernels behind the bare ff.Field interface,
// forcing the Krylov and backsolve phases onto the paper's doubling of (9)
// and the minpoly phase onto its Theorem 3 Toeplitz route. Plain Fp64 takes
// the matrix–vector route with Berlekamp–Massey; the tests below check that
// the two routes are indistinguishable from the outside.
type paperField struct{ ff.Field[uint64] }

func newFieldPair(t *testing.T, p uint64) (ff.Fp64, paperField) {
	t.Helper()
	f, err := ff.NewFp64(p)
	if err != nil {
		t.Fatal(err)
	}
	pf := paperField{f}
	if _, fused := ff.KernelsOf[uint64](pf); fused {
		t.Fatal("paperField must not expose fused kernels")
	}
	return f, pf
}

// lowRank returns an n×n matrix of rank ≤ r as a product of random n×r and
// r×n factors.
func lowRank(f ff.Fp64, src *ff.Source, n, r int) *matrix.Dense[uint64] {
	if r == 0 {
		return matrix.NewDense[uint64](f, n, n)
	}
	l := matrix.Random[uint64](f, src, n, r, f.Modulus())
	rt := matrix.Random[uint64](f, src, r, n, f.Modulus())
	return matrix.Classical[uint64]{}.Mul(f, l, rt)
}

// sameMinPolyOutcome asserts that two charPoly results agree: bit-identical
// polynomials, or the same error in the same phase.
func sameMinPolyOutcome(t *testing.T, what string, cpFast, cpPaper []uint64, errFast, errPaper error) (singular bool) {
	t.Helper()
	if (errFast == nil) != (errPaper == nil) {
		t.Fatalf("%s: BM err = %v, paper err = %v", what, errFast, errPaper)
	}
	if errFast != nil {
		if !errors.Is(errFast, matrix.ErrSingular) || !errors.Is(errPaper, matrix.ErrSingular) {
			t.Fatalf("%s: want ErrSingular on both routes, got BM %v / paper %v", what, errFast, errPaper)
		}
		if pf, pp := failurePhase(errFast), failurePhase(errPaper); pf != obs.PhaseMinPoly || pp != obs.PhaseMinPoly {
			t.Fatalf("%s: failure phases BM %q / paper %q, want %q", what, pf, pp, obs.PhaseMinPoly)
		}
		return true
	}
	if !slices.Equal(cpFast, cpPaper) {
		t.Fatalf("%s: BM cp %v ≠ paper cp %v", what, cpFast, cpPaper)
	}
	return false
}

// TestMinPolyRoutesAgree is the differential test of the minpoly fork: over
// F_97 (small enough that singular T_n draws are common) Berlekamp–Massey
// and the Theorem 3 Toeplitz solve must return bit-identical characteristic
// polynomials on accepted draws and the same in-phase ErrSingular on the
// rest, for the dense and the implicit front ends, on full-rank and
// rank-deficient matrices.
func TestMinPolyRoutesAgree(t *testing.T) {
	f, pf := newFieldPair(t, 97)
	src := ff.NewSource(1301)
	accepted, singular := 0, 0
	for n := 1; n <= 12; n++ {
		for _, r := range []int{n, n - 1, n / 2} {
			a := lowRank(f, src, n, r)
			for draw := 0; draw < 6; draw++ {
				rnd := DrawRandomness[uint64](f, src, n, 97)
				atilde := precondition[uint64](f, classical(), a, rnd)
				cpF, errF := charPolyCtx[uint64](nil, f, classical(), atilde, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
				cpP, errP := charPolyCtx[uint64](nil, pf, classical(), atilde, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
				if sameMinPolyOutcome(t, "dense", cpF, cpP, errF, errP) {
					singular++
				} else {
					accepted++
				}

				box, _ := preconditionBox[uint64](f, a, rnd)
				cpF, errF = charPolyBoxCtx[uint64](nil, f, box, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
				cpP, errP = charPolyBoxCtx[uint64](nil, pf, box, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
				sameMinPolyOutcome(t, "implicit", cpF, cpP, errF, errP)
			}
		}
	}
	t.Logf("%d accepted, %d singular draws", accepted, singular)
	if accepted == 0 || singular == 0 {
		t.Fatalf("differential run saw %d accepted and %d singular draws; both routes must be exercised", accepted, singular)
	}
}

// attemptLog returns a logger whose records carry everything but the wall
// times, so two driver runs log identical bytes exactly when they made the
// same attempts with the same outcomes and failure phases.
func attemptLog() (*slog.Logger, *bytes.Buffer) {
	var buf bytes.Buffer
	h := slog.NewTextHandler(&buf, &slog.HandlerOptions{
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey || a.Key == "wall" {
				return slog.Attr{}
			}
			return a
		},
	})
	return slog.New(h), &buf
}

// TestDriversRoutesAgree runs the Las Vegas drivers on both routes with
// equal seeds over F_13, where unlucky draws fail in every phase: same
// answers, same errors, the same attempt log (count, outcomes, failure
// phases) and the same randomness consumed.
func TestDriversRoutesAgree(t *testing.T) {
	const p = 13
	f, pf := newFieldPair(t, p)
	src := ff.NewSource(1303)
	minpolyFailures := 0
	for n := 2; n <= 8; n++ {
		for _, r := range []int{n, n, n - 1} {
			a := lowRank(f, src, n, r)
			b := ff.SampleVec[uint64](f, src, n, p)
			seed := src.Uint64()
			params := func() (Params, *bytes.Buffer) {
				lg, buf := attemptLog()
				return Params{Src: ff.NewSource(seed), Subset: p, Retries: 8, Logger: lg}, buf
			}
			tail := func(q Params) uint64 { return q.Src.Uint64() }

			pF, logF := params()
			xF, errF := Solve[uint64](f, classical(), a, b, pF)
			pP, logP := params()
			xP, errP := Solve[uint64](pf, classical(), a, b, pP)
			if fmt.Sprint(errF) != fmt.Sprint(errP) || !slices.Equal(xF, xP) {
				t.Fatalf("n=%d r=%d Solve: BM (%v, %v) vs paper (%v, %v)", n, r, xF, errF, xP, errP)
			}
			if logF.String() != logP.String() || tail(pF) != tail(pP) {
				t.Fatalf("n=%d r=%d Solve attempt logs differ:\nBM:\n%s\npaper:\n%s", n, r, logF, logP)
			}
			minpolyFailures += strings.Count(logF.String(), "phase="+obs.PhaseMinPoly)

			pF, _ = params()
			dF, errF := Det[uint64](f, classical(), a, pF)
			pP, _ = params()
			dP, errP := Det[uint64](pf, classical(), a, pP)
			if dF != dP || fmt.Sprint(errF) != fmt.Sprint(errP) || tail(pF) != tail(pP) {
				t.Fatalf("n=%d r=%d Det: BM (%d, %v) vs paper (%d, %v)", n, r, dF, errF, dP, errP)
			}

			pF, logF = params()
			faF, errF := Factor[uint64](f, classical(), a, pF)
			pP, logP = params()
			faP, errP := Factor[uint64](pf, classical(), a, pP)
			if fmt.Sprint(errF) != fmt.Sprint(errP) || logF.String() != logP.String() || tail(pF) != tail(pP) {
				t.Fatalf("n=%d r=%d Factor: BM err %v, paper err %v\nBM:\n%s\npaper:\n%s", n, r, errF, errP, logF, logP)
			}
			if errF == nil && !slices.Equal(faF.cp, faP.cp) {
				t.Fatalf("n=%d r=%d Factor: characteristic polynomials differ", n, r)
			}
		}
	}
	if minpolyFailures == 0 {
		t.Fatal("no Solve attempt failed in the minpoly phase; the singular-T_n retry walk went unexercised")
	}
}

// TestMinPolyRoutesSmallCharacteristic: Theorem 4's characteristic > n
// hypothesis holds on both routes, with the same in-phase error.
func TestMinPolyRoutesSmallCharacteristic(t *testing.T) {
	f, pf := newFieldPair(t, 7)
	src := ff.NewSource(1307)
	n := 10
	a := matrix.Random[uint64](f, src, n, n, 7)
	b := ff.SampleVec[uint64](f, src, n, 7)
	for name, fld := range map[string]ff.Field[uint64]{"BM": f, "paper": pf} {
		_, err := Solve[uint64](fld, classical(), a, b, Params{Src: ff.NewSource(9)})
		if !errors.Is(err, charpoly.ErrSmallCharacteristic) {
			t.Fatalf("%s route: err = %v, want ErrSmallCharacteristic", name, err)
		}
		if ph := failurePhase(err); ph != obs.PhaseMinPoly {
			t.Fatalf("%s route: failure phase %q, want %q", name, ph, obs.PhaseMinPoly)
		}
	}
}

// TestSolveMulCount pins the work of a concrete-field solve: one dense
// multiply (A·H), then 2n−1 applies of Ã for the Krylov sequence and n−1
// for the backsolve — 3n−2 applies, none of them and no multiply in the
// minpoly phase — with each apply charged n·(2n−1) field operations.
func TestSolveMulCount(t *testing.T) {
	o := obs.New(0)
	prev := obs.Active()
	obs.SetActive(o)
	defer obs.SetActive(prev)
	src := ff.NewSource(1309)
	n := 64
	f, a := randomNonsingularP62(src, n)
	b := ff.SampleVec[uint64](f, src, n, f.Modulus())
	im := matrix.NewInstrumented[uint64](classical())
	if _, err := Solve[uint64](f, im, a, b, Params{Src: ff.NewSource(11)}); err != nil {
		t.Fatal(err)
	}
	if got := im.Stats.Snapshot().Calls; got != 1 {
		t.Fatalf("n=%d solve made %d Mul calls, want 1", n, got)
	}
	totals := o.PhaseTotals()
	perApply := uint64(n * (2*n - 1))
	for _, c := range []struct {
		phase          string
		applies, mulls uint64
	}{
		{obs.PhasePrecondition, 0, 1},
		{obs.PhaseKrylov, uint64(2*n - 1), 0},
		{obs.PhaseMinPoly, 0, 0},
		{obs.PhaseBacksolve, uint64(n - 1), 0},
	} {
		pt, ok := totals[c.phase]
		if !ok {
			t.Fatalf("no %s span recorded", c.phase)
		}
		if pt.ApplyCalls != c.applies || pt.MulCalls != c.mulls {
			t.Fatalf("%s: %d applies and %d Mul calls, want %d and %d", c.phase, pt.ApplyCalls, pt.MulCalls, c.applies, c.mulls)
		}
		if c.applies > 0 && pt.FieldOps != c.applies*perApply {
			t.Fatalf("%s: %d field ops, want %d applies × %d", c.phase, pt.FieldOps, c.applies, perApply)
		}
	}
}

// TestMatvecRoutesAgree is the differential test of the matrix–vector
// route: every driver over plain Fp64 (applies of Ã, Berlekamp–Massey)
// against the kernel-less paperField (the doubling of (9), Theorem 3), with
// equal seeds, over F_13 and F_97 where unlucky draws are common, in both
// precondition modes, on full-rank and singular A. Answers, errors, attempt
// logs and the randomness consumed must all be identical.
func TestMatvecRoutesAgree(t *testing.T) {
	for _, p := range []uint64{13, 97} {
		f, pf := newFieldPair(t, p)
		src := ff.NewSource(1311 + p)
		var ok, failed int
		for n := 1; n <= 12; n++ {
			for _, r := range []int{n, n - 1} {
				a := lowRank(f, src, n, r)
				bm := matrix.Random[uint64](f, src, n, 3, p)
				b := bm.Col(0)
				seed := src.Uint64()
				for _, mode := range []PrecondMode{PrecondDense, PrecondImplicit} {
					what := fmt.Sprintf("p=%d n=%d r=%d %s", p, n, r, mode)
					type run struct {
						out  string
						log  *bytes.Buffer
						tail uint64
					}
					drive := func(fld ff.Field[uint64], op func(Params) (any, error)) run {
						lg, buf := attemptLog()
						q := Params{Src: ff.NewSource(seed), Subset: p, Retries: 6, Logger: lg, Precond: mode}
						x, err := op(q)
						if err == nil {
							ok++
						} else {
							failed++
						}
						return run{fmt.Sprint(x, err), buf, q.Src.Uint64()}
					}
					for name, op := range map[string]func(ff.Field[uint64], Params) (any, error){
						"Solve": func(fld ff.Field[uint64], q Params) (any, error) {
							return Solve(fld, classical(), a, b, q)
						},
						"SolveBatch": func(fld ff.Field[uint64], q Params) (any, error) {
							x, err := SolveBatch(fld, classical(), a, bm, q)
							if err != nil {
								return nil, err
							}
							return x.Data, nil
						},
						"Factor+Solve": func(fld ff.Field[uint64], q Params) (any, error) {
							fa, err := Factor(fld, classical(), a, q)
							if err != nil {
								return nil, err
							}
							x, err := fa.Solve(b)
							return []any{fa.cp, x}, err
						},
						"Det": func(fld ff.Field[uint64], q Params) (any, error) {
							return Det(fld, classical(), a, q)
						},
					} {
						rf := drive(f, func(q Params) (any, error) { return op(f, q) })
						rp := drive(pf, func(q Params) (any, error) { return op(pf, q) })
						if rf.out != rp.out || rf.log.String() != rp.log.String() || rf.tail != rp.tail {
							t.Fatalf("%s %s: matvec (%s) vs doubling (%s)\nmatvec log:\n%s\ndoubling log:\n%s",
								what, name, rf.out, rp.out, rf.log, rp.log)
						}
					}
				}
			}
		}
		if ok == 0 || failed == 0 {
			t.Fatalf("p=%d: %d successful and %d failed driver calls; both outcomes must be exercised", p, ok, failed)
		}
	}
}

// TestSolveCancelInsideKrylov cancels the context during the first apply of
// the Krylov loop and asserts the cancellation is seen inside that phase,
// after a few applies rather than all 2n−1 of them, and no later phase
// starts.
func TestSolveCancelInsideKrylov(t *testing.T) {
	src := ff.NewSource(1313)
	n := 32
	f, a := randomNonsingularP62(src, n)
	b := ff.SampleVec[uint64](f, src, n, f.Modulus())
	o := obs.New(0)
	prev := obs.Active()
	obs.SetActive(o)
	defer obs.SetActive(prev)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withApplyHook(t, func(call int) {
		if call == 1 {
			cancel()
		}
	})
	_, err := Solve[uint64](f, classical(), a, b, Params{Src: ff.NewSource(5), Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ph := failurePhase(err); ph != obs.PhaseKrylov {
		t.Fatalf("cancellation surfaced in phase %q, want %q", ph, obs.PhaseKrylov)
	}
	totals := o.PhaseTotals()
	if got := totals[obs.PhaseKrylov].ApplyCalls; got == 0 || got >= uint64(2*n-1) {
		t.Fatalf("krylov phase made %d applies before stopping, want between 1 and %d", got, 2*n-2)
	}
	if totals[obs.PhaseMinPoly].Count != 0 || totals[obs.PhaseBacksolve].Count != 0 {
		t.Fatal("a phase after krylov started despite the cancellation")
	}
	if open := o.OpenSpanName(); open != "" {
		t.Fatalf("span %q left open after cancellation", open)
	}
}

// TestTraceSolveCircuitPinned pins the Theorem 4 circuit with the classical
// multiplier: the concrete-field fast paths must leave the traced circuit
// gate for gate as it was.
func TestTraceSolveCircuitPinned(t *testing.T) {
	for _, tc := range []struct{ n, size, depth int }{
		{4, 2325, 80},
		{8, 26862, 132},
		{16, 327279, 198},
	} {
		c, err := TraceSolve[uint64](fp, matrix.Classical[circuit.Wire]{}, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Size() != tc.size || c.Depth() != tc.depth {
			t.Fatalf("n=%d: circuit size %d depth %d, want %d and %d", tc.n, c.Size(), c.Depth(), tc.size, tc.depth)
		}
	}
}
