package kp

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/structured"
)

// DetOnce is one branch-free determinant attempt (§2 + §3): with the
// supplied randomness it computes the characteristic polynomial of
// Ã = A·H·D through the Lemma 1 minimum polynomial (charPolyFromSequence)
// and returns
//
//	det(A) = (−1)ⁿ·cp(0) / (det(H)·det(D)),
//
// with det(H) computed by structured.DetHankel on the Hankel mirror — the
// Theorem 3 circuit over abstract fields and the circuit builder,
// Berlekamp–Massey over fused-kernel fields — and det(D) as a balanced
// product. No zero tests are performed on the circuit route.
func DetOnce[E any](f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], rnd Randomness[E]) (E, error) {
	var zero E
	n := a.Rows
	if a.Cols != n {
		panic("kp: DetOnce needs a square matrix")
	}
	atilde := precondition(f, mul, a, rnd)
	cp, err := charPolyOfPreconditioned(f, mul, atilde, rnd)
	if err != nil {
		return zero, err
	}
	detTilde := cp[0]
	if n%2 == 1 {
		detTilde = f.Neg(detTilde)
	}
	detH, err := structured.DetHankel(f, structured.Hankel[E]{N: n, D: rnd.H})
	if err != nil {
		return zero, err
	}
	detD := balancedProduct(f, rnd.D)
	return f.Div(detTilde, f.Mul(detH, detD))
}

func balancedProduct[E any](f ff.Field[E], xs []E) E {
	if len(xs) == 0 {
		return f.One()
	}
	cur := ff.VecCopy(xs)
	for len(cur) > 1 {
		next := cur[:(len(cur)+1)/2]
		for i := 0; i+1 < len(cur); i += 2 {
			next[i/2] = f.Mul(cur[i], cur[i+1])
		}
		if len(cur)%2 == 1 {
			next[len(next)-1] = cur[len(cur)-1]
		}
		cur = next
	}
	return cur[0]
}

// Det is the Las Vegas determinant driver. Verification is indirect (there
// is no cheap certificate for a determinant): an attempt is accepted when
// the branch-free pipeline completes without a zero division *and* two
// independent random attempts agree — disagreement flags the ≤ 3n²/|S|
// unlucky case. Singular matrices exhaust the retries of the inner
// attempts only when every Ã sequence degenerates; a clean run on a
// singular matrix returns 0 via the f̃(0) = 0 path surfacing as a zero
// division, so exhaustion is reported as a (correct) zero determinant only
// when the cheaper Wiedemann singularity test concurs.
func Det[E any](f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], p Params) (E, error) {
	var zero E
	n := a.Rows
	if a.Cols != n {
		return zero, fmt.Errorf("kp: Det needs a square matrix (got %d×%d): %w", a.Rows, a.Cols, ErrBadShape)
	}
	p = fill(f, p)
	attempt := func() (E, error) {
		for i := 0; i < p.Retries; i++ {
			if err := ctxErr(p.Ctx); err != nil {
				return zero, err
			}
			rnd := DrawRandomness(f, p.Src, n, p.Subset)
			d, err := DetOnce(f, mul, a, rnd)
			if err != nil {
				if errors.Is(err, ff.ErrDivisionByZero) || errors.Is(err, matrix.ErrSingular) {
					continue
				}
				return zero, err
			}
			return d, nil
		}
		return zero, ErrRetriesExhausted
	}
	d1, err := attempt()
	if err != nil {
		if errors.Is(err, ErrRetriesExhausted) {
			return zero, err
		}
		return zero, err
	}
	d2, err := attempt()
	if err == nil && f.Equal(d1, d2) {
		return d1, nil
	}
	if cerr := ctxErr(p.Ctx); cerr != nil {
		return zero, cerr
	}
	// Disagreement (rare): fall back to a best-of-three vote.
	d3, err3 := attempt()
	if err3 == nil && (f.Equal(d3, d1) || (err == nil && f.Equal(d3, d2))) {
		return d3, nil
	}
	return zero, ErrRetriesExhausted
}

// TraceDet builds the determinant circuit for dimension n: n² inputs (the
// entries of A), 5n−1 random inputs, one output — the input to the
// Theorem 6 gradient transformation.
func TraceDet[E any](model ff.Field[E], mul matrix.Multiplier[circuit.Wire], n int) (*circuit.Builder, error) {
	b := circuit.NewBuilderFor(model)
	aw := matrixInput(b, n)
	rnd := randomnessInput(b, n)
	d, err := DetOnce[circuit.Wire](b, mul, aw, rnd)
	if err != nil {
		return nil, err
	}
	b.Return(d)
	return b, nil
}
