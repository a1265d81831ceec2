package kp

import (
	"fmt"

	"repro/internal/ff"
	"repro/internal/matrix"
)

// §5 extensions: nullspace basis and singular systems, via the
// Schur-complement construction spelled out at the end of the paper: for
// random non-singular U, V with Â = U·A·V having non-singular leading
// principal r×r block Â_r (r = rank A), partition Â = [[Â_r, B], [C, D]];
// then the right null space of A is spanned by the columns of
//
//	V · ( −Â_r⁻¹·B )
//	    (  I_{n−r} )
//
// because the Schur complement D − C·Â_r⁻¹·B vanishes at rank r.

// Nullspace returns a basis (as columns of an n×(n−r) matrix) of the right
// null space of a square matrix, verified so the result is always correct
// (Las Vegas). A non-singular matrix yields a basis with zero columns.
func Nullspace[E any](f ff.Field[E], a *matrix.Dense[E], p Params) (*matrix.Dense[E], error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("kp: Nullspace needs a square matrix (got %d×%d): %w", a.Rows, a.Cols, ErrBadShape)
	}
	p = fill(f, p)
	r, err := Rank(f, a, p)
	if err != nil {
		return nil, err
	}
	if r == n {
		return matrix.NewDense(f, n, 0), nil
	}
	for attempt := 0; attempt < p.Retries; attempt++ {
		if err := ctxErr(p.Ctx); err != nil {
			return nil, err
		}
		u, err := randomNonsingular(f, p.Src, n, p.Subset)
		if err != nil {
			return nil, err
		}
		v, err := randomNonsingular(f, p.Src, n, p.Subset)
		if err != nil {
			return nil, err
		}
		ahat := matrix.Mul(f, matrix.Mul(f, u, a), v)
		basis, err := nullspaceFromHat(f, ahat, v, r)
		if err != nil {
			continue // leading block singular: unlucky randomization
		}
		if matrix.Mul(f, a, basis).IsZero(f) {
			return basis, nil
		}
	}
	return nil, ErrRetriesExhausted
}

func nullspaceFromHat[E any](f ff.Field[E], ahat, v *matrix.Dense[E], r int) (*matrix.Dense[E], error) {
	n := ahat.Rows
	if r == 0 {
		// A = 0: the identity spans the null space (V·I = V works too, but
		// the identity is canonical).
		return matrix.Identity(f, n), nil
	}
	ar := ahat.Leading(r)
	bblk := ahat.Submatrix(0, r, r, n)
	lu, err := matrix.Factor(f, ar)
	if err != nil {
		return nil, err
	}
	if lu.Rank < r {
		return nil, matrix.ErrSingular
	}
	// X = Â_r⁻¹·B, column by column.
	x := matrix.NewDense(f, r, n-r)
	for j := 0; j < n-r; j++ {
		col, err := lu.Solve(f, bblk.Col(j))
		if err != nil {
			return nil, err
		}
		for i := 0; i < r; i++ {
			x.Set(i, j, col[i])
		}
	}
	// E = [−X; I_{n−r}]; basis = V·E.
	e := matrix.NewDense(f, n, n-r)
	for i := 0; i < r; i++ {
		for j := 0; j < n-r; j++ {
			e.Set(i, j, f.Neg(x.At(i, j)))
		}
	}
	for j := 0; j < n-r; j++ {
		e.Set(r+j, j, f.One())
	}
	return matrix.Mul(f, v, e), nil
}

// SolveSingular returns one solution of A·x = b for a (possibly singular)
// square system, or ErrInconsistent. With Â = U·A·V and c = U·b, the
// candidate y = (Â_r⁻¹·c_{1..r}, 0, …, 0) solves Â·y = c exactly when the
// system is consistent; x = V·y. The result is verified, so it is always
// correct when returned (Las Vegas).
func SolveSingular[E any](f ff.Field[E], a *matrix.Dense[E], b []E, p Params) ([]E, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("kp: SolveSingular needs a square system with a matching right-hand side (A is %d×%d, b has %d entries): %w",
			a.Rows, a.Cols, len(b), ErrBadShape)
	}
	p = fill(f, p)
	r, err := Rank(f, a, p)
	if err != nil {
		return nil, err
	}
	if r == 0 {
		if ff.VecIsZero(f, b) {
			return ff.VecZero(f, n), nil
		}
		return nil, ErrInconsistent
	}
	sawCandidate := false
	for attempt := 0; attempt < p.Retries; attempt++ {
		if err := ctxErr(p.Ctx); err != nil {
			return nil, err
		}
		u, err := randomNonsingular(f, p.Src, n, p.Subset)
		if err != nil {
			return nil, err
		}
		v, err := randomNonsingular(f, p.Src, n, p.Subset)
		if err != nil {
			return nil, err
		}
		ahat := matrix.Mul(f, matrix.Mul(f, u, a), v)
		ar := ahat.Leading(r)
		lu, err := matrix.Factor(f, ar)
		if err != nil || lu.Rank < r {
			continue
		}
		c := u.MulVec(f, b)
		top, err := lu.Solve(f, c[:r])
		if err != nil {
			continue
		}
		y := ff.VecZero(f, n)
		copy(y, top)
		x := v.MulVec(f, y)
		sawCandidate = true
		if a.MulVecEquals(f, x, b) {
			return x, nil
		}
	}
	if sawCandidate {
		// Candidates formed but never verified: with overwhelming
		// probability the system is inconsistent (a consistent system
		// verifies whenever the leading block is non-singular).
		return nil, ErrInconsistent
	}
	return nil, ErrRetriesExhausted
}
