package structured

import (
	"repro/internal/ff"
	"repro/internal/matrix"
)

// GSSolver packages the paper's Theorem 3 machinery — the
// Gohberg/Semencul implicit inverse built from the characteristic
// polynomial — as a reusable solver backend for non-singular Toeplitz
// systems. Construction pays one CharPoly (Berlekamp–Massey over cached
// NTT applies on fused-kernel fields, the Theorem 3 Newton iteration
// elsewhere) plus two Cayley–Hamilton backsolves for the first and last
// columns of T⁻¹; after that every right-hand side costs four
// triangular-Toeplitz products via GS.ApplyWithInv — O(M(n)) instead of
// the 2n black-box applies a fresh Wiedemann run would pay. When
// (T⁻¹)₀₀ = 0 the Gohberg/Semencul formula is unavailable (the paper's
// genericity assumption u₁ ≠ 0); the solver then falls back to the cached
// Cayley–Hamilton backsolve, still reusing the one charpoly.
type GSSolver[E any] struct {
	T  Toeplitz[E]
	CP []E // det(λI − T): CP[0] = pₙ … CP[n] = 1

	scale E // −1/pₙ, the Cayley–Hamilton backsolve constant
	gs    GS[E]
	u0inv E
	hasGS bool
}

// NewGSSolver computes the characteristic polynomial once. It returns
// matrix.ErrSingular for singular T and propagates
// charpoly.ErrSmallCharacteristic when char(F) ≤ n.
func NewGSSolver[E any](f ff.Field[E], t Toeplitz[E]) (*GSSolver[E], error) {
	cp, err := CharPoly(f, t)
	if err != nil {
		return nil, err
	}
	if f.IsZero(cp[0]) {
		return nil, matrix.ErrSingular
	}
	scale, err := f.Div(f.Neg(f.One()), cp[0])
	if err != nil {
		return nil, err
	}
	s := &GSSolver[E]{T: t, CP: cp, scale: scale}
	n := t.N
	e0 := ff.VecZero(f, n)
	e0[0] = f.One()
	en := ff.VecZero(f, n)
	en[n-1] = f.One()
	u := s.chSolve(f, e0)
	if !f.IsZero(u[0]) {
		w := s.chSolve(f, en)
		u0inv, err := f.Inv(u[0])
		if err != nil {
			return nil, err
		}
		s.gs, s.u0inv, s.hasGS = GS[E]{U: u, W: w}, u0inv, true
	}
	return s, nil
}

// HasGS reports whether the Gohberg/Semencul fast path is active (false
// only in the measure-zero case (T⁻¹)₀₀ = 0).
func (s *GSSolver[E]) HasGS() bool { return s.hasGS }

// Det returns det(T) = (−1)ⁿ·pₙ.
func (s *GSSolver[E]) Det(f ff.Field[E]) E {
	d := s.CP[0]
	if s.T.N%2 == 1 {
		d = f.Neg(d)
	}
	return d
}

// chSolve is the Cayley–Hamilton backsolve x = −(1/pₙ)·Σ p_{n−1−j}·Tʲb
// against the cached characteristic polynomial: n−1 structured applies.
func (s *GSSolver[E]) chSolve(f ff.Field[E], b []E) []E {
	n := s.T.N
	acc := ff.VecZero(f, n)
	v := ff.VecCopy(b)
	for j := 0; j < n; j++ {
		ff.VecMulAddInto(f, acc, s.CP[j+1], v)
		if j < n-1 {
			v = s.T.MulVec(f, v)
		}
	}
	ff.VecScaleInto(f, acc, s.scale, acc)
	return acc
}

// SolveVec returns T⁻¹·b: four triangular-Toeplitz products on the fast
// path, the cached Cayley–Hamilton backsolve otherwise.
func (s *GSSolver[E]) SolveVec(f ff.Field[E], b []E) []E {
	if len(b) != s.T.N {
		panic("structured: GSSolver.SolveVec dimension mismatch")
	}
	if s.hasGS {
		return s.gs.ApplyWithInv(f, b, s.u0inv)
	}
	return s.chSolve(f, b)
}
