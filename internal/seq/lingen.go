package seq

import (
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/poly"
)

// MomentMatrix returns the µ×µ Toeplitz matrix T_µ of Lemma 1 built from
// the sequence a (which must supply at least 2µ−1 terms):
//
//	T_µ[i][j] = a_{µ−1+i−j}
//
// Lemma 1: if the sequence is linearly generated with minimum polynomial of
// degree m, then det(T_m) ≠ 0 while det(T_M) = 0 for every M > m. This is
// the bridge from Wiedemann's method to Toeplitz systems: the minimum
// polynomial is read off from a non-singular Toeplitz solve.
func MomentMatrix[E any](f ff.Field[E], a []E, mu int) *matrix.Dense[E] {
	if len(a) < 2*mu-1 {
		panic("seq: sequence too short for moment matrix")
	}
	return matrix.ToeplitzDense(f, a[:2*mu-1])
}

// MinPolyByToeplitz recovers the minimum polynomial of the sequence a under
// the promise that its degree is exactly m, by solving the Lemma 1 system
//
//	T_m·(c_{m−1}, …, c₀)ᵀ = (a_m, …, a_{2m−1})ᵀ
//
// and returning λ^m − c_{m−1}λ^{m−1} − … − c₀. The sequence must supply at
// least 2m terms. This is the §3 replacement for Berlekamp–Massey: the
// solve parallelizes, the iterative BM recurrence does not. Here the
// Toeplitz system is solved by the provided solver (the paper's own
// Toeplitz machinery in package structured, or Gaussian elimination for
// cross-checks).
//
// If the true minimum polynomial has degree < m, T_m is singular (Lemma 1)
// and the solver reports it.
func MinPolyByToeplitz[E any](f ff.Field[E], a []E, m int,
	solve func(t *matrix.Dense[E], b []E) ([]E, error)) ([]E, error) {
	if len(a) < 2*m {
		panic("seq: need 2m sequence terms")
	}
	tm := MomentMatrix(f, a, m)
	b := make([]E, m)
	for i := 0; i < m; i++ {
		b[i] = a[m+i]
	}
	c, err := solve(tm, b)
	if err != nil {
		return nil, err
	}
	// c = (c_{m−1}, …, c₀); minimum polynomial λ^m − Σ c_i λ^i.
	mp := make([]E, m+1)
	for i := 0; i < m; i++ {
		mp[i] = f.Neg(c[m-1-i])
	}
	mp[m] = f.One()
	return mp, nil
}

// MinPolyDegree returns the degree of the minimum polynomial of the
// sequence segment a by running Berlekamp–Massey; it is the m that makes
// Lemma 1's T_m non-singular.
func MinPolyDegree[E any](f ff.Field[E], a []E) (int, error) {
	mp, err := MinPoly(f, a)
	if err != nil {
		return 0, err
	}
	return poly.Deg(f, mp), nil
}

// MatrixSequence returns the first m terms of {u·Aⁱ·b} for a dense A: the
// scalar sequence Wiedemann's method projects out of the black box.
func MatrixSequence[E any](f ff.Field[E], a *matrix.Dense[E], u, b []E, m int) []E {
	s, _ := matrix.KrylovSequence(nil, f, matrix.DenseBox[E]{M: a}, u, b, m) // a nil ctx never cancels
	return s
}
