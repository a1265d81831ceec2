package structured

import (
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/poly"
	"repro/internal/seq"
)

// MinPolyParallel is the §3 parallel replacement for Berlekamp–Massey in
// full: it locates the minimum-polynomial degree m as the largest µ with
// det(T_µ) ≠ 0 (Lemma 1 makes non-singularity monotone below m and
// identically singular above), computing each candidate determinant with
// the Toeplitz determinant of this package, then recovers the polynomial by
// one structured Toeplitz solve. In the PRAM model all n candidate
// determinants run concurrently, so the critical path stays polylog; this
// sequential realization evaluates them in a scan from the top.
//
// Requires characteristic 0 or > len(a)/2 (the Theorem 3 hypothesis) and a
// sequence of at least 2·maxDeg terms. Sequences whose minimum polynomial
// is λ^j (nilpotent projections) have singular T_µ for every µ ≥ 1 despite
// m = j > 0; like the paper's pipeline — which only ever meets sequences
// with f(0) ≠ 0 after preconditioning — this routine returns the constant
// polynomial 1 in that degenerate case.
func MinPolyParallel[E any](f ff.Field[E], a []E, maxDeg int) ([]E, error) {
	if 2*maxDeg > len(a) {
		panic("structured: need 2·maxDeg sequence terms")
	}
	// Largest µ with det(T_µ) ≠ 0. Lemma 1: non-zero exactly for µ = m
	// (and typically below; zero for all µ > m).
	nonSingular := func(mu int) (bool, error) {
		d, err := Det(f, NewToeplitz(a[:2*mu-1]))
		if err != nil {
			return false, err
		}
		return !f.IsZero(d), nil
	}
	m := 0
	// Binary search is only sound on monotone predicates; Lemma 1
	// guarantees det(T_µ) = 0 for µ > m but says nothing below m, so scan
	// from the top (the PRAM version evaluates all µ at once anyway).
	for mu := maxDeg; mu >= 1; mu-- {
		ok, err := nonSingular(mu)
		if err != nil {
			return nil, err
		}
		if ok {
			m = mu
			break
		}
	}
	if m == 0 {
		return poly.Constant(f, f.One()), nil
	}
	return seq.MinPolyByToeplitz(f, a, m, func(_ *matrix.Dense[E], rhs []E) ([]E, error) {
		// The moment matrix T_m is the Toeplitz matrix of a[:2m−1]: solve it
		// with the §3 machinery.
		return Solve(f, NewToeplitz(a[:2*m-1]), rhs)
	})
}
