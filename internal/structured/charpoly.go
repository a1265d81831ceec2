package structured

import (
	"math"

	"repro/internal/charpoly"
	"repro/internal/ff"
	"repro/internal/poly"
	"repro/internal/seq"
)

// CharPoly returns det(λI − T) for an n×n Toeplitz matrix. It requires
// characteristic 0 or > n (charpoly.ErrSmallCharacteristic otherwise — use
// CharPolySmallChar). Two routes compute the same polynomial:
//
//   - Fields with fused kernels (ff.Fp64, the concrete hot path) take the
//     Berlekamp–Massey route of charPolyBM: O(n) cached-NTT applies and an
//     O(n²) recurrence instead of the Newton iteration's bivariate series
//     arithmetic. When its generator falls short of degree n (always so
//     for derogatory T) it falls back to charPolyNewton.
//   - Every other field — the circuit builder, the counting wrappers and
//     the arbitrary-precision and extension fields — runs charPolyNewton,
//     the paper's Theorem 3 pipeline, so traced circuits and abstract op
//     counts stay those of the paper.
func CharPoly[E any](f ff.Field[E], t Toeplitz[E]) ([]E, error) {
	if _, fused := ff.KernelsOf(f); fused {
		if !ff.CharacteristicExceeds(f, t.N) {
			return nil, charpoly.ErrSmallCharacteristic
		}
		if cp, ok, err := charPolyBM(f, t); err != nil || ok {
			return cp, err
		}
	}
	return charPolyNewton(f, t)
}

// bmSeed fixes the projection vectors of charPolyBM, so CharPoly stays a
// deterministic function of T.
const bmSeed = 0x6a09e667f3bcc909

// charPolyBM computes det(λI − T) from the 2n terms u·Tⁱ·v, with u and v
// drawn from bmSeed, by Berlekamp–Massey (Lemma 1; the Toeplitz/BM
// equivalence). The generator of the projected sequence divides minpoly(T),
// which divides det(λI − T); so a degree-n generator is the characteristic
// polynomial, and ok reports exactly that. A shorter generator proves
// nothing: T may be derogatory, or u and v unlucky. The projections are
// fixed, so a matrix crafted against bmSeed can always force ok = false —
// which costs the Newton fallback's time, never a wrong answer.
func charPolyBM[E any](f ff.Field[E], t Toeplitz[E]) (cp []E, ok bool, err error) {
	n := t.N
	src := ff.NewSource(bmSeed)
	u := ff.SampleVec(f, src, n, math.MaxUint64)
	v := ff.SampleVec(f, src, n, math.MaxUint64)
	a := make([]E, 2*n)
	for i := range a {
		if i > 0 {
			v = t.MulVec(f, v)
		}
		a[i] = ff.DotFused(f, u, v)
	}
	mp, err := seq.MinPoly(f, a)
	if err != nil {
		return nil, false, err
	}
	return mp, len(mp) == n+1, nil
}

// charPolyNewton is the paper's Theorem 3 pipeline (Pan 1990b):
//
//  1. Newton-iterate the implicit inverse of B = I − λT, carrying only its
//     first and last columns in Gohberg/Semencul form (newton.go);
//  2. read off Trace((I − λT)⁻¹) mod λ^{n+1} = Σ Trace(Tⁱ)·λⁱ, the power
//     sums s₁, …, sₙ of the eigenvalues;
//  3. solve the Leverrier/Newton-identity system by power-series
//     exponentiation (Schönhage), which divides by 2, …, n.
//
// The whole computation is branch-free: it never tests a field element for
// zero, matching the circuit model.
func charPolyNewton[E any](f ff.Field[E], t Toeplitz[E]) ([]E, error) {
	n := t.N
	if n == 0 {
		return []E{f.One()}, nil
	}
	tr, err := TraceSeries(f, t, n+1)
	if err != nil {
		return nil, err
	}
	s := make([]E, n)
	for i := 1; i <= n; i++ {
		s[i-1] = poly.Coef(f, tr, i)
	}
	return charpoly.PowerSumsToCharPolySeries(f, s)
}

// Det returns det(T) = (−1)ⁿ·(constant term of det(λI − T)).
func Det[E any](f ff.Field[E], t Toeplitz[E]) (E, error) {
	cp, err := CharPoly(f, t)
	if err != nil {
		var z E
		return z, err
	}
	d := cp[0]
	if t.N%2 == 1 {
		d = f.Neg(d)
	}
	return d, nil
}

// DetHankel returns det(H) by mirroring to a Toeplitz matrix: H = J·T with
// J the row-reversal, so det(H) = det(J)·det(T) = (−1)^{n(n−1)/2}·det(T).
// This is exactly how the paper's §4 computes det(H) for the random Hankel
// preconditioner.
func DetHankel[E any](f ff.Field[E], h Hankel[E]) (E, error) {
	d, err := Det(f, h.Mirror())
	if err != nil {
		var z E
		return z, err
	}
	if (h.N*(h.N-1)/2)%2 == 1 {
		d = f.Neg(d)
	}
	return d, nil
}

// CharPolySmallChar returns det(λI − T) over a field of any characteristic
// by the §5 extension: Chistov's telescoping product over all leading
// principal submatrices T_i, with each ((I_i − λT_i)⁻¹)_{i,i} computed by
// Toeplitz-structured Neumann series (n matvecs of cost M(i) each). Total
// O(n³ log n loglog n) with fast polynomial multiplication — the paper's
// display (12), one factor n more than Theorem 3.
func CharPolySmallChar[E any](f ff.Field[E], t Toeplitz[E]) ([]E, error) {
	n := t.N
	if n == 0 {
		return []E{f.One()}, nil
	}
	gs := make([][]E, n)
	for i := 1; i <= n; i++ {
		ti := t.Leading(i)
		// g_i = Σ_j ((T_i)ʲ e_i)_i λʲ mod λ^{n+1}, by structured matvecs.
		v := ff.VecZero(f, i)
		v[i-1] = f.One()
		g := make([]E, n+1)
		for j := 0; j <= n; j++ {
			g[j] = v[i-1]
			if j < n {
				v = ti.MulVec(f, v)
			}
		}
		gs[i-1] = poly.Trim(f, g)
	}
	prod := poly.Constant(f, f.One())
	for _, g := range gs {
		prod = poly.MulTrunc(f, prod, g, n+1)
	}
	rev, err := poly.SeriesInv(f, prod, n+1)
	if err != nil {
		return nil, err
	}
	cp := poly.Reverse(f, rev, n)
	out := make([]E, n+1)
	for k := range out {
		out[k] = poly.Coef(f, cp, k)
	}
	return out, nil
}
