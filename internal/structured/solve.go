package structured

import (
	"repro/internal/ff"
	"repro/internal/matrix"
)

// Solve returns x with T·x = b for a non-singular Toeplitz matrix, by the
// paper's Cayley–Hamilton deduction: with det(λI − T) = λⁿ + p₁λ^{n−1} +
// … + pₙ,
//
//	x = T⁻¹b = −(1/pₙ)·(T^{n−1}b + p₁T^{n−2}b + … + p_{n−1}b),
//
// where the Krylov vectors Tʲb cost one structured matvec each. Requires
// characteristic 0 or > n; singular T yields matrix.ErrSingular (pₙ = 0).
func Solve[E any](f ff.Field[E], t Toeplitz[E], b []E) ([]E, error) {
	n := t.N
	if len(b) != n {
		panic("structured: Solve dimension mismatch")
	}
	cp, err := CharPoly(f, t)
	if err != nil {
		return nil, err
	}
	pn := cp[0] // pₙ = constant term
	if f.IsZero(pn) {
		return nil, matrix.ErrSingular
	}
	// Krylov vectors b, Tb, …, T^{n−1}b.
	krylov := make([][]E, n)
	krylov[0] = ff.VecCopy(b)
	for j := 1; j < n; j++ {
		krylov[j] = t.MulVec(f, krylov[j-1])
	}
	// x = −(1/pₙ)·Σ_{j=0}^{n−1} p_{n−1−j}·Tʲb with p₀ = 1, p_k = cp[n−k].
	acc := ff.VecZero(f, n)
	for j := 0; j < n; j++ {
		// p_{n−1−j} = cp[n−(n−1−j)] = cp[j+1]
		ff.VecMulAddInto(f, acc, cp[j+1], krylov[j])
	}
	scale, err := f.Div(f.Neg(f.One()), pn)
	if err != nil {
		return nil, err
	}
	ff.VecScaleInto(f, acc, scale, acc)
	return acc, nil
}

// SolveParallel is Solve with the Krylov vectors computed by the doubling
// argument of the paper's display (9) on the dense form of T, using the
// supplied matrix-multiplication black box: this is the variant Theorem 4
// invokes ("Again from (9) we deduce that the circuit complexity of this
// step is (10)"), with O(n^ω log n) size and O((log n)²) depth where the
// iterative Solve would have depth Ω(n). The accumulation is a balanced
// vector tree.
func SolveParallel[E any](f ff.Field[E], mul matrix.Multiplier[E], t Toeplitz[E], b []E) ([]E, error) {
	n := t.N
	if len(b) != n {
		panic("structured: SolveParallel dimension mismatch")
	}
	cp, err := CharPoly(f, t)
	if err != nil {
		return nil, err
	}
	pn := cp[0]
	if f.IsZero(pn) {
		return nil, matrix.ErrSingular
	}
	k := matrix.KrylovDoubling(f, mul, t.Dense(f), b, n)
	// Balanced vector tree: this is the O(log n)-depth accumulation the
	// circuit trace of Theorem 4 must see. (Concrete fields with fused
	// kernels reach the Lemma 1 system through Berlekamp–Massey in kp and
	// do not come here on the solve path.)
	scaled := make([][]E, n)
	for j := 0; j < n; j++ {
		scaled[j] = ff.VecScale(f, cp[j+1], k.Col(j))
	}
	acc := ff.SumVecs(f, scaled)
	scale, err := f.Div(f.Neg(f.One()), pn)
	if err != nil {
		return nil, err
	}
	ff.VecScaleInto(f, acc, scale, acc)
	return acc, nil
}

// SolveHankel solves H·x = b for a non-singular Hankel matrix through the
// mirror Toeplitz matrix: H = J·T ⇒ T·x = J·b.
func SolveHankel[E any](f ff.Field[E], h Hankel[E], b []E) ([]E, error) {
	n := h.N
	if len(b) != n {
		panic("structured: SolveHankel dimension mismatch")
	}
	jb := make([]E, n)
	for i := range jb {
		jb[i] = b[n-1-i]
	}
	return Solve(f, h.Mirror(), jb)
}

// InverseColumns returns the first and last columns of T⁻¹ for a
// non-singular Toeplitz matrix (by two Solve calls), packaged as a
// Gohberg/Semencul representation of the whole inverse.
func InverseColumns[E any](f ff.Field[E], t Toeplitz[E]) (GS[E], error) {
	n := t.N
	e0 := ff.VecZero(f, n)
	e0[0] = f.One()
	en := ff.VecZero(f, n)
	en[n-1] = f.One()
	u, err := Solve(f, t, e0)
	if err != nil {
		return GS[E]{}, err
	}
	w, err := Solve(f, t, en)
	if err != nil {
		return GS[E]{}, err
	}
	return GS[E]{U: u, W: w}, nil
}
