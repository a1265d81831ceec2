// Package structured implements the Toeplitz machinery of Kaltofen–Pan §3:
// Toeplitz and Hankel matrices with matrix-vector products by polynomial
// multiplication, the Gohberg/Semencul implicit-inverse representation
// (the paper's Figure 1), the Newton iteration X_i = X_{i−1}(2I − BX_{i−1})
// on B = I − λT that carries only the first and last columns of the
// inverse, the resulting characteristic-polynomial algorithm (Theorem 3),
// and non-singular Toeplitz/Hankel system solvers via Cayley–Hamilton.
package structured

import (
	"sync"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/poly"
)

// nttCache is the persistent transform state shared by every copy of a
// structured matrix built through a constructor: the plan and the forward
// transform of the 2n−1 defining entries, computed once on the first apply
// so the 2n Krylov products of a solve each pay one forward transform of x,
// one pointwise product and one inverse transform — O(n log n) — instead of
// a fresh O(n log n)-with-full-setup poly.Mul. Built lazily because the
// field is an argument of MulVec, not of the constructor; fields without a
// fused kernel (wrappers, circuits, FpBig, the p = 2 sentinel and primes of
// small 2-adicity) leave ok = false and keep the schoolbook path, so traced
// circuit structure and op counts are untouched.
type nttCache[E any] struct {
	once sync.Once
	plan *poly.NTTPlan[E]
	dhat []E
	ok   bool
}

// convolve fills the cache on first use and, when the field supports the
// fused transform, writes coefficients [lo, hi) of D(z)·x(z) into out,
// reporting whether it did. The plan covers only what the window needs: a
// cyclic length N ≥ len(d)+len(x)−1−lo folds the product's tail onto
// coefficients below lo, so [lo, hi) comes out unchanged — for the
// Toeplitz/Hankel middle product that is 2n−1 points, not the full 3n−2.
// Every caller of one cache passes the same lengths and window.
func (c *nttCache[E]) convolve(f ff.Field[E], d, x []E, lo, hi int, out []E) bool {
	if c == nil {
		return false
	}
	c.once.Do(func() {
		plan, err := poly.NewNTTPlan(f, max(len(d), hi, len(d)+len(x)-1-lo))
		if err != nil {
			return // typed ErrNoRootOfUnity / ErrNoNTTKernel: schoolbook fallback
		}
		c.plan = plan
		c.dhat = plan.Transform(d)
		c.ok = true
	})
	if !c.ok {
		return false
	}
	c.plan.ConvolveHat(c.dhat, x, lo, hi, out)
	return true
}

// Toeplitz is an n×n Toeplitz matrix, stored by its 2n−1 defining entries:
//
//	T[i][j] = D[n−1+i−j]
//
// so D[0] is the top-right corner and D[2n−2] the bottom-left, matching the
// paper's display (4) with D = (a₀, a₁, …, a_{2n−2}).
type Toeplitz[E any] struct {
	N int
	D []E

	// ntt, when non-nil, holds the lazily-built persistent transform of D
	// (shared by copies of this value). Zero-value literals skip it and use
	// the schoolbook product; the constructors below always attach one.
	ntt *nttCache[E]
}

// NewToeplitz builds an n×n Toeplitz matrix from its 2n−1 entries.
func NewToeplitz[E any](d []E) Toeplitz[E] {
	if len(d)%2 == 0 {
		panic("structured: Toeplitz needs 2n−1 entries")
	}
	return Toeplitz[E]{N: (len(d) + 1) / 2, D: d, ntt: &nttCache[E]{}}
}

// RandomToeplitz draws the 2n−1 entries uniformly from the canonical subset.
func RandomToeplitz[E any](f ff.Field[E], src *ff.Source, n int, subset uint64) Toeplitz[E] {
	return NewToeplitz(ff.SampleVec(f, src, 2*n-1, subset))
}

// At returns T[i][j].
func (t Toeplitz[E]) At(i, j int) E { return t.D[t.N-1+i-j] }

// Dense materializes the matrix.
func (t Toeplitz[E]) Dense(f ff.Field[E]) *matrix.Dense[E] {
	return matrix.ToeplitzDense(f, t.D)
}

// Leading returns the leading principal k×k submatrix, itself Toeplitz:
// its defining entries are D[n−k : n+k−1].
func (t Toeplitz[E]) Leading(k int) Toeplitz[E] {
	if k < 1 || k > t.N {
		panic("structured: Leading out of range")
	}
	return Toeplitz[E]{N: k, D: t.D[t.N-k : t.N+k-1], ntt: &nttCache[E]{}}
}

// MulVec returns T·x with one polynomial multiplication: the i-th output
// coordinate is the coefficient of z^{n−1+i} in D(z)·x(z) (cost O(M(n))
// instead of n², the reduction the paper spells out before display (5)).
// On fields with a fused NTT kernel the transform of D is cached in the
// struct, so each product is one forward transform + pointwise + inverse.
func (t Toeplitz[E]) MulVec(f ff.Field[E], x []E) []E {
	if len(x) != t.N {
		panic("structured: MulVec dimension mismatch")
	}
	out := make([]E, t.N)
	if t.ntt.convolve(f, t.D, x, t.N-1, 2*t.N-1, out) {
		return out
	}
	prod := poly.Mul(f, t.D, x)
	for i := range out {
		out[i] = poly.Coef(f, prod, t.N-1+i)
	}
	return out
}

// Dims implements matrix.BlackBox.
func (t Toeplitz[E]) Dims() (int, int) { return t.N, t.N }

// Apply implements matrix.BlackBox.
func (t Toeplitz[E]) Apply(f ff.Field[E], x []E) []E { return t.MulVec(f, x) }

// Transpose returns Tᵀ, the Toeplitz matrix with reversed defining entries.
func (t Toeplitz[E]) Transpose() Toeplitz[E] {
	rev := make([]E, len(t.D))
	for i := range rev {
		rev[i] = t.D[len(t.D)-1-i]
	}
	return Toeplitz[E]{N: t.N, D: rev, ntt: &nttCache[E]{}}
}

// Hankel is an n×n Hankel matrix stored by its 2n−1 anti-diagonal entries:
// H[i][j] = D[i+j]. Its mirror image across a horizontal line is Toeplitz,
// the observation the paper uses in §4 to compute det(H) with the Toeplitz
// characteristic-polynomial circuit.
type Hankel[E any] struct {
	N int
	D []E

	// ntt: see Toeplitz — lazily-built persistent transform of D, attached
	// by the constructors, skipped by zero-value literals.
	ntt *nttCache[E]
}

// NewHankel builds an n×n Hankel matrix from its 2n−1 entries.
func NewHankel[E any](d []E) Hankel[E] {
	if len(d)%2 == 0 {
		panic("structured: Hankel needs 2n−1 entries")
	}
	return Hankel[E]{N: (len(d) + 1) / 2, D: d, ntt: &nttCache[E]{}}
}

// At returns H[i][j].
func (h Hankel[E]) At(i, j int) E { return h.D[i+j] }

// Dense materializes the matrix.
func (h Hankel[E]) Dense(f ff.Field[E]) *matrix.Dense[E] {
	return matrix.HankelDense(f, h.D)
}

// Mirror returns the Toeplitz matrix T with H = J·T, where J is the
// exchange (row-reversal) matrix: T's defining entries are H's reversed.
func (h Hankel[E]) Mirror() Toeplitz[E] {
	rev := make([]E, len(h.D))
	for i := range rev {
		rev[i] = h.D[len(h.D)-1-i]
	}
	return Toeplitz[E]{N: h.N, D: rev, ntt: &nttCache[E]{}}
}

// MulVec returns H·x: coordinate i is the coefficient of z^{n−1+i} in
// D(z)·x̃(z) with x̃ the reversal of x. Like Toeplitz.MulVec, the transform
// of D is cached when the field has a fused NTT kernel.
func (h Hankel[E]) MulVec(f ff.Field[E], x []E) []E {
	if len(x) != h.N {
		panic("structured: MulVec dimension mismatch")
	}
	xr := make([]E, h.N)
	for i := range xr {
		xr[i] = x[h.N-1-i]
	}
	out := make([]E, h.N)
	if h.ntt.convolve(f, h.D, xr, h.N-1, 2*h.N-1, out) {
		return out
	}
	prod := poly.Mul(f, h.D, xr)
	for i := range out {
		out[i] = poly.Coef(f, prod, h.N-1+i)
	}
	return out
}

// Dims implements matrix.BlackBox.
func (h Hankel[E]) Dims() (int, int) { return h.N, h.N }

// Apply implements matrix.BlackBox.
func (h Hankel[E]) Apply(f ff.Field[E], x []E) []E { return h.MulVec(f, x) }
