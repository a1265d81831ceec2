package matrix

import (
	"context"

	"repro/internal/ff"
)

// Block-Krylov machinery for the batched multi-RHS solve engine: the
// doubling of the paper's equation (9) generalized from one starting vector
// to a block B of k columns (the route of the circuit builder and the
// kernel-less fields), and the block Cayley–Hamilton sum by repeated
// products (the route of the concrete fields).

// KrylovBlockDoubling returns [B | A·B | … | A^{m−1}·B] as one n × m·k
// dense matrix (k = B.Cols), with column group j holding Aʲ·B. Each of the
// ⌈log₂ m⌉ rounds is one matrix product against the whole accumulated
// block, so the k right-hand sides share every squaring and ride the
// multiplier's fast paths as fused matrix–matrix work instead of k
// separate doubling passes.
func KrylovBlockDoubling[E any](f ff.Field[E], mul Multiplier[E], a, b *Dense[E], m int) *Dense[E] {
	a.mustSquare()
	n := a.Rows
	if b.Rows != n {
		panic("matrix: KrylovBlockDoubling dimension mismatch")
	}
	w := b.Cols
	if m <= 0 || w == 0 {
		return &Dense[E]{Rows: n, Cols: 0}
	}
	k := b.Clone()
	pow := a // A^{2^i} for the current round
	for k.Cols < m*w {
		k = hcat(f, k, mul.Mul(f, pow, k))
		if k.Cols < m*w {
			// Square only when another round is coming (no trailing unused
			// squaring).
			pow = mul.Mul(f, pow, pow)
		}
	}
	if k.Cols > m*w {
		k = k.Submatrix(0, n, 0, m*w)
	}
	return k
}

// PolyApplyBlock is PolyApply on the k columns of B at once: it returns
// Σ_{j<len(c)} c[j]·Aʲ·B with one n×n by n×k product through mul per term
// past the first, so the k columns share every pass over A. ctx is polled
// as in KrylovSequence.
func PolyApplyBlock[E any](ctx context.Context, f ff.Field[E], mul Multiplier[E], a, b *Dense[E], c []E) (*Dense[E], error) {
	a.mustSquare()
	if b.Rows != a.Rows {
		panic("matrix: PolyApplyBlock dimension mismatch")
	}
	acc := NewDense(f, b.Rows, b.Cols)
	cur := b
	for j := range c {
		if j > 0 {
			if j%pollEvery == 1 {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
			}
			cur = mul.Mul(f, a, cur)
		}
		ff.VecMulAddInto(f, acc.Data, c[j], cur.Data)
	}
	return acc, nil
}

// CombineKrylovBlocks returns Σ_j coeffs[j]·Wⱼ for the column groups
// Wⱼ = W[:, j·w:(j+1)·w] of a block Krylov matrix — the Cayley–Hamilton
// accumulation of the batched backsolve, evaluated for all k right-hand
// sides at once. Rows are independent, so large combines run as fused
// mul-add sweeps on the shared worker pool; the generic (kernel-less) path
// keeps a plain sequential accumulation, which is fine because the batch
// engine is never traced as a circuit.
func CombineKrylovBlocks[E any](f ff.Field[E], wm *Dense[E], w int, coeffs []E) *Dense[E] {
	m := len(coeffs)
	if w <= 0 || wm.Cols < m*w {
		panic("matrix: CombineKrylovBlocks shape mismatch")
	}
	out := NewDense(f, wm.Rows, w)
	ker, fused := ff.KernelsOf(f)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*w : (i+1)*w]
			wrow := wm.Data[i*wm.Cols : i*wm.Cols+m*w]
			if fused {
				for j := 0; j < m; j++ {
					ker.MulAddVec(orow, coeffs[j], wrow[j*w:(j+1)*w])
				}
				continue
			}
			for j := 0; j < m; j++ {
				c := coeffs[j]
				for t, v := range wrow[j*w : (j+1)*w] {
					orow[t] = f.Add(orow[t], f.Mul(c, v))
				}
			}
		}
	}
	if wm.Rows*m*w >= parallelOpsMin && ff.IsConcurrentSafe(f) {
		parallelFor(wm.Rows, 8, body)
	} else {
		body(0, wm.Rows)
	}
	return out
}
