package matrix

import (
	"context"

	"repro/internal/ff"
)

// BlackBox is a matrix accessed only through matrix-times-vector products,
// the access model of Wiedemann's method. Dense, Sparse and structured
// (Toeplitz/Hankel) matrices all implement it.
type BlackBox[E any] interface {
	// Dims returns (rows, cols).
	Dims() (int, int)
	// Apply returns A·x.
	Apply(f ff.Field[E], x []E) []E
}

// DenseBox adapts a Dense matrix to the BlackBox interface.
type DenseBox[E any] struct{ M *Dense[E] }

// Dims returns the matrix shape.
func (b DenseBox[E]) Dims() (int, int) { return b.M.Rows, b.M.Cols }

// Apply returns M·x.
func (b DenseBox[E]) Apply(f ff.Field[E], x []E) []E { return b.M.MulVec(f, x) }

// SparseBox adapts a Sparse matrix to the BlackBox interface.
type SparseBox[E any] struct{ M *Sparse[E] }

// Dims returns the matrix shape.
func (b SparseBox[E]) Dims() (int, int) { return b.M.Rows(), b.M.Cols() }

// Apply returns M·x.
func (b SparseBox[E]) Apply(f ff.Field[E], x []E) []E { return b.M.Apply(f, x) }

// DiagBox is a diagonal matrix as a black box: Apply costs n scalar
// multiplications. It is the D factor of the Kaltofen–Pan preconditioner
// Ã = A·H·D in the implicit (never materialized) route.
type DiagBox[E any] struct{ D []E }

// Dims returns the (square) shape.
func (b DiagBox[E]) Dims() (int, int) { return len(b.D), len(b.D) }

// Apply returns diag(D)·x.
func (b DiagBox[E]) Apply(f ff.Field[E], x []E) []E {
	if len(x) != len(b.D) {
		panic("matrix: DiagBox dimension mismatch")
	}
	out := make([]E, len(x))
	for i := range out {
		out[i] = f.Mul(b.D[i], x[i])
	}
	return out
}

// ComposedBox applies a chain of black boxes right to left: (B₁∘B₂∘…)(x).
// It represents products like Ã = A·H·D without forming them, the way
// Wiedemann's preconditioned algorithm consumes them.
type ComposedBox[E any] struct{ Boxes []BlackBox[E] }

// Dims returns (rows of the first box, cols of the last box).
func (c ComposedBox[E]) Dims() (int, int) {
	r, _ := c.Boxes[0].Dims()
	_, cl := c.Boxes[len(c.Boxes)-1].Dims()
	return r, cl
}

// Apply returns B₁(B₂(…(x))).
func (c ComposedBox[E]) Apply(f ff.Field[E], x []E) []E {
	for i := len(c.Boxes) - 1; i >= 0; i-- {
		x = c.Boxes[i].Apply(f, x)
	}
	return x
}

// KrylovIterative returns the m vectors b, Ab, A²b, …, A^{m−1}b by repeated
// application — the sequential way to drive Wiedemann's method (cost
// m − 1 black-box products).
func KrylovIterative[E any](f ff.Field[E], a BlackBox[E], b []E, m int) [][]E {
	out := make([][]E, m)
	cur := ff.VecCopy(b)
	for i := 0; i < m; i++ {
		out[i] = cur
		if i+1 < m {
			cur = a.Apply(f, cur)
		}
	}
	return out
}

// KrylovDoubling returns [b | Ab | … | A^{m−1}b] as the columns of a dense
// matrix, computed by the doubling argument of the paper's equation (9):
//
//	A^{2^i}·(v  Av  …  A^{2^i−1}v) = (A^{2^i}v  …  A^{2^{i+1}−1}v)
//
// (Borodin–Munro p. 128; Keller-Gehrig 1985). Each of the ⌈log₂ m⌉ rounds
// is one matrix product plus one squaring, so the whole Krylov matrix costs
// O(n^ω log m) operations at O((log n)²) circuit depth — this is what makes
// the Kaltofen–Pan solver processor efficient, where the iterative method
// would have depth Ω(n). On real cores the same structure parallelizes: the
// two products per round go through mul (plug in Parallel or
// ParallelStrassen for the pooled kernels) and the column-batch
// concatenation fans out over the shared worker pool.
func KrylovDoubling[E any](f ff.Field[E], mul Multiplier[E], a *Dense[E], b []E, m int) *Dense[E] {
	a.mustSquare()
	n := a.Rows
	if len(b) != n {
		panic("matrix: KrylovDoubling dimension mismatch")
	}
	// The single-vector case of the block doubling: K starts as the one
	// column b and each round appends A^{2^i}·K.
	col := &Dense[E]{Rows: n, Cols: 1, Data: append([]E(nil), b...)}
	return KrylovBlockDoubling(f, mul, a, col, m)
}

// pollEvery is how many applies the context-aware loops below make between
// two checks of their context. A check is a non-blocking channel receive,
// far cheaper than one apply, so a cancellation is seen within a few
// applies instead of at the end of a phase.
const pollEvery = 4

// ctxErr reports ctx's error once it is done (a nil ctx never is).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// KrylovSequence returns the m scalars u·Aⁱ·v, i = 0..m−1, by m−1 applies
// of A: the work-optimal way to build Wiedemann's projected sequence, with
// O(n) vectors of memory instead of the m Krylov vectors. ctx (nil never
// cancels) is polled every pollEvery applies; a cancellation returns
// ctx.Err().
func KrylovSequence[E any](ctx context.Context, f ff.Field[E], a BlackBox[E], u, v []E, m int) ([]E, error) {
	out := make([]E, m)
	cur := v
	for i := 0; i < m; i++ {
		out[i] = ff.DotFused(f, u, cur)
		if i+1 == m {
			break
		}
		if i%pollEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		cur = a.Apply(f, cur)
	}
	return out, nil
}

// PolyApply returns Σ_{j<len(c)} c[j]·Aʲ·v — p(A)·v for the polynomial with
// coefficients c, low degree first — with len(c)−1 applies of A folded into
// one accumulator as they come. This is the Cayley–Hamilton backsolve of
// the Theorem 4 solver on concrete fields and the annihilation check of a
// certified minimum polynomial: callers that hold no Krylov vectors.
// (Wiedemann's solve keeps the vectors its sequence built and sums those
// instead, with no further applies.) ctx is polled as in KrylovSequence.
func PolyApply[E any](ctx context.Context, f ff.Field[E], a BlackBox[E], c, v []E) ([]E, error) {
	acc := ff.VecZero(f, len(v))
	cur := v
	for j := range c {
		if j > 0 {
			if j%pollEvery == 1 {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
			}
			cur = a.Apply(f, cur)
		}
		ff.VecMulAddInto(f, acc, c[j], cur)
	}
	return acc, nil
}

// hcat concatenates the column batches [a | b] of a doubling round. The
// copies carry no field operations, so large batches are interleaved in
// parallel on the shared worker pool regardless of element type.
func hcat[E any](f ff.Field[E], a, b *Dense[E]) *Dense[E] {
	if a.Rows != b.Rows {
		panic("matrix: hcat row mismatch")
	}
	out := &Dense[E]{Rows: a.Rows, Cols: a.Cols + b.Cols, Data: make([]E, a.Rows*(a.Cols+b.Cols))}
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Data[i*out.Cols:i*out.Cols+a.Cols], a.Data[i*a.Cols:(i+1)*a.Cols])
			copy(out.Data[i*out.Cols+a.Cols:(i+1)*out.Cols], b.Data[i*b.Cols:(i+1)*b.Cols])
		}
	}
	if len(out.Data) >= parallelCopyMin {
		parallelFor(a.Rows, 32, body)
	} else {
		body(0, a.Rows)
	}
	return out
}

// ProjectKrylov returns the scalars a_i = u·k_i for the columns k_i of the
// Krylov matrix: the linearly generated sequence {u A^i b} of Wiedemann's
// method, computed with balanced inner products.
func ProjectKrylov[E any](f ff.Field[E], u []E, k *Dense[E]) []E {
	if len(u) != k.Rows {
		panic("matrix: ProjectKrylov dimension mismatch")
	}
	return k.VecMul(f, u)
}

// ProjectSequence returns u·v_i for a list of vectors, with fused
// allocation-free dots over kernel-bearing fields.
func ProjectSequence[E any](f ff.Field[E], u []E, vs [][]E) []E {
	out := make([]E, len(vs))
	for i, v := range vs {
		out[i] = ff.DotFused(f, u, v)
	}
	return out
}
