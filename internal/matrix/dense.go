// Package matrix provides the dense, sparse and black-box linear-algebra
// substrate of the reproduction: the objects Kaltofen–Pan's algorithms act
// on, the Gaussian-elimination baseline they are compared against
// (Bunch–Hopcroft relate its cost to matrix multiplication), Strassen's
// sub-cubic multiplication standing in for the paper's O(n^ω) black box,
// Krylov-sequence generation with Keller-Gehrig doubling (the paper's
// equation (9)), and the random Hankel/diagonal preconditioners of
// Theorem 2.
package matrix

import (
	"fmt"

	"repro/internal/ff"
)

// Dense is a dense r×c matrix over an abstract field, stored row-major.
// Elements are treated as immutable; entries may be shared between
// matrices.
type Dense[E any] struct {
	Rows, Cols int
	Data       []E // len = Rows*Cols, row-major
}

// NewDense returns a zero r×c matrix.
func NewDense[E any](f ff.Field[E], r, c int) *Dense[E] {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	d := &Dense[E]{Rows: r, Cols: c, Data: make([]E, r*c)}
	for i := range d.Data {
		d.Data[i] = f.Zero()
	}
	return d
}

// Identity returns the n×n identity matrix.
func Identity[E any](f ff.Field[E], n int) *Dense[E] {
	m := NewDense(f, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, f.One())
	}
	return m
}

// FromRows builds a matrix from integer rows (all rows must have equal
// length); a convenience for tests and examples.
func FromRows[E any](f ff.Field[E], rows [][]int64) *Dense[E] {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := NewDense(f, r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		for j, v := range row {
			m.Set(i, j, f.FromInt64(v))
		}
	}
	return m
}

// Random returns an r×c matrix with independent uniform entries from the
// canonical subset of size subset.
func Random[E any](f ff.Field[E], src *ff.Source, r, c int, subset uint64) *Dense[E] {
	m := &Dense[E]{Rows: r, Cols: c, Data: make([]E, r*c)}
	for i := range m.Data {
		m.Data[i] = ff.Sample(f, src, subset)
	}
	return m
}

// At returns the (i, j) entry.
func (m *Dense[E]) At(i, j int) E {
	return m.Data[i*m.Cols+j]
}

// Set assigns the (i, j) entry.
func (m *Dense[E]) Set(i, j int, v E) {
	m.Data[i*m.Cols+j] = v
}

// Clone returns a copy sharing no slice structure with m.
func (m *Dense[E]) Clone() *Dense[E] {
	return &Dense[E]{Rows: m.Rows, Cols: m.Cols, Data: append([]E(nil), m.Data...)}
}

// Row returns a copy of row i.
func (m *Dense[E]) Row(i int) []E {
	return append([]E(nil), m.Data[i*m.Cols:(i+1)*m.Cols]...)
}

// Col returns a copy of column j.
func (m *Dense[E]) Col(j int) []E {
	c := make([]E, m.Rows)
	for i := range c {
		c[i] = m.At(i, j)
	}
	return c
}

// SetCol overwrites column j with c.
func (m *Dense[E]) SetCol(j int, c []E) {
	if len(c) != m.Rows {
		panic("matrix: SetCol dimension mismatch")
	}
	for i, v := range c {
		m.Data[i*m.Cols+j] = v
	}
}

// parallelCopyMin is the element count above which pure data-movement
// helpers (Transpose, hcat) fan out over the shared worker pool. Copies
// involve no field operations, so this path is safe for every element type,
// including circuit wires.
const parallelCopyMin = 1 << 14

// Transpose returns mᵀ. Large matrices transpose in parallel row bands on
// the shared worker pool.
func (m *Dense[E]) Transpose() *Dense[E] {
	t := &Dense[E]{Rows: m.Cols, Cols: m.Rows, Data: make([]E, len(m.Data))}
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, v := range row {
				t.Data[j*t.Cols+i] = v
			}
		}
	}
	if len(m.Data) >= parallelCopyMin {
		parallelFor(m.Rows, 32, body)
	} else {
		body(0, m.Rows)
	}
	return t
}

// parallelOpsMin is the element count above which elementwise field-op
// helpers fan out, provided the field is safe for concurrent use.
const parallelOpsMin = 1 << 13

// ScaleColumnsDiag returns m·D for the diagonal matrix with entries d —
// column j of the result is d[j]·(column j of m). Right-multiplying by a
// diagonal never needs a full matrix product; the preconditioning pipelines
// (Ã = A·H·D) use this as their D step. Large products over
// concurrency-safe fields run in parallel row bands.
func ScaleColumnsDiag[E any](f ff.Field[E], m *Dense[E], d []E) *Dense[E] {
	if len(d) != m.Cols {
		panic("matrix: ScaleColumnsDiag dimension mismatch")
	}
	out := &Dense[E]{Rows: m.Rows, Cols: m.Cols, Data: make([]E, len(m.Data))}
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			orow := out.Data[i*m.Cols : (i+1)*m.Cols]
			for j, v := range row {
				orow[j] = f.Mul(v, d[j])
			}
		}
	}
	if len(m.Data) >= parallelOpsMin && ff.IsConcurrentSafe(f) {
		parallelFor(m.Rows, 32, body)
	} else {
		body(0, m.Rows)
	}
	return out
}

// ScaleRowsDiag returns D·m for the diagonal matrix with entries d — row i
// of the result is d[i]·(row i of m); the undo step of the preconditioned
// inverses. Large products over concurrency-safe fields run in parallel.
func ScaleRowsDiag[E any](f ff.Field[E], m *Dense[E], d []E) *Dense[E] {
	if len(d) != m.Rows {
		panic("matrix: ScaleRowsDiag dimension mismatch")
	}
	out := &Dense[E]{Rows: m.Rows, Cols: m.Cols, Data: make([]E, len(m.Data))}
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			di := d[i]
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			orow := out.Data[i*m.Cols : (i+1)*m.Cols]
			for j, v := range row {
				orow[j] = f.Mul(di, v)
			}
		}
	}
	if len(m.Data) >= parallelOpsMin && ff.IsConcurrentSafe(f) {
		parallelFor(m.Rows, 32, body)
	} else {
		body(0, m.Rows)
	}
	return out
}

// Leading returns the leading principal k×k submatrix (a copy).
func (m *Dense[E]) Leading(k int) *Dense[E] {
	if k > m.Rows || k > m.Cols {
		panic("matrix: leading submatrix too large")
	}
	s := &Dense[E]{Rows: k, Cols: k, Data: make([]E, k*k)}
	for i := 0; i < k; i++ {
		copy(s.Data[i*k:(i+1)*k], m.Data[i*m.Cols:i*m.Cols+k])
	}
	return s
}

// Submatrix returns the block with the given half-open row/column ranges.
func (m *Dense[E]) Submatrix(r0, r1, c0, c1 int) *Dense[E] {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic("matrix: submatrix out of range")
	}
	s := &Dense[E]{Rows: r1 - r0, Cols: c1 - c0, Data: make([]E, (r1-r0)*(c1-c0))}
	for i := r0; i < r1; i++ {
		copy(s.Data[(i-r0)*s.Cols:(i-r0+1)*s.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return s
}

// Equal reports whether m and o are elementwise equal.
func (m *Dense[E]) Equal(f ff.Field[E], o *Dense[E]) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if !f.Equal(m.Data[i], o.Data[i]) {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry of m is zero.
func (m *Dense[E]) IsZero(f ff.Field[E]) bool {
	for i := range m.Data {
		if !f.IsZero(m.Data[i]) {
			return false
		}
	}
	return true
}

// Add returns m + o.
func (m *Dense[E]) Add(f ff.Field[E], o *Dense[E]) *Dense[E] {
	m.mustSameShape(o)
	out := &Dense[E]{Rows: m.Rows, Cols: m.Cols, Data: make([]E, len(m.Data))}
	for i := range m.Data {
		out.Data[i] = f.Add(m.Data[i], o.Data[i])
	}
	return out
}

// Sub returns m − o.
func (m *Dense[E]) Sub(f ff.Field[E], o *Dense[E]) *Dense[E] {
	m.mustSameShape(o)
	out := &Dense[E]{Rows: m.Rows, Cols: m.Cols, Data: make([]E, len(m.Data))}
	for i := range m.Data {
		out.Data[i] = f.Sub(m.Data[i], o.Data[i])
	}
	return out
}

// Scale returns s·m.
func (m *Dense[E]) Scale(f ff.Field[E], s E) *Dense[E] {
	out := &Dense[E]{Rows: m.Rows, Cols: m.Cols, Data: make([]E, len(m.Data))}
	for i := range m.Data {
		out.Data[i] = f.Mul(s, m.Data[i])
	}
	return out
}

// MulVec returns m·x for a column vector x: fused lazy-reduction dots over
// kernel-bearing fields, balanced trees (O(log n) traced depth) everywhere
// else.
func (m *Dense[E]) MulVec(f ff.Field[E], x []E) []E {
	if len(x) != m.Cols {
		panic("matrix: MulVec dimension mismatch")
	}
	out := make([]E, m.Rows)
	if ker, ok := ff.KernelsOf(f); ok {
		for i := range out {
			out[i] = ker.DotInto(m.Data[i*m.Cols:(i+1)*m.Cols], x)
		}
		return out
	}
	for i := range out {
		out[i] = ff.Dot(f, m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
	return out
}

// MulVecEquals reports whether m·x = b, row by row without allocating, and
// stops at the first row that differs: the Las Vegas drivers' A·x = b check.
func (m *Dense[E]) MulVecEquals(f ff.Field[E], x, b []E) bool {
	if len(x) != m.Cols || len(b) != m.Rows {
		panic("matrix: MulVecEquals dimension mismatch")
	}
	ker, fused := ff.KernelsOf(f)
	for i := range b {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var d E
		if fused {
			d = ker.DotInto(row, x)
		} else {
			d = ff.Dot(f, row, x)
		}
		if !f.Equal(d, b[i]) {
			return false
		}
	}
	return true
}

// VecMul returns xᵀ·m for a row vector x. Over a field with fused kernels
// it streams row-major (out += x[i]·row_i, one MulAddVec per row, no
// temporaries); the generic path keeps the per-column balanced sums.
func (m *Dense[E]) VecMul(f ff.Field[E], x []E) []E {
	if len(x) != m.Rows {
		panic("matrix: VecMul dimension mismatch")
	}
	out := make([]E, m.Cols)
	if ker, ok := ff.KernelsOf(f); ok {
		for j := range out {
			out[j] = f.Zero()
		}
		for i := 0; i < m.Rows; i++ {
			ker.MulAddVec(out, x[i], m.Data[i*m.Cols:(i+1)*m.Cols])
		}
		return out
	}
	for j := 0; j < m.Cols; j++ {
		terms := make([]E, m.Rows)
		for i := 0; i < m.Rows; i++ {
			terms[i] = f.Mul(x[i], m.At(i, j))
		}
		out[j] = ff.SumTree(f, terms)
	}
	return out
}

// Trace returns the trace of a square matrix via a balanced sum.
func (m *Dense[E]) Trace(f ff.Field[E]) E {
	m.mustSquare()
	d := make([]E, m.Rows)
	for i := range d {
		d[i] = m.At(i, i)
	}
	return ff.SumTree(f, d)
}

// Diagonal returns a square matrix with the given diagonal entries.
func Diagonal[E any](f ff.Field[E], d []E) *Dense[E] {
	m := NewDense(f, len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// String formats small matrices for diagnostics.
func (m *Dense[E]) String(f ff.Field[E]) string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += ff.VecString(f, m.Data[i*m.Cols:(i+1)*m.Cols]) + "\n"
	}
	return s
}

func (m *Dense[E]) mustSameShape(o *Dense[E]) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

func (m *Dense[E]) mustSquare() {
	if m.Rows != m.Cols {
		panic("matrix: operation requires a square matrix")
	}
}
