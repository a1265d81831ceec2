package matrix

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ff"
)

var f101 = ff.MustFp64(101)
var fp31 = ff.MustFp64(ff.P31)

func TestDenseBasics(t *testing.T) {
	f := f101
	m := FromRows[uint64](f, [][]int64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("At/FromRows wrong")
	}
	m.Set(0, 0, f.FromInt64(9))
	if m.At(0, 0) != 9 {
		t.Fatal("Set wrong")
	}
	c := m.Clone()
	c.Set(0, 0, f.FromInt64(7))
	if m.At(0, 0) != 9 {
		t.Fatal("Clone aliases original")
	}
	mt := m.Transpose()
	if mt.At(1, 0) != 2 || mt.At(0, 1) != 3 {
		t.Fatal("Transpose wrong")
	}
	if !ff.VecEqual[uint64](f, m.Row(1), ff.VecFromInt64[uint64](f, []int64{3, 4})) {
		t.Fatal("Row wrong")
	}
	if !ff.VecEqual[uint64](f, m.Col(1), ff.VecFromInt64[uint64](f, []int64{2, 4})) {
		t.Fatal("Col wrong")
	}
	id := Identity[uint64](f, 2)
	if !Mul[uint64](f, m, id).Equal(f, m) {
		t.Fatal("m·I != m")
	}
	if !NewDense[uint64](f, 3, 3).IsZero(f) {
		t.Fatal("NewDense not zero")
	}
}

func TestDenseArith(t *testing.T) {
	f := f101
	a := FromRows[uint64](f, [][]int64{{1, 2}, {3, 4}})
	b := FromRows[uint64](f, [][]int64{{5, 6}, {7, 8}})
	if !a.Add(f, b).Equal(f, FromRows[uint64](f, [][]int64{{6, 8}, {10, 12}})) {
		t.Fatal("Add wrong")
	}
	if !b.Sub(f, a).Equal(f, FromRows[uint64](f, [][]int64{{4, 4}, {4, 4}})) {
		t.Fatal("Sub wrong")
	}
	if !a.Scale(f, f.FromInt64(2)).Equal(f, FromRows[uint64](f, [][]int64{{2, 4}, {6, 8}})) {
		t.Fatal("Scale wrong")
	}
	// {1,2},{3,4} · {5,6},{7,8} = {19,22},{43,50}
	if !Mul[uint64](f, a, b).Equal(f, FromRows[uint64](f, [][]int64{{19, 22}, {43, 50}})) {
		t.Fatal("Mul wrong")
	}
	x := ff.VecFromInt64[uint64](f, []int64{1, 1})
	if !ff.VecEqual[uint64](f, a.MulVec(f, x), ff.VecFromInt64[uint64](f, []int64{3, 7})) {
		t.Fatal("MulVec wrong")
	}
	if !ff.VecEqual[uint64](f, a.VecMul(f, x), ff.VecFromInt64[uint64](f, []int64{4, 6})) {
		t.Fatal("VecMul wrong")
	}
	if a.Trace(f) != 5 {
		t.Fatal("Trace wrong")
	}
}

func TestSubmatrixLeading(t *testing.T) {
	f := f101
	m := FromRows[uint64](f, [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if !m.Leading(2).Equal(f, FromRows[uint64](f, [][]int64{{1, 2}, {4, 5}})) {
		t.Fatal("Leading wrong")
	}
	if !m.Submatrix(1, 3, 1, 3).Equal(f, FromRows[uint64](f, [][]int64{{5, 6}, {8, 9}})) {
		t.Fatal("Submatrix wrong")
	}
}

func TestMultipliersAgree(t *testing.T) {
	f := fp31
	src := ff.NewSource(42)
	multipliers := []Multiplier[uint64]{
		Classical[uint64]{},
		Parallel[uint64]{Workers: 3},
		Strassen[uint64]{Cutoff: 4},
		Blocked[uint64]{Tile: 7},
		ParallelStrassen[uint64]{Cutoff: 8},
		NewInstrumented[uint64](Parallel[uint64]{}),
	}
	for _, n := range []int{1, 2, 3, 7, 8, 16, 33} {
		a := Random[uint64](f, src, n, n, ff.P31)
		b := Random[uint64](f, src, n, n, ff.P31)
		want := mulClassical[uint64](f, a, b)
		for _, m := range multipliers {
			if got := m.Mul(f, a, b); !got.Equal(f, want) {
				t.Fatalf("n=%d: %s disagrees with classical", n, m.Name())
			}
		}
	}
	// Rectangular fall-through for Strassen.
	a := Random[uint64](f, src, 5, 9, ff.P31)
	b := Random[uint64](f, src, 9, 3, ff.P31)
	if !(Strassen[uint64]{}).Mul(f, a, b).Equal(f, mulClassical[uint64](f, a, b)) {
		t.Fatal("Strassen rectangular fallback wrong")
	}
}

func TestPow(t *testing.T) {
	f := f101
	a := FromRows[uint64](f, [][]int64{{1, 1}, {0, 1}})
	p := Pow[uint64](f, a, 5)
	if !p.Equal(f, FromRows[uint64](f, [][]int64{{1, 5}, {0, 1}})) {
		t.Fatal("Pow wrong")
	}
	if !Pow[uint64](f, a, 0).Equal(f, Identity[uint64](f, 2)) {
		t.Fatal("a^0 != I")
	}
}

func TestFactorSolveDet(t *testing.T) {
	f := fp31
	src := ff.NewSource(7)
	for _, n := range []int{1, 2, 3, 5, 10, 25} {
		a := Random[uint64](f, src, n, n, ff.P31)
		b := ff.SampleVec[uint64](f, src, n, ff.P31)
		lu, err := Factor[uint64](f, a)
		if err != nil {
			t.Fatal(err)
		}
		if lu.Rank < n {
			continue // singular random instance; astronomically unlikely
		}
		x, err := lu.Solve(f, b)
		if err != nil {
			t.Fatal(err)
		}
		if !ff.VecEqual[uint64](f, a.MulVec(f, x), b) {
			t.Fatalf("n=%d: Ax != b", n)
		}
		// det(A)·det(A⁻¹) = 1 and A·A⁻¹ = I.
		d := lu.Det(f)
		inv, err := Inverse[uint64](f, a)
		if err != nil {
			t.Fatal(err)
		}
		if !Mul[uint64](f, a, inv).Equal(f, Identity[uint64](f, n)) {
			t.Fatalf("n=%d: A·A⁻¹ != I", n)
		}
		dInv, err := Det[uint64](f, inv)
		if err != nil {
			t.Fatal(err)
		}
		if f.Mul(d, dInv) != 1 {
			t.Fatalf("n=%d: det(A)·det(A⁻¹) != 1", n)
		}
	}
}

func TestDetKnownValues(t *testing.T) {
	f := f101
	// det {{1,2},{3,4}} = −2 ≡ 99.
	d, err := Det[uint64](f, FromRows[uint64](f, [][]int64{{1, 2}, {3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	if d != 99 {
		t.Fatalf("det = %d, want 99", d)
	}
	// Permutation matrix with odd permutation: det = −1.
	p := FromRows[uint64](f, [][]int64{{0, 1}, {1, 0}})
	d, err = Det[uint64](f, p)
	if err != nil {
		t.Fatal(err)
	}
	if d != 100 {
		t.Fatalf("det(swap) = %d, want −1 ≡ 100", d)
	}
	// Singular matrix: det = 0, Solve errors.
	s := FromRows[uint64](f, [][]int64{{1, 2}, {2, 4}})
	d, err = Det[uint64](f, s)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("det(singular) = %d", d)
	}
	if _, err := Solve[uint64](f, s, []uint64{1, 1}); err != ErrSingular {
		t.Fatalf("Solve singular: err = %v", err)
	}
	if _, err := Inverse[uint64](f, s); err != ErrSingular {
		t.Fatalf("Inverse singular: err = %v", err)
	}
}

func TestRankAndNullspace(t *testing.T) {
	f := fp31
	src := ff.NewSource(8)
	for _, tc := range []struct{ n, r int }{{3, 1}, {4, 2}, {6, 3}, {8, 8}, {5, 0}} {
		a := randomRank[uint64](f, src, tc.n, tc.r)
		got, err := Rank[uint64](f, a)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.r {
			t.Fatalf("Rank = %d, want %d", got, tc.r)
		}
		ns, err := NullspaceDense[uint64](f, a)
		if err != nil {
			t.Fatal(err)
		}
		if ns.Cols != tc.n-tc.r {
			t.Fatalf("nullity = %d, want %d", ns.Cols, tc.n-tc.r)
		}
		if ns.Cols > 0 {
			prod := Mul[uint64](f, a, ns)
			if !prod.IsZero(f) {
				t.Fatal("A·N != 0")
			}
			nsRank, err := Rank[uint64](f, ns)
			if err != nil {
				t.Fatal(err)
			}
			if nsRank != ns.Cols {
				t.Fatal("nullspace basis not independent")
			}
		}
	}
}

// randomRank returns an n×n matrix of exact rank r as a product of random
// n×r and r×n full-rank factors.
func randomRank[E any](f ff.Field[E], src *ff.Source, n, r int) *Dense[E] {
	if r == 0 {
		return NewDense(f, n, n)
	}
	for {
		l := Random(f, src, n, r, 1<<20)
		rm := Random(f, src, r, n, 1<<20)
		m := Mul(f, l, rm)
		if got, _ := Rank(f, m); got == r {
			return m
		}
	}
}

func TestSparse(t *testing.T) {
	f := f101
	entries := []Entry[uint64]{
		{0, 0, f.FromInt64(1)}, {0, 2, f.FromInt64(2)},
		{1, 1, f.FromInt64(3)},
		{2, 0, f.FromInt64(4)}, {2, 2, f.FromInt64(5)},
		{2, 2, f.FromInt64(96)}, // duplicate: 5 + 96 ≡ 0, must be dropped
	}
	s := NewSparse[uint64](f, 3, 3, entries)
	if s.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 (dup summed to zero dropped)", s.NNZ())
	}
	d := s.Dense(f)
	x := ff.VecFromInt64[uint64](f, []int64{1, 2, 3})
	if !ff.VecEqual[uint64](f, s.Apply(f, x), d.MulVec(f, x)) {
		t.Fatal("sparse Apply disagrees with dense")
	}
	if !ff.VecEqual[uint64](f, s.ApplyTranspose(f, x), d.Transpose().MulVec(f, x)) {
		t.Fatal("sparse ApplyTranspose disagrees with dense")
	}
}

func TestRandomSparse(t *testing.T) {
	f := fp31
	src := ff.NewSource(5)
	s := RandomSparse[uint64](f, src, 40, 0.05, ff.P31)
	if s.NNZ() < 40 {
		t.Fatal("diagonal entries missing")
	}
	// Density sanity: expect about 40 + 0.05·40·39 ≈ 118 nonzeros.
	if s.NNZ() > 400 {
		t.Fatalf("NNZ = %d far above expectation", s.NNZ())
	}
	x := ff.SampleVec[uint64](f, src, 40, ff.P31)
	if !ff.VecEqual[uint64](f, s.Apply(f, x), s.Dense(f).MulVec(f, x)) {
		t.Fatal("RandomSparse Apply mismatch")
	}
}

func TestKrylov(t *testing.T) {
	f := fp31
	src := ff.NewSource(9)
	n, m := 8, 16
	a := Random[uint64](f, src, n, n, ff.P31)
	b := ff.SampleVec[uint64](f, src, n, ff.P31)

	iter := KrylovIterative[uint64](f, DenseBox[uint64]{a}, b, m)
	doub := KrylovDoubling[uint64](f, Classical[uint64]{}, a, b, m)
	if doub.Cols != m || doub.Rows != n {
		t.Fatalf("KrylovDoubling shape %dx%d", doub.Rows, doub.Cols)
	}
	for j := 0; j < m; j++ {
		if !ff.VecEqual[uint64](f, doub.Col(j), iter[j]) {
			t.Fatalf("Krylov column %d mismatch", j)
		}
	}
	// Projections agree.
	u := ff.SampleVec[uint64](f, src, n, ff.P31)
	p1 := ProjectKrylov[uint64](f, u, doub)
	p2, err := KrylovSequence[uint64](nil, f, DenseBox[uint64]{a}, u, b, m)
	if err != nil || !ff.VecEqual[uint64](f, p1, p2) {
		t.Fatalf("projection mismatch (err %v)", err)
	}
	// p(A)·b by applies, one column and a block, against the Krylov columns.
	c := ff.SampleVec[uint64](f, src, n, ff.P31)
	want := ff.VecZero[uint64](f, n)
	for j := range c {
		ff.VecMulAddInto[uint64](f, want, c[j], iter[j])
	}
	if got, err := PolyApply[uint64](nil, f, DenseBox[uint64]{a}, c, b); err != nil || !ff.VecEqual[uint64](f, got, want) {
		t.Fatalf("PolyApply mismatch (err %v)", err)
	}
	bm := Random[uint64](f, src, n, 3, ff.P31)
	blk, err := PolyApplyBlock[uint64](nil, f, Classical[uint64]{}, a, bm, c)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		col, _ := PolyApply[uint64](nil, f, DenseBox[uint64]{a}, c, bm.Col(j))
		if !ff.VecEqual[uint64](f, blk.Col(j), col) {
			t.Fatalf("PolyApplyBlock column %d mismatch", j)
		}
	}
	// A done context stops the apply loops.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := KrylovSequence[uint64](ctx, f, DenseBox[uint64]{a}, u, b, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("KrylovSequence on a canceled context: err = %v", err)
	}
	if _, err := PolyApply[uint64](ctx, f, DenseBox[uint64]{a}, c, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("PolyApply on a canceled context: err = %v", err)
	}
	// Non-power-of-two m.
	doub13 := KrylovDoubling[uint64](f, Classical[uint64]{}, a, b, 13)
	if doub13.Cols != 13 {
		t.Fatalf("m=13: got %d columns", doub13.Cols)
	}
	for j := 0; j < 13; j++ {
		if !ff.VecEqual[uint64](f, doub13.Col(j), iter[j]) {
			t.Fatalf("m=13 column %d mismatch", j)
		}
	}
}

func TestComposedBox(t *testing.T) {
	f := f101
	a := FromRows[uint64](f, [][]int64{{1, 2}, {3, 4}})
	b := FromRows[uint64](f, [][]int64{{0, 1}, {1, 0}})
	comp := ComposedBox[uint64]{Boxes: []BlackBox[uint64]{DenseBox[uint64]{a}, DenseBox[uint64]{b}}}
	x := ff.VecFromInt64[uint64](f, []int64{5, 6})
	want := Mul[uint64](f, a, b).MulVec(f, x)
	if !ff.VecEqual[uint64](f, comp.Apply(f, x), want) {
		t.Fatal("ComposedBox wrong")
	}
	r, c := comp.Dims()
	if r != 2 || c != 2 {
		t.Fatal("ComposedBox dims wrong")
	}
}

func TestHankelToeplitzDense(t *testing.T) {
	f := f101
	h := ff.VecFromInt64[uint64](f, []int64{1, 2, 3, 4, 5}) // n = 3
	hm := HankelDense[uint64](f, h)
	want := FromRows[uint64](f, [][]int64{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}})
	if !hm.Equal(f, want) {
		t.Fatal("HankelDense wrong")
	}
	tm := ToeplitzDense[uint64](f, h)
	wantT := FromRows[uint64](f, [][]int64{{3, 2, 1}, {4, 3, 2}, {5, 4, 3}})
	if !tm.Equal(f, wantT) {
		t.Fatal("ToeplitzDense wrong")
	}
}

func TestPreconditioner(t *testing.T) {
	f := fp31
	src := ff.NewSource(11)
	n := 6
	p := NewPreconditioner[uint64](f, src, n, ff.P31)
	a := Random[uint64](f, src, n, n, ff.P31)
	atilde := p.Apply(f, Classical[uint64]{}, a)
	// Against the explicit product A·H·D.
	want := Mul[uint64](f, Mul[uint64](f, a, p.H), p.D)
	if !atilde.Equal(f, want) {
		t.Fatal("Preconditioner.Apply != A·H·D")
	}
	// det(D) = product of diagonal entries.
	dd, err := Det[uint64](f, p.D)
	if err != nil {
		t.Fatal(err)
	}
	if p.DetD(f) != dd {
		t.Fatal("DetD mismatch")
	}
	// Theorem 2 property should essentially always hold at |S| = P31.
	ok, err := AllLeadingMinorsNonZero[uint64](f, atilde)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("leading minors vanished at huge |S| (prob < 1e-8); suspicious")
	}
}

func TestAllLeadingMinorsDetectsZero(t *testing.T) {
	f := f101
	// (0,0) entry zero ⇒ first minor zero.
	m := FromRows[uint64](f, [][]int64{{0, 1}, {1, 0}})
	ok, err := AllLeadingMinorsNonZero[uint64](f, m)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("zero minor not detected")
	}
}
