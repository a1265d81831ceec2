package structured

import (
	"testing"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/poly"
	"repro/internal/seq"
)

func TestMinPolyParallelMatchesBM(t *testing.T) {
	f := ff.MustFp64(ff.P31)
	src := ff.NewSource(181)
	for trial := 0; trial < 25; trial++ {
		l := 1 + src.Intn(6)
		g := make([]uint64, l+1)
		for i := 0; i < l; i++ {
			g[i] = src.Uint64n(ff.P31)
		}
		g[l] = 1
		init := ff.SampleVec[uint64](f, src, l, ff.P31)
		maxDeg := l + 2
		a := seq.Apply[uint64](f, g, init, 2*maxDeg)
		want, err := seq.MinPoly[uint64](f, a)
		if err != nil {
			t.Fatal(err)
		}
		if f.IsZero(poly.Coef[uint64](f, want, 0)) {
			continue // λ | minpoly: the documented degenerate case
		}
		got, err := MinPolyParallel[uint64](f, a, maxDeg)
		if err != nil {
			t.Fatal(err)
		}
		if !poly.Equal[uint64](f, got, want) {
			t.Fatalf("parallel %s != BM %s",
				poly.String[uint64](f, got), poly.String[uint64](f, want))
		}
	}
}

func TestMinPolyParallelMatrixSequence(t *testing.T) {
	// The use case of the paper: {u·Ãⁱ·b} for a preconditioned matrix.
	f := ff.MustFp64(ff.P31)
	src := ff.NewSource(183)
	n := 6
	var a *matrix.Dense[uint64]
	for {
		a = matrix.Random[uint64](f, src, n, n, ff.P31)
		if d, _ := matrix.Det[uint64](f, a); !f.IsZero(d) {
			break
		}
	}
	u := ff.SampleVec[uint64](f, src, n, ff.P31)
	b := ff.SampleVec[uint64](f, src, n, ff.P31)
	s := seq.MatrixSequence[uint64](f, a, u, b, 2*n)
	want, err := seq.MinPoly[uint64](f, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MinPolyParallel[uint64](f, s, n)
	if err != nil {
		t.Fatal(err)
	}
	if !poly.Equal[uint64](f, got, want) {
		t.Fatal("parallel minpoly disagrees on a matrix sequence")
	}
}

func TestMinPolyParallelZeroSequence(t *testing.T) {
	f := ff.MustFp64(ff.P31)
	got, err := MinPolyParallel[uint64](f, make([]uint64, 12), 6)
	if err != nil {
		t.Fatal(err)
	}
	if poly.Deg[uint64](f, got) != 0 {
		t.Fatalf("zero sequence minpoly degree %d", poly.Deg[uint64](f, got))
	}
}
