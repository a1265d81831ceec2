package structured_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/charpoly"
	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/poly"
	"repro/internal/structured"
)

// routeCase is one Toeplitz input of the CharPoly differential test.
// derogatory marks inputs whose minimum polynomial has degree < n, which
// must take the Newton fallback.
type routeCase struct {
	name       string
	t          structured.Toeplitz[uint64]
	derogatory bool
}

func routeCases(f ff.Fp64, src *ff.Source, n int) []routeCase {
	p := f.Modulus()
	cs := []routeCase{{name: "random", t: structured.RandomToeplitz[uint64](f, src, n, p)}}

	// Singular but non-derogatory: a circulant with zero row sums
	// (all-ones kernel vector), and the nilpotent single Jordan block S.
	circ := ff.SampleVec[uint64](f, src, n, p)
	circ[n-1] = f.Neg(ff.SumTree[uint64](f, circ[:n-1]))
	d := make([]uint64, 2*n-1)
	for i := range d {
		d[i] = circ[i%n]
	}
	cs = append(cs, routeCase{name: "singular-circulant", t: structured.NewToeplitz(d)})
	shift := ff.VecZero[uint64](f, 2*n-1)
	if n > 1 {
		shift[n] = f.One()
	}
	cs = append(cs, routeCase{name: "nilpotent-shift", t: structured.NewToeplitz(shift)})

	if n >= 2 {
		// Scalar c·I: minimum polynomial λ − c.
		scalar := ff.VecZero[uint64](f, 2*n-1)
		scalar[n-1] = ff.SampleNonZero[uint64](f, src, p)
		cs = append(cs, routeCase{name: "scalar", t: structured.NewToeplitz(scalar), derogatory: true})
	}
	if n >= 4 {
		// Repeated symbol: T[i][j] depends on (i−j) mod 2 only, so rank ≤ 2
		// and the eigenvalue 0 has geometric multiplicity ≥ n−2 ≥ 2.
		s := ff.SampleVec[uint64](f, src, 2, p)
		rep := make([]uint64, 2*n-1)
		for i := range rep {
			rep[i] = s[(i+n-1)%2]
		}
		cs = append(cs, routeCase{name: "repeated-symbol", t: structured.NewToeplitz(rep), derogatory: true})
	}
	return cs
}

// TestCharPolyRoutesAgree checks the Berlekamp–Massey route of CharPoly
// against the Theorem 3 Newton route it replaces on fused-kernel fields:
// identical polynomials on random, singular and derogatory inputs, the
// Newton fallback on every derogatory one, and the same error when the
// characteristic is too small. The determinants read off either route
// (GSSolver, DetHankel, kp.Det) must match dense PLU elimination.
func TestCharPolyRoutesAgree(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 64}
	for _, p := range []uint64{97, ff.PNTT62} {
		f := ff.MustFp64(p)
		src := ff.NewSource(2203)
		bmTaken := 0
		for _, n := range sizes {
			for _, c := range routeCases(f, src, n) {
				name := fmt.Sprintf("p=%d/n=%d/%s", p, n, c.name)
				want, err := structured.CharPolyNewton(f, c.t)
				if err != nil {
					t.Fatalf("%s: Newton: %v", name, err)
				}
				got, err := structured.CharPoly[uint64](f, c.t)
				if err != nil {
					t.Fatalf("%s: CharPoly: %v", name, err)
				}
				if !poly.Equal[uint64](f, got, want) || len(got) != n+1 {
					t.Fatalf("%s: CharPoly %s != Newton %s", name,
						poly.String[uint64](f, got), poly.String[uint64](f, want))
				}
				bm, ok, err := structured.CharPolyBM(f, c.t)
				if err != nil {
					t.Fatalf("%s: BM: %v", name, err)
				}
				if c.derogatory && ok {
					t.Fatalf("%s: derogatory input took the BM route", name)
				}
				if p == ff.PNTT62 && c.name == "random" && !ok {
					t.Fatalf("%s: random input fell back to Newton", name)
				}
				if ok {
					bmTaken++
					if !poly.Equal[uint64](f, bm, want) {
						t.Fatalf("%s: BM generator %s != Newton %s", name,
							poly.String[uint64](f, bm), poly.String[uint64](f, want))
					}
				}
				checkDets(t, name, f, c.t)
			}
		}
		if bmTaken == 0 {
			t.Fatalf("p=%d: no input took the BM route", p)
		}
		if cp, err := structured.CharPoly[uint64](f, structured.Toeplitz[uint64]{}); err != nil || len(cp) != 1 || cp[0] != f.One() {
			t.Fatalf("p=%d, n=0: CharPoly = %v, %v; want 1", p, cp, err)
		}
	}

	// char(F) ≤ n: both routes refuse with the same error.
	for _, p := range []uint64{2, 5, 13} {
		f := ff.MustFp64(p)
		tm := structured.RandomToeplitz[uint64](f, ff.NewSource(p), 16, p)
		_, errNewton := structured.CharPolyNewton(f, tm)
		_, err := structured.CharPoly[uint64](f, tm)
		if !errors.Is(err, charpoly.ErrSmallCharacteristic) || !errors.Is(errNewton, charpoly.ErrSmallCharacteristic) {
			t.Fatalf("p=%d, n=16: CharPoly err %v, Newton err %v; want ErrSmallCharacteristic from both", p, err, errNewton)
		}
	}
}

// checkDets compares the determinants derived from CharPoly with dense PLU
// elimination on the same T (and on the Hankel matrix with T's entries).
func checkDets(t *testing.T, name string, f ff.Fp64, tm structured.Toeplitz[uint64]) {
	t.Helper()
	plu := func(a *matrix.Dense[uint64]) uint64 {
		d, err := matrix.Det[uint64](f, a)
		if errors.Is(err, matrix.ErrSingular) {
			return 0
		}
		if err != nil {
			t.Fatalf("%s: PLU: %v", name, err)
		}
		return d
	}
	want := plu(tm.Dense(f))
	gs, err := structured.NewGSSolver[uint64](f, tm)
	switch {
	case errors.Is(err, matrix.ErrSingular):
		if want != 0 {
			t.Fatalf("%s: GSSolver reports singular, PLU det = %d", name, want)
		}
	case err != nil:
		t.Fatalf("%s: NewGSSolver: %v", name, err)
	case gs.Det(f) != want:
		t.Fatalf("%s: GSSolver.Det = %d, PLU = %d", name, gs.Det(f), want)
	}

	h := structured.NewHankel(tm.D)
	dh, err := structured.DetHankel[uint64](f, h)
	if err != nil {
		t.Fatalf("%s: DetHankel: %v", name, err)
	}
	if wh := plu(h.Dense(f)); dh != wh {
		t.Fatalf("%s: DetHankel = %d, PLU = %d", name, dh, wh)
	}

	// kp.Det is Las Vegas over a subset of size ≥ 3n²/ε: only the large
	// prime has room, and a singular A exhausts its retries by design.
	if f.Modulus() < 1<<32 || want == 0 {
		return
	}
	dk, err := kp.Det[uint64](f, matrix.Classical[uint64]{}, tm.Dense(f), kp.Params{Src: ff.NewSource(11)})
	if err != nil {
		t.Fatalf("%s: kp.Det: %v", name, err)
	}
	if dk != want {
		t.Fatalf("%s: kp.Det = %d, PLU = %d", name, dk, want)
	}
}
