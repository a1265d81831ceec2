package structured

import (
	"math/big"
	"testing"

	"repro/internal/ff"
)

// The cached-NTT applies must be bit-identical to the schoolbook products.
// A zero-value literal (no ntt cache box) always takes the schoolbook path,
// which gives us the reference oracle without exporting the internals.

func toeplitzOracle[E any](t Toeplitz[E]) Toeplitz[E] { return Toeplitz[E]{N: t.N, D: t.D} }
func hankelOracle[E any](h Hankel[E]) Hankel[E]       { return Hankel[E]{N: h.N, D: h.D} }

// applyDims covers every n from 1 to 40 — where the middle-product plan
// length 2n−1 and the full product length 3n−2 round to different powers
// of two (n = 4, 6–8, 11–16, 22–32, …) and where they agree — plus larger
// sizes up to the benchmark's n = 256.
func applyDims() []int {
	var ns []int
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 64, 100, 256)
}

func TestToeplitzNTTApplyMatchesSchoolbook(t *testing.T) {
	f := ff.MustFp64(ff.PNTT62)
	src := ff.NewSource(11)
	for _, n := range applyDims() {
		tm := RandomToeplitz[uint64](f, src, n, f.Modulus())
		ref := toeplitzOracle(tm)
		for rep := 0; rep < 3; rep++ {
			x := ff.SampleVec[uint64](f, src, n, f.Modulus())
			got := tm.MulVec(f, x)
			want := ref.MulVec(f, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d rep=%d: NTT apply diverges at %d: %d vs %d", n, rep, i, got[i], want[i])
				}
			}
			if rep == 0 {
				dense := tm.Dense(f).MulVec(f, x)
				for i := range want {
					if want[i] != dense[i] {
						t.Fatalf("n=%d: schoolbook oracle diverges from dense at %d", n, i)
					}
				}
			}
		}
	}
}

func TestHankelNTTApplyMatchesSchoolbook(t *testing.T) {
	f := ff.MustFp64(ff.PNTT62)
	src := ff.NewSource(13)
	for _, n := range applyDims() {
		h := NewHankel(ff.SampleVec[uint64](f, src, 2*n-1, f.Modulus()))
		ref := hankelOracle(h)
		x := ff.SampleVec[uint64](f, src, n, f.Modulus())
		got := h.MulVec(f, x)
		want := ref.MulVec(f, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Hankel NTT apply diverges at %d", n, i)
			}
		}
		// Dense cross-check closes the loop on the oracle itself.
		dense := h.Dense(f).MulVec(f, x)
		for i := range want {
			if want[i] != dense[i] {
				t.Fatalf("n=%d: schoolbook oracle diverges from dense at %d", n, i)
			}
		}
	}
}

func TestSylvesterNTTApplyMatchesSchoolbook(t *testing.T) {
	f := ff.MustFp64(ff.PNTT62)
	src := ff.NewSource(17)
	for _, degs := range [][2]int{{1, 1}, {3, 2}, {8, 8}, {20, 5}} {
		a := ff.SampleVec[uint64](f, src, degs[0]+1, f.Modulus())
		b := ff.SampleVec[uint64](f, src, degs[1]+1, f.Modulus())
		a[len(a)-1], b[len(b)-1] = f.One(), f.One() // keep degrees exact
		s := NewSylvester(f, a, b)
		ref := Sylvester[uint64]{A: s.A, B: s.B, m: s.m, n: s.n}
		dim, _ := s.Dims()
		x := ff.SampleVec[uint64](f, src, dim, f.Modulus())
		got := s.Apply(f, x)
		want := ref.Apply(f, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("degs=%v: Sylvester NTT apply diverges at %d", degs, i)
			}
		}
	}
}

// TestStructuredApplyFallbackUnfriendlyPrime: with 2-adicity 1 (M61) no
// usable transform exists at n ≥ 2 and the apply must silently produce the
// schoolbook answer — the satellite regression for the typed-error fallback.
func TestStructuredApplyFallbackUnfriendlyPrime(t *testing.T) {
	f := ff.MustFp64(2305843009213693951) // 2⁶¹ − 1
	src := ff.NewSource(19)
	n := 24
	tm := RandomToeplitz[uint64](f, src, n, f.Modulus())
	x := ff.SampleVec[uint64](f, src, n, f.Modulus())
	got := tm.MulVec(f, x)
	want := tm.Dense(f).MulVec(f, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("M61 fallback diverges from dense at %d", i)
		}
	}
}

// TestStructuredApplyFallbackP2: the p = 2 sentinel has no fused transform;
// constructor-built matrices must still apply correctly.
func TestStructuredApplyFallbackP2(t *testing.T) {
	f := ff.MustFp64(2)
	tm := NewToeplitz([]uint64{1, 0, 1, 1, 1}) // n = 3
	x := []uint64{1, 1, 0}
	got := tm.MulVec(f, x)
	want := tm.Dense(f).MulVec(f, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("F_2 fallback diverges from dense at %d", i)
		}
	}
}

// TestStructuredApplyFallbackFpBig: wrapper fields have no fused kernel;
// the cache stays empty and answers match the dense product.
func TestStructuredApplyFallbackFpBig(t *testing.T) {
	f, err := ff.NewFpBig(new(big.Int).SetUint64(ff.PNTT62))
	if err != nil {
		t.Fatal(err)
	}
	src := ff.NewSource(23)
	n := 9
	tm := RandomToeplitz[*big.Int](f, src, n, 1<<20)
	x := ff.SampleVec[*big.Int](f, src, n, 1<<20)
	got := tm.MulVec(f, x)
	want := tm.Dense(f).MulVec(f, x)
	for i := range want {
		if !f.Equal(got[i], want[i]) {
			t.Fatalf("FpBig fallback diverges from dense at %d", i)
		}
	}
}

// FuzzToeplitzNTTApply drives random sizes and entries through both paths.
func FuzzToeplitzNTTApply(fz *testing.F) {
	fz.Add(uint64(1), uint8(4))
	fz.Add(uint64(99), uint8(17))
	fz.Fuzz(func(t *testing.T, seed uint64, nRaw uint8) {
		n := int(nRaw)%40 + 1
		f := ff.MustFp64(ff.PNTT62)
		src := ff.NewSource(seed)
		tm := RandomToeplitz[uint64](f, src, n, f.Modulus())
		x := ff.SampleVec[uint64](f, src, n, f.Modulus())
		got := tm.MulVec(f, x)
		want := toeplitzOracle(tm).MulVec(f, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed=%d n=%d: divergence at %d", seed, n, i)
			}
		}
	})
}
