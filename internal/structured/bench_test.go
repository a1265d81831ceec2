package structured

import (
	"fmt"
	"testing"

	"repro/internal/ff"
)

// BenchmarkToeplitzApply is the before/after for the persistent NTT apply:
// "cached" exercises the constructor path (transform of D computed once,
// each product = forward + pointwise + inverse on process-wide twiddle
// tables), "schoolbook" forces the legacy per-call poly.Mul via a
// zero-value literal.
func BenchmarkToeplitzApply(b *testing.B) {
	f := ff.MustFp64(ff.PNTT62)
	for _, n := range []int{256, 1024} {
		src := ff.NewSource(5)
		tm := RandomToeplitz[uint64](f, src, n, ff.PNTT62)
		legacy := Toeplitz[uint64]{N: tm.N, D: tm.D}
		x := ff.SampleVec[uint64](f, src, n, ff.PNTT62)
		b.Run(fmt.Sprintf("cached/n=%d", n), func(b *testing.B) {
			tm.MulVec(f, x) // warm the cache outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.MulVec(f, x)
			}
		})
		b.Run(fmt.Sprintf("schoolbook/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				legacy.MulVec(f, x)
			}
		})
	}
}

// BenchmarkCharPoly times both routes of CharPoly on the same random
// Toeplitz matrix: "bm" is the Berlekamp–Massey route fused-kernel fields
// take, "newton" the Theorem 3 pipeline it falls back to (and the only
// route on every other field).
func BenchmarkCharPoly(b *testing.B) {
	f := ff.MustFp64(ff.PNTT62)
	src := ff.NewSource(3)
	t := RandomToeplitz[uint64](f, src, 256, ff.PNTT62)
	b.Run("bm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := charPolyBM[uint64](f, t); err != nil || !ok {
				b.Fatalf("BM route: ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("newton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := charPolyNewton[uint64](f, t); err != nil {
				b.Fatal(err)
			}
		}
	})
}
