package matrix

import (
	"fmt"
	"testing"

	"repro/internal/ff"
)

// Differential tests for the fused fast path: every multiplier, run over a
// raw Fp64 (which exposes ff.Kernels and therefore takes the Montgomery /
// lazy-reduction kernels), must produce exactly the matrix the generic
// Field[E] path computes. The generic reference is obtained through an
// ff.Counting wrapper, which deliberately hides the kernels, so the
// reference multiplication runs the per-element Add/Mul loops.

func fastpathPrimes() []uint64 {
	return []uint64{ff.P62, ff.P31, ff.P17, ff.PNTT62}
}

func TestFastKernelsAgreeWithGenericPath(t *testing.T) {
	for _, p := range fastpathPrimes() {
		f := ff.MustFp64(p)
		if _, ok := ff.KernelsOf[uint64](f); !ok {
			t.Fatalf("F_%d: expected fused kernels", p)
		}
		cf := ff.NewCounting[uint64](f)
		src := ff.NewSource(p ^ 0xabcdef)
		muls := []Multiplier[uint64]{
			Classical[uint64]{},
			Blocked[uint64]{Tile: 8},
			Parallel[uint64]{Tile: 8},
			Strassen[uint64]{Cutoff: 4},
			ParallelStrassen[uint64]{Cutoff: 4},
		}
		for _, n := range []int{1, 2, 3, 7, 8, 13, 16, 33} {
			a := Random[uint64](f, src, n, n, p)
			b := Random[uint64](f, src, n, n, p)
			want := mulClassical[uint64](cf, a, b) // generic loops, no kernels
			for _, m := range muls {
				got := m.Mul(f, a, b)
				if !got.Equal(f, want) {
					t.Fatalf("F_%d n=%d: %s disagrees with generic path", p, n, m.Name())
				}
			}
			// Rectangular shapes exercise the non-square fallbacks.
			r := Random[uint64](f, src, n, n+3, p)
			wantR := mulClassical[uint64](cf, a, r)
			for _, m := range muls {
				if got := m.Mul(f, a, r); !got.Equal(f, wantR) {
					t.Fatalf("F_%d n=%d rect: %s disagrees with generic path", p, n, m.Name())
				}
			}
		}
	}
}

// TestFusedVectorPathsAgree checks MulVec / VecMul / KrylovSequence take
// identical values over the fused and generic paths.
func TestFusedVectorPathsAgree(t *testing.T) {
	for _, p := range fastpathPrimes() {
		f := ff.MustFp64(p)
		cf := ff.NewCounting[uint64](f)
		src := ff.NewSource(p + 17)
		for _, n := range []int{1, 5, 16, 40} {
			m := Random[uint64](f, src, n, n, p)
			x := ff.SampleVec[uint64](f, src, n, p)
			if !ff.VecEqual[uint64](f, m.MulVec(f, x), m.MulVec(cf, x)) {
				t.Fatalf("F_%d n=%d: MulVec fused != generic", p, n)
			}
			if !ff.VecEqual[uint64](f, m.VecMul(f, x), m.VecMul(cf, x)) {
				t.Fatalf("F_%d n=%d: VecMul fused != generic", p, n)
			}
			sf, _ := KrylovSequence[uint64](nil, f, DenseBox[uint64]{m}, x, x, 3)
			sc, _ := KrylovSequence[uint64](nil, cf, DenseBox[uint64]{m}, x, x, 3)
			if !ff.VecEqual[uint64](f, sf, sc) {
				t.Fatalf("F_%d n=%d: KrylovSequence fused != generic", p, n)
			}
		}
	}
}

// TestScratchPoolRecycling sanity-checks the pooled buffers: matrices
// returned by the Strassen paths must be freshly allocated (mutating the
// result of one multiply must not corrupt a later one).
func TestScratchPoolRecycling(t *testing.T) {
	f := ff.MustFp64(ff.P31)
	src := ff.NewSource(7)
	n := 12
	a := Random[uint64](f, src, n, n, ff.P31)
	b := Random[uint64](f, src, n, n, ff.P31)
	s := Strassen[uint64]{Cutoff: 4}
	first := s.Mul(f, a, b)
	snapshot := append([]uint64(nil), first.Data...)
	for i := range first.Data {
		first.Data[i] = 0xdead % ff.P31 // poison the returned buffer
	}
	second := s.Mul(f, a, b)
	for i := range second.Data {
		if second.Data[i] != snapshot[i] {
			t.Fatalf("pooled scratch leaked into returned matrix at %d", i)
		}
	}
}

func BenchmarkBlockedFused(bb *testing.B) {
	f := ff.MustFp64(ff.P62)
	src := ff.NewSource(1)
	for _, n := range []int{64, 128} {
		a := Random[uint64](f, src, n, n, ff.P62)
		b := Random[uint64](f, src, n, n, ff.P62)
		bb.Run(fmt.Sprintf("n=%d", n), func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				Blocked[uint64]{}.Mul(f, a, b)
			}
		})
	}
}
