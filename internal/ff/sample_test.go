package ff

import (
	"math"
	"sync"
	"testing"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewSource(43)
	same := 0
	a = NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 100 draws", same)
	}
}

func TestUint64nRange(t *testing.T) {
	s := NewSource(1)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 20, 1<<63 + 5} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared test over 16 buckets.
	s := NewSource(99)
	const buckets = 16
	const draws = 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile ≈ 37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi² = %f suggests non-uniform sampling", chi2)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %f, want ≈ 0.5", mean)
	}
}

func TestSampleSubset(t *testing.T) {
	f := MustFp64(P62)
	src := NewSource(7)
	const subset = 100
	for i := 0; i < 1000; i++ {
		v := Sample[uint64](f, src, subset)
		if v >= subset {
			t.Fatalf("sample %d outside canonical subset of size %d", v, subset)
		}
	}
	vec := SampleVec[uint64](f, src, 32, subset)
	if len(vec) != 32 {
		t.Fatalf("SampleVec length %d", len(vec))
	}
	nz := SampleNonZero[uint64](f, src, 2)
	if nz == 0 {
		t.Fatal("SampleNonZero returned zero")
	}
}

// TestSampleNonZeroVecMatchesScalar pins SampleNonZeroVec to n scalar
// SampleNonZero draws from the same seed: same entries, same stream
// position afterwards. Subset 3 makes zero draws (and their retries) common.
func TestSampleNonZeroVecMatchesScalar(t *testing.T) {
	f := MustFp64(P31)
	for _, subset := range []uint64{3, 1 << 40} {
		vecSrc, scalarSrc := NewSource(11), NewSource(11)
		got := SampleNonZeroVec[uint64](f, vecSrc, 64, subset)
		for i, g := range got {
			if want := SampleNonZero[uint64](f, scalarSrc, subset); g != want {
				t.Fatalf("subset %d entry %d: %d, want %d", subset, i, g, want)
			}
		}
		if vecSrc.Uint64() != scalarSrc.Uint64() {
			t.Fatalf("subset %d: the two sources diverged after the draws", subset)
		}
	}
}

func TestIntnNonPositivePanics(t *testing.T) {
	for _, n := range []int{0, -1, -1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			NewSource(3).Intn(n)
		}()
	}
}

func TestIntnRange(t *testing.T) {
	s := NewSource(13)
	for i := 0; i < 500; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestSampleClampsSubsetToFieldOrder(t *testing.T) {
	// Regression: subset > p used to wrap through f.Elem, sampling the low
	// residues twice as often and skewing the equation (2) failure bound.
	// With the clamp, an oversized subset must behave exactly like
	// subset = p: same source state, same draws.
	f := MustFp64(101)
	a, b := NewSource(21), NewSource(21)
	for i := 0; i < 2000; i++ {
		over := Sample[uint64](f, a, 1<<40)
		exact := Sample[uint64](f, b, 101)
		if over != exact {
			t.Fatalf("draw %d: oversized subset gave %d, clamped gave %d", i, over, exact)
		}
	}
	// And the draws stay uniform over the whole field: under the old wrap
	// with subset = 150, residues below 49 appeared about twice as often.
	src := NewSource(23)
	const draws = 101 * 400
	var counts [101]int
	for i := 0; i < draws; i++ {
		counts[Sample[uint64](f, src, 150)]++
	}
	lo, hi := draws, 0
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Fatalf("skewed sampling: bucket counts range %d..%d", lo, hi)
	}
	// Vectors go through the same clamp.
	va := SampleVec[uint64](f, NewSource(29), 64, 1<<50)
	vb := SampleVec[uint64](f, NewSource(29), 64, 101)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("SampleVec clamp mismatch at %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	s := NewSource(11)
	child := s.Split()
	// Parent and child streams should diverge immediately.
	same := 0
	for i := 0; i < 64; i++ {
		if s.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split streams collided %d times", same)
	}
}

// TestSourceSplitPerGoroutine is the documented concurrent-use pattern
// under the race detector: one root source, one Split child per goroutine.
// Replacing the children with the shared root (the pre-kpd server sharing
// pattern) makes this test fail under -race — the state word is mutated
// unsynchronized — which is exactly why Source's contract forbids it.
func TestSourceSplitPerGoroutine(t *testing.T) {
	root := NewSource(42)
	const goroutines = 8
	children := make([]*Source, goroutines)
	for i := range children {
		children[i] = root.Split() // root touched only here, single-threaded
	}
	var wg sync.WaitGroup
	sums := make([]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sums[g] += children[g].Uint64()
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		for j := i + 1; j < goroutines; j++ {
			if sums[i] == sums[j] {
				t.Fatalf("split streams %d and %d produced identical draws; children must be independent", i, j)
			}
		}
	}
}

// TestSourceSplitDeterministic: splitting is part of the replayable
// deterministic stream — same seed, same children.
func TestSourceSplitDeterministic(t *testing.T) {
	a, b := NewSource(7).Split(), NewSource(7).Split()
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic in the parent seed")
		}
	}
}

// TestUniformMatchesModulo pins the reciprocal reduction to the stream the
// hardware remainder gives: for moduli across the whole word range, every
// draw equals the rejection-sampled v % n, so the randomness of every
// driver is unchanged.
func TestUniformMatchesModulo(t *testing.T) {
	ref := func(s *Source, n uint64) uint64 {
		limit := ^uint64(0) - ^uint64(0)%n
		for {
			if v := s.Uint64(); v < limit {
				return v % n
			}
		}
	}
	ns := []uint64{1, 2, 3, 7, 13, 97, 1 << 31, P31, P62, PNTT62, 1<<62 + 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	seeds := NewSource(99)
	for i := 0; i < 200; i++ {
		ns = append(ns, seeds.Uint64()>>uint(seeds.Uint64n(64)))
	}
	for _, n := range ns {
		if n == 0 {
			continue
		}
		a, b := NewSource(n), NewSource(n)
		u := newUniform(n)
		for j := 0; j < 2000; j++ {
			if got, want := u.draw(a), ref(b, n); got != want {
				t.Fatalf("n=%d draw %d: got %d, want %d", n, j, got, want)
			}
		}
	}
}
