package kp

import (
	"sync"
	"testing"

	"repro/internal/ff"
	"repro/internal/matrix"
)

// TestFactorizationConcurrentSolve hammers one cached Factorization from
// many goroutines — the kpd cache-hit pattern — and verifies every result.
// Run under -race it checks that the handle is immutable after Factor.
func TestFactorizationConcurrentSolve(t *testing.T) {
	f := ff.MustFp64(ff.P62)
	src := ff.NewSource(11)
	mul := matrix.Classical[uint64]{}
	n := 24
	a := matrix.Random[uint64](f, src, n, n, f.Modulus())
	fa, err := Factor(f, mul, a, Params{Src: src.Split()})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// One independent random stream per goroutine: ff.Source is not
			// safe to share across goroutines.
			local := ff.NewSource(uint64(1000 + g))
			for i := 0; i < perG; i++ {
				b := ff.SampleVec[uint64](f, local, n, f.Modulus())
				x, err := fa.Solve(b)
				if err != nil {
					errs <- err
					return
				}
				if !ff.VecEqual[uint64](f, a.MulVec(f, x), b) {
					t.Errorf("goroutine %d: concurrent Factorization.Solve returned a wrong answer", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFactorizationConcurrentInverseApply exercises the block path (the
// /v1/solve_batch cache hit) concurrently.
func TestFactorizationConcurrentInverseApply(t *testing.T) {
	f := ff.MustFp64(ff.P62)
	src := ff.NewSource(17)
	mul := matrix.Classical[uint64]{}
	n := 16
	a := matrix.Random[uint64](f, src, n, n, f.Modulus())
	fa, err := Factor(f, mul, a, Params{Src: src.Split()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := ff.NewSource(uint64(4000 + g))
			bm := matrix.Random[uint64](f, local, n, 3, f.Modulus())
			x, err := fa.InverseApply(bm)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if !mul.Mul(f, a, x).Equal(f, bm) {
				t.Errorf("goroutine %d: wrong block answer", g)
			}
		}(g)
	}
	wg.Wait()
}
