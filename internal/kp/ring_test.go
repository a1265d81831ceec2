package kp

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/rns"
)

// randIntMat draws an n×n integer matrix with entries in [−mag, mag].
func randIntMat(src *ff.Source, n int, mag int64) *rns.IntMat {
	m := rns.NewIntMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, big.NewInt(int64(src.Uint64n(uint64(2*mag+1)))-mag))
		}
	}
	return m
}

func randIntVec(src *ff.Source, n int, mag int64) []*big.Int {
	v := make([]*big.Int, n)
	for i := range v {
		v[i] = big.NewInt(int64(src.Uint64n(uint64(2*mag+1))) - mag)
	}
	return v
}

// ratDense views an IntMat over the exact rational field for the
// differential oracle.
func ratDense(a *rns.IntMat) *matrix.Dense[*big.Rat] {
	d := &matrix.Dense[*big.Rat]{Rows: a.Rows, Cols: a.Cols, Data: make([]*big.Rat, a.Rows*a.Cols)}
	for i, e := range a.Data {
		d.Data[i] = new(big.Rat).SetInt(e)
	}
	return d
}

// TestSolveIntDifferential: the multi-modulus engine agrees bit-exactly
// with big-rational Gaussian elimination across dimensions up to 32,
// the answers carry the Verified flag from the exact ℤ check, and the
// stats time every phase of the run (residue fan-out, CRT).
func TestSolveIntDifferential(t *testing.T) {
	src := ff.NewSource(11)
	rat := ff.NewRat()
	for _, n := range []int{1, 2, 3, 5, 8, 13, 32} {
		a := randIntMat(src, n, 50)
		b := randIntVec(src, n, 50)
		x, stats, err := SolveInt(nil, a, b, rns.Params{}, Params{Src: ff.NewSource(uint64(n))})
		if errors.Is(err, ErrSingular) {
			continue // unlucky draw; the oracle would agree
		}
		if err != nil {
			t.Fatalf("n=%d: SolveInt: %v", n, err)
		}
		if !stats.Verified {
			t.Fatalf("n=%d: result not verified", n)
		}
		if stats.Residues < 1 || len(stats.Primes) != stats.Residues {
			t.Fatalf("n=%d: inconsistent stats: %+v", n, stats)
		}
		if stats.ResidueWallNs <= 0 || stats.ResidueSumNs <= 0 || stats.CRTNs <= 0 || stats.ParallelEfficiency <= 0 {
			t.Fatalf("n=%d: a phase went untimed: residue wall %d ns, sum %d ns, crt %d ns, efficiency %g",
				n, stats.ResidueWallNs, stats.ResidueSumNs, stats.CRTNs, stats.ParallelEfficiency)
		}
		br := make([]*big.Rat, n)
		for i := range br {
			br[i] = new(big.Rat).SetInt(b[i])
		}
		want, err := matrix.Solve(rat, ratDense(a), br)
		if err != nil {
			t.Fatalf("n=%d: oracle: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if x.Rat(i).Cmp(want[i]) != 0 {
				t.Fatalf("n=%d: x[%d] = %s, oracle %s", n, i, x.Rat(i).RatString(), want[i].RatString())
			}
		}
	}
}

// TestDetIntDifferential: exact integer determinants match the
// big-rational oracle, including sign.
func TestDetIntDifferential(t *testing.T) {
	src := ff.NewSource(23)
	rat := ff.NewRat()
	for _, n := range []int{1, 2, 4, 9, 16} {
		a := randIntMat(src, n, 30)
		det, stats, err := DetInt(nil, a, rns.Params{}, Params{Src: ff.NewSource(uint64(n))})
		if err != nil {
			t.Fatalf("n=%d: DetInt: %v", n, err)
		}
		if !stats.Verified {
			t.Fatalf("n=%d: determinant not verified", n)
		}
		d, err := matrix.Det(rat, ratDense(a))
		if err != nil {
			t.Fatalf("n=%d: oracle: %v", n, err)
		}
		if !d.IsInt() || d.Num().Cmp(det) != 0 {
			t.Fatalf("n=%d: det = %s, oracle %s", n, det, d.RatString())
		}
	}
}

// TestSolveIntBadPrimeReplacement forces det(A) ≡ 0 mod the first
// generated prime: A = diag(p₀, 1, …, 1) has det = p₀, so the engine must
// detect the singular residue, replace p₀, and still return the exact
// answer — the Las Vegas bad-prime path. Solve mode computes no residue
// determinant: the failing Factor mod p₀ is what flags the prime.
func TestSolveIntBadPrimeReplacement(t *testing.T) {
	p0, err := ff.GenerateNTTPrimes(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 4
	a := rns.NewIntMat(n, n)
	a.Set(0, 0, new(big.Int).SetUint64(p0[0]))
	for i := 1; i < n; i++ {
		a.Set(i, i, big.NewInt(1))
	}
	b := []*big.Int{big.NewInt(3), big.NewInt(-7), big.NewInt(0), big.NewInt(5)}
	x, stats, err := SolveInt(nil, a, b, rns.Params{}, Params{})
	if err != nil {
		t.Fatalf("SolveInt: %v", err)
	}
	if stats.BadPrimes < 1 {
		t.Fatalf("expected at least one bad prime, stats: %+v", stats)
	}
	for _, q := range stats.Primes {
		if q == p0[0] {
			t.Fatalf("bad prime %d still in the CRT set", p0[0])
		}
	}
	// x = (3/p₀, −7, 0, 5).
	if got, want := x.Rat(0), new(big.Rat).SetFrac(big.NewInt(3), new(big.Int).SetUint64(p0[0])); got.Cmp(want) != 0 {
		t.Fatalf("x[0] = %s, want %s", got.RatString(), want.RatString())
	}
	if got := x.Rat(1); got.Cmp(big.NewRat(-7, 1)) != 0 {
		t.Fatalf("x[1] = %s, want -7", got.RatString())
	}
}

// TestDetIntBadPrimeReplacement is the det-mode twin of
// TestSolveIntBadPrimeReplacement: det mode is the only mode that computes
// residue determinants, so it keeps the det ≡ 0 guard, and it must replace
// p₀ the same way and return det = p₀ exactly.
func TestDetIntBadPrimeReplacement(t *testing.T) {
	p0, err := ff.GenerateNTTPrimes(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 4
	a := rns.NewIntMat(n, n)
	a.Set(0, 0, new(big.Int).SetUint64(p0[0]))
	for i := 1; i < n; i++ {
		a.Set(i, i, big.NewInt(1))
	}
	det, stats, err := DetInt(nil, a, rns.Params{}, Params{})
	if err != nil {
		t.Fatalf("DetInt: %v", err)
	}
	if det.Cmp(new(big.Int).SetUint64(p0[0])) != 0 {
		t.Fatalf("det = %s, want %d", det, p0[0])
	}
	if stats.BadPrimes < 1 {
		t.Fatalf("det path saw no bad prime: %+v", stats)
	}
	for _, q := range stats.Primes {
		if q == p0[0] {
			t.Fatalf("bad prime %d still in the CRT set", p0[0])
		}
	}
}

// TestSingularOverQQ: a genuinely singular matrix exhausts the bad-prime
// budget; Solve reports ErrSingular and Det returns exactly 0.
func TestSingularOverQQ(t *testing.T) {
	a := rns.IntMatFromInt64([][]int64{
		{1, 2, 3},
		{2, 4, 6}, // 2 × row 0
		{0, 1, -1},
	})
	b := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)}
	if _, _, err := SolveInt(nil, a, b, rns.Params{}, Params{Retries: 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("SolveInt on singular matrix: err = %v, want ErrSingular", err)
	}
	det, _, err := DetInt(nil, a, rns.Params{}, Params{Retries: 2})
	if err != nil {
		t.Fatalf("DetInt on singular matrix: %v", err)
	}
	if det.Sign() != 0 {
		t.Fatalf("det = %s, want 0", det)
	}
}

// TestSolveRatClearsDenominators: the ℚ entry point matches a hand-solved
// rational system.
func TestSolveRatClearsDenominators(t *testing.T) {
	a := [][]*big.Rat{
		{big.NewRat(1, 2), big.NewRat(1, 3)},
		{big.NewRat(-2, 5), big.NewRat(1, 1)},
	}
	b := []*big.Rat{big.NewRat(5, 6), big.NewRat(3, 5)}
	x, stats, err := SolveRat(nil, a, b, rns.Params{}, Params{})
	if err != nil {
		t.Fatalf("SolveRat: %v", err)
	}
	if !stats.Verified {
		t.Fatal("not verified")
	}
	// Check A·x = b exactly over ℚ.
	for i := range a {
		acc := new(big.Rat)
		for j := range a[i] {
			acc.Add(acc, new(big.Rat).Mul(a[i][j], x.Rat(j)))
		}
		if acc.Cmp(b[i]) != 0 {
			t.Fatalf("row %d: A·x = %s, want %s", i, acc.RatString(), b[i].RatString())
		}
	}
}

// TestRankInt: rank over ℚ of a rectangular matrix with known rank.
func TestRankInt(t *testing.T) {
	a := rns.IntMatFromInt64([][]int64{
		{1, 2, 3, 4},
		{2, 4, 6, 8}, // dependent
		{0, 1, 1, -1},
	})
	r, stats, err := RankInt(nil, a, rns.Params{}, Params{})
	if err != nil {
		t.Fatalf("RankInt: %v", err)
	}
	if r != 2 {
		t.Fatalf("rank = %d, want 2", r)
	}
	if stats.Residues < 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestForcedPrimesTooSmall: a forced single-prime run on an answer that
// needs several residues fails loudly with ErrBoundTooSmall — the typed
// error of the api redesign — rather than returning an aliased answer.
func TestForcedPrimesTooSmall(t *testing.T) {
	src := ff.NewSource(99)
	n := 8
	a := randIntMat(src, n, 1000)
	b := randIntVec(src, n, 1000)
	_, _, err := SolveInt(nil, a, b, rns.Params{Primes: 1}, Params{})
	if err == nil {
		t.Fatal("forced 1-prime solve succeeded; want ErrBoundTooSmall")
	}
	if !errors.Is(err, rns.ErrBoundTooSmall) {
		t.Fatalf("err = %v, want ErrBoundTooSmall", err)
	}
}

// TestVerifyOffSkipsCheck: VerifyOff leaves Verified false but the
// certified bound still yields the exact answer.
func TestVerifyOffSkipsCheck(t *testing.T) {
	a := rns.IntMatFromInt64([][]int64{{2, 1}, {1, 3}})
	b := []*big.Int{big.NewInt(5), big.NewInt(10)}
	x, stats, err := SolveInt(nil, a, b, rns.Params{Verify: rns.VerifyOff}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Verified {
		t.Fatal("Verified true with VerifyOff")
	}
	// x = (1, 3): 2+3=5, 1+9=10.
	if x.Rat(0).Cmp(big.NewRat(1, 1)) != 0 || x.Rat(1).Cmp(big.NewRat(3, 1)) != 0 {
		t.Fatalf("x = (%s, %s), want (1, 3)", x.Rat(0), x.Rat(1))
	}
}

// TestIntEngineCacheReuse: a second solve of the same matrix hits the
// per-prime factorization cache for every residue (the prime sequence is
// deterministic per matrix), and a different right-hand side still
// verifies.
func TestIntEngineCacheReuse(t *testing.T) {
	src := ff.NewSource(5)
	n := 6
	a := randIntMat(src, n, 40)
	b1 := randIntVec(src, n, 40)
	b2 := randIntVec(src, n, 40)
	e := NewIntEngine(nil)
	_, s1, err := e.Solve(context.Background(), a, b1, rns.Params{}, Params{})
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if s1.CacheHits != 0 || s1.CacheMisses != s1.Residues {
		t.Fatalf("first solve cache stats: %+v", s1)
	}
	x2, s2, err := e.Solve(context.Background(), a, b2, rns.Params{}, Params{})
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if s2.CacheHits != s2.Residues || s2.CacheMisses != 0 {
		t.Fatalf("second solve did not reuse factorizations: %+v", s2)
	}
	if !s2.Verified {
		t.Fatal("cached path skipped verification")
	}
	if !intResidualOK(a, x2, b2) {
		t.Fatal("cached solve returned a wrong answer")
	}
	if e.CacheLen() == 0 {
		t.Fatal("engine cache empty after two solves")
	}
}

func intResidualOK(a *rns.IntMat, v *rns.RatVec, b []*big.Int) bool {
	return intResidualZero(a, v, b)
}

// TestIntEngineConcurrentCallers: one engine, many goroutines, distinct
// matrices — exercises the cache and source-splitting under concurrency
// (meaningful under -race).
func TestIntEngineConcurrentCallers(t *testing.T) {
	e := NewIntEngine(nil)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			src := ff.NewSource(uint64(100 + g))
			a := randIntMat(src, 5, 25)
			b := randIntVec(src, 5, 25)
			x, _, err := e.Solve(context.Background(), a, b, rns.Params{}, Params{Src: ff.NewSource(uint64(g))})
			if err != nil {
				if errors.Is(err, ErrSingular) {
					done <- nil
					return
				}
				done <- err
				return
			}
			if !intResidualZero(a, x, b) {
				done <- errors.New("wrong answer under concurrency")
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveIntContextCancelled: a pre-cancelled context surfaces promptly
// as context.Canceled, not as a solver failure.
func TestSolveIntContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := ff.NewSource(3)
	a := randIntMat(src, 6, 30)
	b := randIntVec(src, 6, 30)
	_, _, err := NewIntEngine(nil).Solve(ctx, a, b, rns.Params{}, Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSolveIntImplicitPrecond: the implicit preconditioner path (NTT
// Hankel applies per residue) returns the same exact answer — the primes
// are NTT-friendly by construction, so the fast path is always available.
func TestSolveIntImplicitPrecond(t *testing.T) {
	src := ff.NewSource(17)
	n := 8
	a := randIntMat(src, n, 60)
	b := randIntVec(src, n, 60)
	xd, _, err := SolveInt(nil, a, b, rns.Params{}, Params{Src: ff.NewSource(1)})
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	xi, _, err := SolveInt(nil, a, b, rns.Params{}, Params{Src: ff.NewSource(1), Precond: PrecondImplicit})
	if err != nil {
		t.Fatalf("implicit: %v", err)
	}
	for i := 0; i < n; i++ {
		if xd.Rat(i).Cmp(xi.Rat(i)) != 0 {
			t.Fatalf("coordinate %d differs between precond modes", i)
		}
	}
}
