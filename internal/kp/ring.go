package kp

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/rns"
)

// Exact solving over ℤ and ℚ (§5 of the paper: "integer determinants,
// least squares over ℚ"). The abstract-field hypothesis is what makes this
// a thin layer: the Theorem 4 machinery runs unchanged over every residue
// field F_p, so one characteristic-0 problem becomes rns.PrimesFor(bound)
// fully independent word-sized solves — the embarrassingly parallel axis —
// followed by Chinese remaindering and rational reconstruction from the
// rns package.
//
// The residue loop is Las Vegas about its primes: a prime dividing det(A)
// makes A singular mod p even though A is invertible over ℚ. Factor then
// exhausts its retries, the engine marks the prime bad, draws the next
// prime from the deterministic sequence, and re-solves only that residue.
// Bad primes also carry information: every bad prime divides det(A), each
// exceeds 2^(PrimeBits−1), and |det(A)| is below the Hadamard bound the
// prime count was sized for — so once the bad primes' product exceeds the
// CRT modulus requirement, det(A) = 0 is *certified*, turning what looks
// like retry exhaustion into the correct answer (0 for Det, ErrSingular
// for Solve).

// ErrBoundTooSmall reports a forced rns.Params prime set or bound that the
// answer did not fit; see rns.ErrBoundTooSmall.
var ErrBoundTooSmall = rns.ErrBoundTooSmall

var (
	rnsResidueSolves = obs.NewCounter("rns.residues")
	rnsBadPrimes     = obs.NewCounter("rns.bad_primes")
	rnsCacheHits     = obs.NewCounter("rns.cache.hits")
	rnsCacheMisses   = obs.NewCounter("rns.cache.misses")
	// rnsEfficiency is the last run's realized residue fan-out speedup in
	// milli-units (2500 = 2.5× — the metrics registry is integral). The SLO
	// engine's efficiency_floor objective watches it.
	rnsEfficiency = obs.NewGauge("rns.parallel.efficiency.milli")
)

// DefaultFactorCacheCap bounds the per-engine factorization cache: one
// entry is a Factorization[uint64] for one (matrix, prime) pair — the
// preconditioned Ã and its charpoly, O(n²) words — so repeated requests for the
// same matrix (a kpd client iterating right-hand sides) skip the entire
// Theorem 4 front end per residue.
const DefaultFactorCacheCap = 256

// RingStats reports how a multi-modulus run spent its time — the numbers
// behind the kpd response fields and the benchmark's rns.* metrics.
type RingStats struct {
	// Residues is the number of residue fields that contributed to the CRT
	// modulus (bad primes excluded).
	Residues int `json:"residues"`
	// BadPrimes counts primes discarded because they divide det(A).
	BadPrimes int `json:"bad_primes"`
	// CacheHits / CacheMisses count residue factorization cache lookups.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Primes is the final residue prime set, index-aligned with the CRT
	// combination (replacement primes in place of bad ones).
	Primes []uint64 `json:"primes,omitempty"`
	// PrimesNs is the bound/prime-generation phase (rns/primes).
	PrimesNs int64 `json:"primes_ns"`
	// ResidueWallNs is the wall time of the concurrent residue phase;
	// ResidueSumNs is the same work serialized (sum over residues), so
	// ResidueSumNs / ResidueWallNs is the realized parallel speedup.
	ResidueWallNs int64 `json:"residue_wall_ns"`
	ResidueSumNs  int64 `json:"residue_sum_ns"`
	// CRTNs is Chinese remaindering plus rational reconstruction (rns/crt);
	// VerifyNs the a-posteriori exact check (rns/verify).
	CRTNs    int64 `json:"crt_ns"`
	VerifyNs int64 `json:"verify_ns"`
	// ParallelEfficiency = ResidueSumNs / ResidueWallNs.
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	// Verified reports that the exact a-posteriori check ran and passed.
	Verified bool `json:"verified"`
}

func (s *RingStats) finishTiming() {
	if s.ResidueWallNs > 0 {
		s.ParallelEfficiency = float64(s.ResidueSumNs) / float64(s.ResidueWallNs)
		rnsEfficiency.Set(int64(s.ParallelEfficiency * 1000))
	}
}

// IntEngine drives exact solves over ℤ and ℚ. It owns the residue
// factorization cache, so holding one engine across calls (as kpd does)
// lets repeated requests on the same matrix reuse every per-prime Krylov
// front end; the prime sequence is deterministic per matrix, so repeats
// hit the same keys. Safe for concurrent use.
type IntEngine struct {
	mul matrix.Multiplier[uint64]

	mu    sync.Mutex
	cache map[string]*list.Element
	order *list.List // front = most recently used
	cap   int
}

type cacheEntry struct {
	key string
	fa  *Factorization[uint64]
}

// NewIntEngine returns an engine multiplying with mul (nil selects the
// classical multiplier) and a DefaultFactorCacheCap-entry residue cache.
func NewIntEngine(mul matrix.Multiplier[uint64]) *IntEngine {
	if mul == nil {
		mul = matrix.Classical[uint64]{}
	}
	return &IntEngine{
		mul:   mul,
		cache: make(map[string]*list.Element),
		order: list.New(),
		cap:   DefaultFactorCacheCap,
	}
}

// CacheLen returns the number of cached residue factorizations.
func (e *IntEngine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

func (e *IntEngine) cacheGet(key string) *Factorization[uint64] {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.cache[key]
	if !ok {
		return nil
	}
	e.order.MoveToFront(el)
	return el.Value.(*cacheEntry).fa
}

func (e *IntEngine) cachePut(key string, fa *Factorization[uint64]) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.cache[key]; ok {
		e.order.MoveToFront(el)
		el.Value.(*cacheEntry).fa = fa
		return
	}
	e.cache[key] = e.order.PushFront(&cacheEntry{key: key, fa: fa})
	for len(e.cache) > e.cap {
		el := e.order.Back()
		e.order.Remove(el)
		delete(e.cache, el.Value.(*cacheEntry).key)
	}
}

// fillInt resolves the engine-level zero values of p (the per-residue
// fields — Subset, per-field defaults — are resolved by the residue fields
// themselves).
func fillInt(p Params) Params {
	if p.Src == nil {
		p.Src = ff.NewSource(DefaultSeed)
	}
	if p.Retries <= 0 {
		p.Retries = DefaultRetries
	}
	return p
}

// Solve solves A·x = b exactly over ℚ for an integer system: A must be
// square and non-singular over ℚ. The result is the exact rational
// solution in lowest common-denominator form. A singular A returns
// ErrSingular (certified by the bad-prime product when rp is certified).
func (e *IntEngine) Solve(ctx context.Context, a *rns.IntMat, b []*big.Int, rp rns.Params, p Params) (*rns.RatVec, *RingStats, error) {
	if a.Rows != a.Cols || a.Rows == 0 {
		return nil, nil, fmt.Errorf("kp: SolveInt needs a non-empty square matrix (got %d×%d): %w", a.Rows, a.Cols, ErrBadShape)
	}
	if len(b) != a.Rows {
		return nil, nil, fmt.Errorf("kp: SolveInt right-hand side has %d entries, want %d: %w", len(b), a.Rows, ErrBadShape)
	}
	rp = rp.Fill()
	p = fillInt(p)
	stats := &RingStats{}

	// Phase rns/primes: size the CRT modulus and generate the prime set.
	tPrimes := time.Now()
	sp := obs.StartPhaseCtx(ctx, obs.PhaseRNSPrimes)
	certified := rp.Primes <= 0 && rp.Bound == nil
	bound := rp.Bound
	if bound == nil {
		bound = rns.SolveBound(a, b)
	}
	count := rp.Primes
	if count <= 0 {
		count = rns.PrimesFor(bound, rp.PrimeBits)
	}
	seq, err := ff.NewNTTPrimeSeq(rp.PrimeBits, rp.Log2n)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	primes, err := drawPrimes(seq, count)
	sp.End()
	stats.PrimesNs = time.Since(tPrimes).Nanoseconds()
	if err != nil {
		return nil, nil, err
	}

	// Phase rns/residue: fully independent solves, one per prime.
	run, err := e.runResidues(ctx, a, b, primes, seq, rp, p, count, stats)
	if err != nil {
		if errors.Is(err, errDetIsZero) {
			return nil, stats, fmt.Errorf("kp: matrix is singular over ℚ (%d residue primes divide det(A), product exceeds its bound): %w", stats.BadPrimes, ErrSingular)
		}
		return nil, stats, err
	}

	// Phase rns/crt: Chinese remaindering + rational reconstruction.
	tCRT := time.Now()
	sp = obs.StartPhaseCtx(ctx, obs.PhaseRNSCRT)
	basis := rns.NewCRTBasis(run.primes)
	// Forced prime count without an explicit bound: the widest symmetric
	// window the modulus supports, N = D = floor(√((M−1)/2)).
	numBound, denBound := bound, bound
	if rp.Primes > 0 && rp.Bound == nil {
		w := new(big.Int).Sub(basis.M, bigIntOne)
		w.Rsh(w, 1)
		w.Sqrt(w)
		numBound, denBound = w, w
	}
	n := a.Rows
	co := make([]uint64, len(run.primes))
	combined := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		for k := range run.primes {
			co[k] = run.x[k][i]
		}
		combined[i] = basis.Combine(co)
	}
	v, err := rns.ReconstructVec(combined, basis.M, numBound, denBound)
	sp.End()
	stats.CRTNs = time.Since(tCRT).Nanoseconds()
	if err != nil {
		if !certified {
			err = fmt.Errorf("%w: %w", rns.ErrBoundTooSmall, err)
		}
		stats.finishTiming()
		return nil, stats, err
	}

	// Phase rns/verify: the exact check A·num = den·b over ℤ.
	if rp.Verify == rns.VerifyOn {
		tVerify := time.Now()
		sp = obs.StartPhaseCtx(ctx, obs.PhaseRNSVerify)
		ok := intResidualZero(a, v, b)
		sp.End()
		stats.VerifyNs = time.Since(tVerify).Nanoseconds()
		if !ok {
			stats.finishTiming()
			if !certified {
				return nil, stats, fmt.Errorf("kp: verification failed, A·x ≠ b for the reconstructed x: %w", rns.ErrBoundTooSmall)
			}
			return nil, stats, fmt.Errorf("kp: internal error: certified bound produced A·x ≠ b")
		}
		stats.Verified = true
	}
	stats.finishTiming()
	return v, stats, nil
}

// SolveRat solves A·x = b exactly over ℚ for rational inputs by clearing
// denominators row by row and running the integer pipeline.
func (e *IntEngine) SolveRat(ctx context.Context, a [][]*big.Rat, b []*big.Rat, rp rns.Params, p Params) (*rns.RatVec, *RingStats, error) {
	ai, bi, err := rns.ClearDenominators(a, b)
	if err != nil {
		return nil, nil, err
	}
	return e.Solve(ctx, ai, bi, rp, p)
}

// Det returns det(A) exactly over ℤ. A singular matrix returns 0: the
// certificate is the bad primes themselves (their product exceeds the
// Hadamard bound, so the only integer determinant they all divide is 0).
func (e *IntEngine) Det(ctx context.Context, a *rns.IntMat, rp rns.Params, p Params) (*big.Int, *RingStats, error) {
	if a.Rows != a.Cols || a.Rows == 0 {
		return nil, nil, fmt.Errorf("kp: DetInt needs a non-empty square matrix (got %d×%d): %w", a.Rows, a.Cols, ErrBadShape)
	}
	rp = rp.Fill()
	p = fillInt(p)
	stats := &RingStats{}

	tPrimes := time.Now()
	sp := obs.StartPhaseCtx(ctx, obs.PhaseRNSPrimes)
	certified := rp.Primes <= 0 && rp.Bound == nil
	bound := rp.Bound
	if bound == nil {
		bound = rns.HadamardBound(a)
	}
	count := rp.Primes
	if count <= 0 {
		count = rns.DetPrimesFor(bound, rp.PrimeBits)
	}
	seq, err := ff.NewNTTPrimeSeq(rp.PrimeBits, rp.Log2n)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	primes, err := drawPrimes(seq, count)
	sp.End()
	stats.PrimesNs = time.Since(tPrimes).Nanoseconds()
	if err != nil {
		return nil, nil, err
	}

	run, err := e.runResidues(ctx, a, nil, primes, seq, rp, p, count, stats)
	if err != nil {
		if errors.Is(err, errDetIsZero) {
			stats.Verified = certified // the bad-prime product is the proof
			stats.finishTiming()
			return new(big.Int), stats, nil
		}
		return nil, stats, err
	}

	tCRT := time.Now()
	sp = obs.StartPhaseCtx(ctx, obs.PhaseRNSCRT)
	basis := rns.NewCRTBasis(run.primes)
	det := rns.SymmetricReduce(basis.Combine(run.det), basis.M)
	sp.End()
	stats.CRTNs = time.Since(tCRT).Nanoseconds()

	if rp.Verify == rns.VerifyOn {
		// One fresh check prime: recompute det mod q for a prime outside
		// the CRT set and compare. A mismatch means the symmetric window
		// aliased — only reachable with a forced (undersized) prime set.
		tVerify := time.Now()
		sp = obs.StartPhaseCtx(ctx, obs.PhaseRNSVerify)
		ok, err := e.checkDetResidue(ctx, a, seq, rp, p, det, stats)
		sp.End()
		stats.VerifyNs = time.Since(tVerify).Nanoseconds()
		if err != nil {
			stats.finishTiming()
			return nil, stats, err
		}
		if !ok {
			stats.finishTiming()
			if !certified {
				return nil, stats, fmt.Errorf("kp: determinant check-prime mismatch: %w", rns.ErrBoundTooSmall)
			}
			return nil, stats, fmt.Errorf("kp: internal error: certified bound produced a determinant check-prime mismatch")
		}
		stats.Verified = true
	}
	stats.finishTiming()
	return det, stats, nil
}

// Rank returns rank(A) over ℚ for a rectangular integer matrix (Monte
// Carlo, like the underlying field driver): the rank mod p never exceeds
// the rank over ℚ and matches it unless p divides a specific minor, so the
// maximum over a few residue fields is correct with high probability.
func (e *IntEngine) Rank(ctx context.Context, a *rns.IntMat, rp rns.Params, p Params) (int, *RingStats, error) {
	if a.Rows == 0 || a.Cols == 0 {
		return 0, &RingStats{}, nil
	}
	rp = rp.Fill()
	p = fillInt(p)
	stats := &RingStats{}

	count := rp.Primes
	if count <= 0 {
		count = 3
	}
	tPrimes := time.Now()
	sp := obs.StartPhaseCtx(ctx, obs.PhaseRNSPrimes)
	seq, err := ff.NewNTTPrimeSeq(rp.PrimeBits, rp.Log2n)
	if err != nil {
		sp.End()
		return 0, nil, err
	}
	primes, err := drawPrimes(seq, count)
	sp.End()
	stats.PrimesNs = time.Since(tPrimes).Nanoseconds()
	if err != nil {
		return 0, nil, err
	}
	stats.Residues = count
	stats.Primes = primes

	srcs := make([]*ff.Source, count)
	for k := range srcs {
		srcs[k] = p.Src.Split()
	}
	tWall := time.Now()
	ranks := make([]int, count)
	errsAt := make([]error, count)
	var wg sync.WaitGroup
	var sum int64
	var sumMu sync.Mutex
	for k := range primes {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t := time.Now()
			sp := obs.StartPhaseCtx(ctx, obs.PhaseRNSResidue)
			defer sp.End()
			f, err := ff.NewFp64(primes[k])
			if err != nil {
				errsAt[k] = err
				return
			}
			ad := reduceMat(a, primes[k])
			pk := p
			pk.Src = srcs[k]
			pk.Ctx = ctx
			ranks[k], errsAt[k] = Rank(f, ad, pk)
			sumMu.Lock()
			sum += time.Since(t).Nanoseconds()
			sumMu.Unlock()
		}(k)
	}
	wg.Wait()
	stats.ResidueWallNs = time.Since(tWall).Nanoseconds()
	stats.ResidueSumNs = sum
	best := 0
	for k := range ranks {
		if errsAt[k] != nil {
			return 0, stats, errsAt[k]
		}
		if ranks[k] > best {
			best = ranks[k]
		}
	}
	stats.finishTiming()
	return best, stats, nil
}

// SolveInt solves A·x = b exactly over ℚ for an integer system with a
// one-shot engine (no cross-call factorization cache; hold an IntEngine
// for that). A nil mul selects the classical multiplier; ctx comes from
// p.Ctx.
func SolveInt(mul matrix.Multiplier[uint64], a *rns.IntMat, b []*big.Int, rp rns.Params, p Params) (*rns.RatVec, *RingStats, error) {
	return NewIntEngine(mul).Solve(p.Ctx, a, b, rp, p)
}

// SolveRat solves a rational system A·x = b exactly with a one-shot
// engine; see IntEngine.SolveRat.
func SolveRat(mul matrix.Multiplier[uint64], a [][]*big.Rat, b []*big.Rat, rp rns.Params, p Params) (*rns.RatVec, *RingStats, error) {
	return NewIntEngine(mul).SolveRat(p.Ctx, a, b, rp, p)
}

// DetInt returns det(A) over ℤ with a one-shot engine; see IntEngine.Det.
func DetInt(mul matrix.Multiplier[uint64], a *rns.IntMat, rp rns.Params, p Params) (*big.Int, *RingStats, error) {
	return NewIntEngine(mul).Det(p.Ctx, a, rp, p)
}

// RankInt returns rank(A) over ℚ with a one-shot engine; see
// IntEngine.Rank.
func RankInt(mul matrix.Multiplier[uint64], a *rns.IntMat, rp rns.Params, p Params) (int, *RingStats, error) {
	return NewIntEngine(mul).Rank(p.Ctx, a, rp, p)
}

// errDetIsZero is the internal signal that the bad-prime budget was
// exhausted: enough distinct primes divide det(A) that det(A) = 0 is
// certain. Det turns it into the answer 0, Solve into ErrSingular.
var errDetIsZero = errors.New("kp: bad-prime product certifies det = 0")

var bigIntOne = big.NewInt(1)

// residueRun is the output of the concurrent residue phase.
type residueRun struct {
	primes []uint64   // final prime set (replacements in place)
	x      [][]uint64 // x[k][i] = solution coordinate i mod primes[k]; nil in det mode
	det    []uint64   // det[k] = det(A) mod primes[k]; zero in solve mode
}

// runResidues executes one independent residue solve per prime on a
// bounded worker pool. b nil selects det mode (factor + determinant only).
// badBudget is the number of distinct bad primes whose product certifies
// det = 0 (the caller's prime count: count primes each > 2^(bits−1) always
// out-product the bound the count was sized for).
func (e *IntEngine) runResidues(ctx context.Context, a *rns.IntMat, b []*big.Int, primes []uint64, seq *ff.NTTPrimeSeq, rp rns.Params, p Params, badBudget int, stats *RingStats) (*residueRun, error) {
	count := len(primes)
	run := &residueRun{
		primes: primes,
		det:    make([]uint64, count),
	}
	if b != nil {
		run.x = make([][]uint64, count)
	}
	digest := a.Digest()

	// Split one child source per residue upfront, in index order, so the
	// randomness each residue sees is independent of scheduling.
	srcs := make([]*ff.Source, count)
	for k := range srcs {
		srcs[k] = p.Src.Split()
	}

	workers := rp.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}

	rctx, cancel := context.WithCancel(contextOrBackground(ctx))
	defer cancel()
	var (
		mu       sync.Mutex // guards seq, badCount, firstErr, stats counters
		badCount int
		firstErr error
		sumNs    int64
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	jobs := make(chan int)
	tWall := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				for {
					t := time.Now()
					x, det, hit, err := e.solveResidue(rctx, a, digest, b, run.primes[k], srcs[k], p)
					mu.Lock()
					sumNs += time.Since(t).Nanoseconds()
					if hit {
						stats.CacheHits++
					} else if err == nil || isBadPrime(err) {
						stats.CacheMisses++
					}
					mu.Unlock()
					if err == nil {
						run.det[k] = det
						if b != nil {
							run.x[k] = x
						}
						rnsResidueSolves.Inc()
						break
					}
					if rctx.Err() != nil {
						return
					}
					if !isBadPrime(err) {
						fail(err)
						return
					}
					// Bad prime: primes[k] divides det(A). Replace it and
					// re-solve this residue only.
					rnsBadPrimes.Inc()
					obs.NoteBadPrimeReplacement(obs.TraceFromContext(rctx).Trace.String())
					mu.Lock()
					stats.BadPrimes++
					badCount++
					exhausted := badCount >= badBudget
					var next uint64
					var serr error
					if !exhausted {
						next, serr = seq.Next()
						srcs[k] = p.Src.Split()
					}
					mu.Unlock()
					if exhausted {
						fail(errDetIsZero)
						return
					}
					if serr != nil {
						fail(serr)
						return
					}
					run.primes[k] = next
				}
			}
		}()
	}
	for k := 0; k < count; k++ {
		select {
		case jobs <- k:
		case <-rctx.Done():
			k = count // stop feeding; workers drain on rctx
		}
	}
	close(jobs)
	wg.Wait()
	stats.ResidueWallNs = time.Since(tWall).Nanoseconds()
	stats.ResidueSumNs = sumNs
	stats.Residues = count
	stats.Primes = append([]uint64(nil), run.primes...)
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return run, nil
}

// solveResidue runs one residue field end to end: reduce, factor (or hit
// the cache), then the determinant in det mode (b == nil) or the verified
// backsolve in solve mode. Solve mode never reads a residue determinant, so
// it computes none: a completed Factor already certifies det ≢ 0 mod p, and
// a prime dividing det(A) fails there as a bad prime either way.
func (e *IntEngine) solveResidue(ctx context.Context, a *rns.IntMat, digest string, b []*big.Int, prime uint64, src *ff.Source, p Params) (x []uint64, det uint64, hit bool, err error) {
	sp := obs.StartPhaseCtx(ctx, obs.PhaseRNSResidue)
	defer sp.End()
	f, err := ff.NewFp64(prime)
	if err != nil {
		return nil, 0, false, err
	}
	key := digest + "|" + strconv.FormatUint(prime, 10) + "|" + string(p.Precond)
	fa := e.cacheGet(key)
	if fa != nil {
		hit = true
		rnsCacheHits.Inc()
	} else {
		rnsCacheMisses.Inc()
		pk := p
		pk.Src = src
		pk.Ctx = ctx
		fa, err = Factor(f, e.mul, reduceMat(a, prime), pk)
		if err != nil {
			return nil, 0, false, err
		}
		e.cachePut(key, fa)
	}
	if b == nil {
		det, err = fa.Det()
		if err != nil {
			return nil, 0, hit, err
		}
		if det == 0 {
			// Unreachable in practice (Factor certifies non-singularity), but a
			// zero here must count as a bad prime, not poison the CRT.
			return nil, 0, hit, fmt.Errorf("kp: det ≡ 0 mod %d: %w", prime, matrix.ErrSingular)
		}
		return nil, det, hit, nil
	}
	br := make([]uint64, len(b))
	rns.ReduceVecMod(b, prime, br)
	x, err = fa.SolveCtx(ctx, br)
	if err != nil {
		return nil, 0, hit, err
	}
	return x, 0, hit, nil
}

// checkDetResidue compares det mod a fresh check prime against a direct
// residue computation, replacing check primes that themselves divide det.
func (e *IntEngine) checkDetResidue(ctx context.Context, a *rns.IntMat, seq *ff.NTTPrimeSeq, rp rns.Params, p Params, det *big.Int, stats *RingStats) (bool, error) {
	digest := a.Digest()
	tmp := new(big.Int)
	for tries := 0; tries < 8; tries++ {
		q, err := seq.Next()
		if err != nil {
			return false, err
		}
		_, got, hit, err := e.solveResidue(ctx, a, digest, nil, q, p.Src.Split(), p)
		if hit {
			stats.CacheHits++
		} else if err == nil || isBadPrime(err) {
			stats.CacheMisses++
		}
		if err != nil {
			if isBadPrime(err) && ctxErr(ctx) == nil {
				stats.BadPrimes++
				rnsBadPrimes.Inc()
				obs.NoteBadPrimeReplacement(obs.TraceFromContext(ctx).Trace.String())
				continue
			}
			return false, err
		}
		want := tmp.Mod(det, tmp.SetUint64(q)).Uint64()
		return got == want, nil
	}
	return false, fmt.Errorf("kp: could not find a check prime not dividing det(A): %w", ErrRetriesExhausted)
}

// isBadPrime classifies residue failures attributable to the prime
// dividing det(A): the matrix is genuinely singular mod p, so the Las
// Vegas drivers exhaust their retries or hit zero divisions.
func isBadPrime(err error) bool {
	return errors.Is(err, ErrRetriesExhausted) || isDivisionError(err)
}

func reduceMat(a *rns.IntMat, p uint64) *matrix.Dense[uint64] {
	d := &matrix.Dense[uint64]{Rows: a.Rows, Cols: a.Cols, Data: make([]uint64, a.Rows*a.Cols)}
	a.ReduceMod(p, d.Data)
	return d
}

func drawPrimes(seq *ff.NTTPrimeSeq, count int) ([]uint64, error) {
	primes := make([]uint64, count)
	for k := range primes {
		p, err := seq.Next()
		if err != nil {
			return nil, err
		}
		primes[k] = p
	}
	return primes, nil
}

func contextOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// intResidualZero checks A·num == den·b over ℤ.
func intResidualZero(a *rns.IntMat, v *rns.RatVec, b []*big.Int) bool {
	n := a.Rows
	acc := new(big.Int)
	term := new(big.Int)
	rhs := new(big.Int)
	for i := 0; i < n; i++ {
		acc.SetInt64(0)
		for j := 0; j < a.Cols; j++ {
			acc.Add(acc, term.Mul(a.At(i, j), v.Num[j]))
		}
		rhs.Mul(v.Den, b[i])
		if acc.Cmp(rhs) != 0 {
			return false
		}
	}
	return true
}
