// Package kp implements the headline algorithms of Kaltofen–Pan (SPAA
// 1991): the Theorem 4 randomized solver for non-singular systems, the §2
// determinant, the Theorem 6 inverse obtained by Baur–Strassen
// differentiation of the determinant circuit, the transposed-system solver
// from the end of §4, and the §5 extensions (rank, singular systems,
// nullspace bases, least squares, polynomial GCD via structured matrices).
//
// Every core pipeline comes in two forms: a branch-free single attempt
// (XxxOnce) that runs over any ff.Field — including the circuit.Builder,
// which turns it into the paper's algebraic circuit — and a Las Vegas
// driver (Xxx) that draws randomness, verifies the result, and retries on
// unlucky choices, realizing the 1 − 3n²/|S| success probability.
package kp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/charpoly"
	"repro/internal/circuit"
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/structured"
)

// Randomness is the O(n) random field elements of Theorems 4 and 6: the
// 2n−1 Hankel entries, the n diagonal entries, and the projection vectors
// u and v of the Wiedemann sequence.
type Randomness[E any] struct {
	H []E // Hankel preconditioner entries (2n−1)
	D []E // diagonal preconditioner entries (n)
	U []E // row projection (n)
	V []E // column projection (n)
}

// Flat returns the randomness as one slice in canonical order (H, D, U, V),
// the order the traced circuits consume their random inputs in.
func (r Randomness[E]) Flat() []E {
	out := make([]E, 0, len(r.H)+len(r.D)+len(r.U)+len(r.V))
	out = append(out, r.H...)
	out = append(out, r.D...)
	out = append(out, r.U...)
	out = append(out, r.V...)
	return out
}

// Count returns the number of random elements for dimension n: 5n−1 = O(n),
// matching the theorems' "O(n) nodes that denote random (input) elements".
func Count(n int) int { return 5*n - 1 }

// DrawRandomness samples the Theorem 4 randomness uniformly from the
// canonical subset of size subset. Diagonal entries are drawn non-zero (a
// zero entry is an automatic failure the analysis already charges for).
func DrawRandomness[E any](f ff.Field[E], src *ff.Source, n int, subset uint64) Randomness[E] {
	// One backing array in Flat order (H, D, U, V); the stream is consumed
	// D first, then H, U, V.
	buf := make([]E, Count(n))
	h, rest := buf[:2*n-1:2*n-1], buf[2*n-1:]
	r := Randomness[E]{H: h, D: rest[:n:n], U: rest[n : 2*n : 2*n], V: rest[2*n:]}
	ff.SampleNonZeroVecInto(f, src, r.D, subset)
	ff.SampleVecInto(f, src, r.H, subset)
	ff.SampleVecInto(f, src, r.U, subset)
	ff.SampleVecInto(f, src, r.V, subset)
	return r
}

// precondition returns Ã = A·H·D as a dense matrix (mul is the paper's
// matrix-multiplication black box, so the A·H product inherits its ω).
func precondition[E any](f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], rnd Randomness[E]) *matrix.Dense[E] {
	ah := mul.Mul(f, a, matrix.HankelDense(f, rnd.H))
	// The D factor scales columns; over large concrete fields this runs in
	// parallel on the matrix package's worker pool.
	return matrix.ScaleColumnsDiag(f, ah, rnd.D)
}

// charPolyOfPreconditioned runs the Theorem 4 front end on a formed Ã:
// the sequence (8) u·Ãⁱ·v, i < 2n, its Lemma 1 minimum polynomial (see
// charPolyFromSequence), and returns the (with high probability)
// characteristic polynomial λⁿ − c_{n−1}λ^{n−1} − … − c₀ of Ã, low degree
// first.
func charPolyOfPreconditioned[E any](f ff.Field[E], mul matrix.Multiplier[E], atilde *matrix.Dense[E], rnd Randomness[E]) ([]E, error) {
	return charPolyCtx(nil, f, mul, atilde, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
}

// charPolyCtx is the context-aware core of charPolyOfPreconditioned, shared
// with the batch engine (span names are injected so the batch route records
// batch/krylov + batch/minpoly). Fields with fused kernels build the
// sequence by 2n−1 applies of Ã (charPolyBoxCtx): O(n³) work at depth O(n).
// Every other field — the circuit builder, the counting and the
// arbitrary-precision fields — keeps the doubling of (9): 2·log₂n − 1
// products, O(n^ω log n) work at depth O((log n)²), the paper's circuit.
func charPolyCtx[E any](ctx context.Context, f ff.Field[E], mul matrix.Multiplier[E], atilde *matrix.Dense[E], rnd Randomness[E], krylovPhase, minpolyPhase string) ([]E, error) {
	if _, fused := ff.KernelsOf(f); fused {
		return charPolyBoxCtx(ctx, f, denseBox(atilde), rnd, krylovPhase, minpolyPhase)
	}
	n := atilde.Rows
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// Sequence a_i = u·Ãⁱ·v, i = 0..2n−1, via the doubling of (9). Spans
	// close eagerly for tight timing and again via defer: the defer is the
	// leak guard that keeps no span (and no stale Observer current pointer)
	// open when an error, a cancellation or a panic exits early.
	sp := obs.StartPhaseCtx(ctx, krylovPhase)
	defer sp.End()
	v := &matrix.Dense[E]{Rows: n, Cols: 1, Data: append([]E(nil), rnd.V...)}
	k := matrix.KrylovBlockDoubling(f, mul, atilde, v, 2*n)
	a := matrix.ProjectKrylov(f, rnd.U, k)
	sp.End()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sp = obs.StartPhaseCtx(ctx, minpolyPhase)
	defer sp.End()
	cp, err := charPolyFromSequence(f, a, n, func(tm structured.Toeplitz[E], rhs []E) ([]E, error) {
		// Theorem 3 + Cayley–Hamilton with the Krylov vectors of T by the
		// doubling of (9): the O((log n)²)-depth route Theorem 4 invokes.
		return structured.SolveParallel(f, mul, tm, rhs)
	})
	sp.End()
	if err != nil {
		return nil, inPhase(minpolyPhase, err)
	}
	return cp, nil
}

// denseBox is a formed Ã as a counted black box.
func denseBox[E any](atilde *matrix.Dense[E]) countedBox[E] {
	return newCountedBox[E](matrix.DenseBox[E]{M: atilde})
}

// charPolyFromSequence recovers λⁿ − c_{n−1}λ^{n−1} − … − c₀ (low degree
// first) from the 2n terms a_i = u·Ãⁱ·v. Lemma 1 makes it the solution of
// T_n·(c_{n−1},…,c₀)ᵀ = (a_n,…,a_{2n−1})ᵀ, and T_n is non-singular exactly
// when the sequence's minimum polynomial has degree n. Two routes compute
// the same polynomial:
//
//   - Fields with fused kernels (the concrete hot path) run Berlekamp–Massey
//     in O(n²): a degree-n generator is the unique solution of the system,
//     a shorter one means T_n is singular (matrix.ErrSingular).
//   - Every other field — the circuit builder and the counting and
//     arbitrary-precision fields — hands the system to solveToeplitz, the
//     paper's Theorem 3 machinery, so traced circuits and abstract op counts
//     stay those of the paper.
//
// Both routes keep Theorem 4's hypothesis: characteristic ≤ n is
// charpoly.ErrSmallCharacteristic. Berlekamp–Massey does not need it; the
// check keeps the two routes' error contracts the same.
func charPolyFromSequence[E any](f ff.Field[E], a []E, n int, solveToeplitz func(structured.Toeplitz[E], []E) ([]E, error)) ([]E, error) {
	if _, fused := ff.KernelsOf(f); fused {
		if !ff.CharacteristicExceeds(f, n) {
			return nil, charpoly.ErrSmallCharacteristic
		}
		mp, err := seq.MinPoly(f, a[:2*n])
		if err != nil {
			return nil, err
		}
		if len(mp) != n+1 {
			return nil, matrix.ErrSingular
		}
		return mp, nil
	}
	c, err := solveToeplitz(structured.NewToeplitz(a[:2*n-1]), a[n:2*n])
	if err != nil {
		return nil, err
	}
	// Assemble λⁿ − c_{n−1}λ^{n−1} − … − c₀ (c is ordered high to low).
	cp := make([]E, n+1)
	for i := 0; i < n; i++ {
		cp[i] = f.Neg(c[n-1-i])
	}
	cp[n] = f.One()
	return cp, nil
}

// SolveOnce is one branch-free attempt at Theorem 4: solve A·x = b with the
// supplied randomness. It performs no zero tests; with unlucky randomness
// it either divides by zero (over a concrete field: an error; over the
// circuit builder: a division node that fails at evaluation) or returns a
// wrong vector, which the Las Vegas driver detects by checking A·x = b.
func SolveOnce[E any](f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], b []E, rnd Randomness[E]) ([]E, error) {
	return solveOnceCtx(nil, f, mul, a, b, rnd)
}

// solveOnceCtx is SolveOnce with cooperative cancellation. Ã is formed
// with one product either way. Over fields with fused kernels the rest of
// the attempt is the black-box engine (solveBoxCtx): 3n−2 applies of Ã,
// with ctx polled every few applies. Every other field, the circuit builder
// included, keeps the paper's route: the doubling of (9) for the sequence
// and again for the Krylov vectors of b, then a balanced vector sum — with
// ctx checked between phases.
func solveOnceCtx[E any](ctx context.Context, f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], b []E, rnd Randomness[E]) ([]E, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("kp: SolveOnce needs a square system")
	}
	sp := obs.StartPhaseCtx(ctx, obs.PhasePrecondition)
	defer sp.End()
	atilde := precondition(f, mul, a, rnd)
	sp.End()
	if _, fused := ff.KernelsOf(f); fused {
		return solveBoxCtx(ctx, f, denseBox(atilde), nil, b, rnd)
	}
	cp, err := charPolyCtx(ctx, f, mul, atilde, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// Cayley–Hamilton: x̃ = −(1/pₙ)·Σ_{j=0}^{n−1} p_{n−1−j}·Ãʲ·b, with
	// pₙ = cp[0] and p_{n−1−j} = cp[j+1]; the Krylov vectors Ãʲb come from
	// one more doubling pass, summed by a balanced vector tree — the
	// O(log n)-depth accumulation the traced circuit (TraceSolve) keeps.
	sp = obs.StartPhaseCtx(ctx, obs.PhaseBacksolve)
	defer sp.End()
	kb := matrix.KrylovBlockDoubling(f, mul, atilde, &matrix.Dense[E]{Rows: n, Cols: 1, Data: b}, n)
	scaled := make([][]E, n)
	for j := 0; j < n; j++ {
		scaled[j] = ff.VecScale(f, cp[j+1], kb.Col(j))
	}
	acc := ff.SumVecs(f, scaled)
	scale, err := f.Div(f.Neg(f.One()), cp[0])
	if err != nil {
		return nil, inPhase(obs.PhaseBacksolve, err)
	}
	ff.VecScaleInto(f, acc, scale, acc)
	return undoPrecondition(f, structured.NewHankel(rnd.H), rnd.D, acc), nil
}

// Solve is the Las Vegas Theorem 4 driver: it draws fresh randomness,
// attempts SolveOnce, verifies A·x = b, and retries on failure. A returned
// solution is always correct; ErrRetriesExhausted after Params.Retries
// attempts indicates a singular matrix except with negligible probability.
// Requires characteristic 0 or > n (Theorem 4's hypothesis). The zero
// Params is a valid default configuration.
func Solve[E any](f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], b []E, p Params) ([]E, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("kp: Solve needs a square system with a matching right-hand side (A is %d×%d, b has %d entries): %w",
			a.Rows, a.Cols, len(b), ErrBadShape)
	}
	p = fill(f, p)
	rec := newAttemptRecorder(solverSolve, n, 1, p)
	for attempt := 0; attempt < p.Retries; attempt++ {
		if err := ctxErr(p.Ctx); err != nil {
			rec.finish(err)
			return nil, err
		}
		rnd := DrawRandomness(f, p.Src, n, p.Subset)
		start := time.Now()
		var x []E
		var err error
		if p.Precond == PrecondImplicit {
			x, err = solveOnceImplicitCtx(p.Ctx, f, a, b, rnd)
		} else {
			x, err = solveOnceCtx(p.Ctx, f, mul, a, b, rnd)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				rec.finish(err)
				return nil, err
			}
			rec.attemptErr(err, time.Since(start))
			if isDivisionError(err) {
				continue // unlucky randomness (or singular input)
			}
			rec.finish(err)
			return nil, err
		}
		if a.MulVecEquals(f, x, b) {
			rec.attempt(obs.OutcomeSuccess, "", time.Since(start))
			rec.finish(nil)
			return x, nil
		}
		rec.attempt(obs.OutcomeVerifyFailed, "verify", time.Since(start))
	}
	rec.finish(ErrRetriesExhausted)
	return nil, ErrRetriesExhausted
}

// TraceSolve builds the Theorem 4 circuit for dimension n: inputs are the
// n² entries of A and the n entries of b; the 5n−1 random elements enter as
// random-input nodes; the n outputs are A⁻¹b. The circuit has size
// O(n^ω·log n) (with the classical multiplier, ω = 3) and depth
// O((log n)²), and divides by zero only on unlucky random values — exactly
// the statement of Theorem 4.
func TraceSolve[E any](model ff.Field[E], mul matrix.Multiplier[circuit.Wire], n int) (*circuit.Builder, error) {
	b := circuit.NewBuilderFor(model)
	aw := matrixInput(b, n)
	bw := b.Inputs(n)
	rnd := randomnessInput(b, n)
	x, err := SolveOnce[circuit.Wire](b, mul, aw, bw, rnd)
	if err != nil {
		return nil, err
	}
	b.Return(x...)
	return b, nil
}

// matrixInput declares an n×n input matrix (row-major input order).
func matrixInput(b *circuit.Builder, n int) *matrix.Dense[circuit.Wire] {
	return &matrix.Dense[circuit.Wire]{Rows: n, Cols: n, Data: b.Inputs(n * n)}
}

// randomnessInput declares the Theorem 4 randomness as random-input nodes,
// in the canonical Flat order.
func randomnessInput(b *circuit.Builder, n int) Randomness[circuit.Wire] {
	return Randomness[circuit.Wire]{
		H: b.RandomInputs(2*n - 1),
		D: b.RandomInputs(n),
		U: b.RandomInputs(n),
		V: b.RandomInputs(n),
	}
}
