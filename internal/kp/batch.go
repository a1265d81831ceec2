package kp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/structured"
)

// Batched multi-RHS solve engine. Everything expensive in a Theorem 4
// attempt — the preconditioning Ã = A·H·D, the Krylov doubling and its
// Ã^{2^i} power ladder, and the Lemma 1 characteristic-polynomial recovery
// — depends only on (A, randomness), never on the right-hand side. The
// engine therefore runs that front end once and amortizes it across k
// right-hand sides: the per-RHS tail is one block Cayley–Hamilton
// backsolve, fused as matrix–matrix work over all pending columns, plus
// the A·X = B verification. At k = 8 this shares the ~dozen full n×n
// products of the squaring ladder and the minpoly recovery, leaving
// roughly one matrix product of marginal cost per extra RHS.
//
// The same split yields the reusable handle: Factor captures the certified
// front end in a Factorization whose Solve/InverseApply replay only the
// backsolve (observable as batch/backsolve spans with no further
// batch/krylov span).

// Factorization is the reusable product of the shared Theorem 4 front end
// for one non-singular matrix: the preconditioner, the drawn randomness,
// the characteristic polynomial of Ã, and the cached power ladder Ã^{2^i}.
// It is obtained from Factor and amortizes every subsequent solve against
// the same matrix down to one block backsolve.
//
// Solve, InverseApply and Det are safe for concurrent use: everything but
// the on-demand power-ladder cache is immutable after Factor, and the
// ladder is read and extended through a mutex-guarded snapshot/merge (each
// call works on a private copy of the slice header, so a concurrent
// extension is recomputed rather than raced on — see backsolve). The kpd
// factorization cache relies on this to hand one handle to many requests.
type Factorization[E any] struct {
	f      ff.Field[E]
	mul    matrix.Multiplier[E]
	a      *matrix.Dense[E]
	rnd    Randomness[E]
	atilde *matrix.Dense[E]
	hd     *matrix.Dense[E] // dense Hankel preconditioner H
	cp     []E              // char poly of Ã, low degree first, cp[n] = 1
	scale  E                // −1/cp[0]
	n      int

	// mode is the preconditioner realization this factorization was built
	// under (it determines the backsolve route and is part of the kpd cache
	// key). In PrecondImplicit, atilde/hd/pows stay nil and abox/h carry the
	// operator instead.
	mode PrecondMode
	abox matrix.BlackBox[E]
	h    structured.Hankel[E]

	// mu guards pows, the Ã^{2^i} ladder shared by concurrent backsolves.
	// The individual matrices are immutable once appended; only the slice
	// itself mutates.
	mu   sync.Mutex
	pows []*matrix.Dense[E]
}

// Mode returns the preconditioner realization the factorization was built
// under.
func (fa *Factorization[E]) Mode() PrecondMode { return fa.mode }

// ladderSnapshot returns a private copy of the power-ladder slice header.
// The caller may append to it freely: the copy has its own backing array,
// and the shared matrices inside are never written after creation.
func (fa *Factorization[E]) ladderSnapshot() []*matrix.Dense[E] {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return append(make([]*matrix.Dense[E], 0, len(fa.pows)+2), fa.pows...)
}

// ladderMerge publishes a ladder extended by a backsolve, keeping the
// longest one seen. Concurrent extenders compute identical matrices (the
// ladder is the deterministic squaring sequence of Ã), so whichever copy
// wins, subsequent snapshots see a correct prefix of the same sequence.
func (fa *Factorization[E]) ladderMerge(ladder []*matrix.Dense[E]) {
	fa.mu.Lock()
	if len(ladder) > len(fa.pows) {
		fa.pows = ladder
	}
	fa.mu.Unlock()
}

// factorOnce runs the shared front end of one attempt with the supplied
// randomness, recording the batch/precondition, batch/krylov and
// batch/minpoly spans. A zero constant term (singular Ã: unlucky
// randomness or a singular input) surfaces as ff.ErrDivisionByZero.
func factorOnce[E any](ctx context.Context, f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], rnd Randomness[E], mode PrecondMode) (*Factorization[E], error) {
	if mode == PrecondImplicit {
		return factorOnceImplicit(ctx, f, mul, a, rnd)
	}
	n := a.Rows
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBatchPrecondition)
	defer sp.End()
	hd := matrix.HankelDense(f, rnd.H)
	atilde := matrix.ScaleColumnsDiag(f, mul.Mul(f, a, hd), rnd.D)
	sp.End()
	pows := make([]*matrix.Dense[E], 0, 8)
	cp, err := charPolyCtx(ctx, f, mul, atilde, rnd, obs.PhaseBatchKrylov, obs.PhaseBatchMinPoly, &pows)
	if err != nil {
		return nil, err
	}
	scale, err := f.Div(f.Neg(f.One()), cp[0])
	if err != nil {
		return nil, inPhase(obs.PhaseBatchMinPoly, err)
	}
	return &Factorization[E]{
		f: f, mul: mul, a: a, rnd: rnd, atilde: atilde, hd: hd,
		cp: cp, scale: scale, pows: pows, n: n, mode: PrecondDense,
	}, nil
}

// factorOnceImplicit is the shared front end with Ã composed, never formed:
// the batch/precondition span performs no dense multiplication at all, and
// the Krylov/minpoly phases run on black-box applies.
func factorOnceImplicit[E any](ctx context.Context, f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], rnd Randomness[E]) (*Factorization[E], error) {
	n := a.Rows
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBatchPrecondition)
	defer sp.End()
	abox, h := preconditionBox(f, a, rnd)
	sp.End()
	cp, err := charPolyImplicitCtx(ctx, f, abox, rnd, obs.PhaseBatchKrylov, obs.PhaseBatchMinPoly)
	if err != nil {
		return nil, err
	}
	scale, err := f.Div(f.Neg(f.One()), cp[0])
	if err != nil {
		return nil, inPhase(obs.PhaseBatchMinPoly, err)
	}
	return &Factorization[E]{
		f: f, mul: mul, a: a, rnd: rnd,
		cp: cp, scale: scale, n: n, mode: PrecondImplicit, abox: abox, h: h,
	}, nil
}

// backsolve computes X = A⁻¹·B for the columns of bm through the cached
// front end: one block Krylov doubling (reusing the Ã^{2^i} ladder, so no
// squarings recur), the fused Cayley–Hamilton combination
// −(1/c₀)·Σⱼ c_{j+1}·Ãʲ·B, and the preconditioner undo X = H·(D·X̃). The
// result is unverified — callers wrap it in their own batch/verify check.
func (fa *Factorization[E]) backsolve(ctx context.Context, bm *matrix.Dense[E]) *matrix.Dense[E] {
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBatchBacksolve)
	defer sp.End()
	if fa.mode == PrecondImplicit {
		return fa.backsolveImplicit(bm)
	}
	f, n, k := fa.f, fa.n, bm.Cols
	ladder := fa.ladderSnapshot()
	wb := matrix.KrylovBlockDoubling(f, fa.mul, fa.atilde, bm, n, &ladder)
	fa.ladderMerge(ladder)
	xt := matrix.CombineKrylovBlocks(f, wb, k, fa.cp[1:n+1])
	// Fold the −1/c₀ scale and the diagonal D into one row sweep:
	// row i of D·(scale·X̃) is (scale·dᵢ)·X̃ᵢ.
	for i := 0; i < n; i++ {
		ci := f.Mul(fa.scale, fa.rnd.D[i])
		row := xt.Data[i*k : (i+1)*k]
		for j := range row {
			row[j] = f.Mul(ci, row[j])
		}
	}
	return fa.mul.Mul(f, fa.hd, xt)
}

// backsolveImplicit runs the per-column iterative Cayley–Hamilton backsolve
// on the composed operator: n−1 black-box applies per column (O(n² log n)
// each with the cached-NTT Hankel apply), then the structured undo
// x = H·(D·x̃) — no dense ladder, no dense H product.
func (fa *Factorization[E]) backsolveImplicit(bm *matrix.Dense[E]) *matrix.Dense[E] {
	f, n, k := fa.f, fa.n, bm.Cols
	out := matrix.NewDense(f, n, k)
	for j := 0; j < k; j++ {
		xt := chBacksolveBox(f, fa.abox, fa.cp, fa.scale, bm.Col(j))
		x := undoPrecondition(f, fa.h, fa.rnd.D, xt)
		for i := 0; i < n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}

// Dim returns the dimension of the factored matrix.
func (fa *Factorization[E]) Dim() int { return fa.n }

// Solve returns the verified solution of A·x = b, skipping the Krylov
// phase: only a batch/backsolve and a batch/verify span are recorded. A
// verification failure (probability ≤ 3n²/|S| per Factor, and only if the
// probe certification was also fooled) is reported as ErrRetriesExhausted
// — re-Factor to retry with fresh randomness.
func (fa *Factorization[E]) Solve(b []E) ([]E, error) {
	return fa.SolveCtx(nil, b)
}

// SolveCtx is Solve carrying a request context: spans record under the
// context's trace scope (per-request attribution in kpd) and ctx is not
// otherwise consulted — the backsolve is non-iterative, so there is no
// useful cancellation point inside it.
func (fa *Factorization[E]) SolveCtx(ctx context.Context, b []E) ([]E, error) {
	if len(b) != fa.n {
		return nil, fmt.Errorf("kp: Factorization.Solve needs a length-%d right-hand side (got %d): %w", fa.n, len(b), ErrBadShape)
	}
	bm := &matrix.Dense[E]{Rows: fa.n, Cols: 1, Data: append([]E(nil), b...)}
	x := fa.backsolve(ctx, bm)
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBatchVerify)
	ok := ff.VecEqual(fa.f, fa.a.MulVec(fa.f, x.Col(0)), b)
	sp.End()
	if !ok {
		return nil, fmt.Errorf("kp: Factorization.Solve verification failed (stale or unlucky factorization): %w", ErrRetriesExhausted)
	}
	return x.Col(0), nil
}

// InverseApply returns the verified X = A⁻¹·B for all columns of bm in one
// fused backsolve. Any column failing verification fails the whole call
// with ErrRetriesExhausted (re-Factor to retry).
func (fa *Factorization[E]) InverseApply(bm *matrix.Dense[E]) (*matrix.Dense[E], error) {
	return fa.InverseApplyCtx(nil, bm)
}

// InverseApplyCtx is InverseApply carrying a request context for span
// attribution (see SolveCtx).
func (fa *Factorization[E]) InverseApplyCtx(ctx context.Context, bm *matrix.Dense[E]) (*matrix.Dense[E], error) {
	if bm.Rows != fa.n {
		return nil, fmt.Errorf("kp: Factorization.InverseApply needs %d-row columns (got %d): %w", fa.n, bm.Rows, ErrBadShape)
	}
	if bm.Cols == 0 {
		return matrix.NewDense(fa.f, fa.n, 0), nil
	}
	x := fa.backsolve(ctx, bm)
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBatchVerify)
	ok := fa.mul.Mul(fa.f, fa.a, x).Equal(fa.f, bm)
	sp.End()
	if !ok {
		return nil, fmt.Errorf("kp: Factorization.InverseApply verification failed: %w", ErrRetriesExhausted)
	}
	return x, nil
}

// Det returns det(A) from the cached characteristic polynomial:
// det(Ã) = (−1)ⁿ·c₀ divided by det(H)·det(D). Only det(H) costs anything:
// structured.DetHankel runs Berlekamp–Massey on fused-kernel fields and the
// Theorem 3 Newton charpoly elsewhere. Solves never call it; the exact ℤ
// engine calls it only in det mode. Unlike the standalone Det
// driver it does not cross-check independent randomizations — the answer
// is Monte Carlo with the factorization's ≤ 3n²/|S| error bound (the probe
// certification of Factor does not certify the determinant itself).
func (fa *Factorization[E]) Det() (E, error) {
	f := fa.f
	detTilde := fa.cp[0]
	if fa.n%2 == 1 {
		detTilde = f.Neg(detTilde)
	}
	detH, err := structured.DetHankel(f, structured.Hankel[E]{N: fa.n, D: fa.rnd.H})
	if err != nil {
		return detTilde, err
	}
	detD := balancedProduct(f, fa.rnd.D)
	return f.Div(detTilde, f.Mul(detH, detD))
}

// Factor runs the shared Theorem 4 front end for a non-singular matrix and
// returns a certified reusable handle. Certification solves one random
// probe system and checks A·x = probe, so a surviving Factorization has a
// correct characteristic polynomial except with the usual ≤ 3n²/|S|
// probability; every subsequent Solve additionally verifies its own
// result, keeping the Las Vegas guarantee. Requires characteristic 0 or
// > n.
func Factor[E any](f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], p Params) (*Factorization[E], error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("kp: Factor needs a square matrix (got %d×%d): %w", a.Rows, a.Cols, ErrBadShape)
	}
	p = fill(f, p)
	rec := newAttemptRecorder(solverFactor, n, 1, p)
	for attempt := 0; attempt < p.Retries; attempt++ {
		if err := ctxErr(p.Ctx); err != nil {
			rec.finish(err)
			return nil, err
		}
		rnd := DrawRandomness(f, p.Src, n, p.Subset)
		start := time.Now()
		fa, err := factorOnce(p.Ctx, f, mul, a, rnd, p.Precond)
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
		probe := ff.SampleVec(f, p.Src, n, p.Subset)
		x := fa.backsolve(p.Ctx, &matrix.Dense[E]{Rows: n, Cols: 1, Data: append([]E(nil), probe...)})
		sp := obs.StartPhaseCtx(p.Ctx, obs.PhaseBatchVerify)
		ok := ff.VecEqual(f, a.MulVec(f, x.Col(0)), probe)
		sp.End()
		if ok {
			rec.attempt(obs.OutcomeSuccess, "", time.Since(start))
			rec.finish(nil)
			return fa, nil
		}
		rec.attempt(obs.OutcomeVerifyFailed, obs.PhaseBatchVerify, time.Since(start))
	}
	rec.finish(ErrRetriesExhausted)
	return nil, ErrRetriesExhausted
}

// SolveBatch solves A·X = B for all k = B.Cols right-hand sides at once:
// one shared front end per attempt, one fused block backsolve over the
// still-pending columns, and a blocked verification. Columns that verify
// are committed; an unlucky column retries alone (with the other
// stragglers) under fresh randomness, so one bad draw never re-runs the
// whole batch. Results are exact and verified, hence bit-identical to k
// independent Solve calls. Requires characteristic 0 or > n.
func SolveBatch[E any](f ff.Field[E], mul matrix.Multiplier[E], a, bm *matrix.Dense[E], p Params) (*matrix.Dense[E], error) {
	n := a.Rows
	if a.Cols != n || bm.Rows != n {
		return nil, fmt.Errorf("kp: SolveBatch needs a square matrix and matching right-hand sides (A is %d×%d, B is %d×%d): %w",
			a.Rows, a.Cols, bm.Rows, bm.Cols, ErrBadShape)
	}
	k := bm.Cols
	out := matrix.NewDense(f, n, k)
	if k == 0 {
		return out, nil
	}
	p = fill(f, p)
	batchSizeHist.Observe(int64(k))
	rec := newAttemptRecorder(solverBatch, n, k, p)
	pending := make([]int, k)
	for i := range pending {
		pending[i] = i
	}
	for attempt := 0; attempt < p.Retries && len(pending) > 0; attempt++ {
		if err := ctxErr(p.Ctx); err != nil {
			rec.finish(err)
			return nil, err
		}
		rnd := DrawRandomness(f, p.Src, n, p.Subset)
		start := time.Now()
		fa, err := factorOnce(p.Ctx, f, mul, a, rnd, p.Precond)
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
		sub := pickColumns(f, bm, pending)
		x := fa.backsolve(p.Ctx, sub)
		sp := obs.StartPhaseCtx(p.Ctx, obs.PhaseBatchVerify)
		ax := fa.mul.Mul(f, a, x)
		var still []int
		for idx, col := range pending {
			verified := true
			for i := 0; i < n; i++ {
				if !f.Equal(ax.At(i, idx), bm.At(i, col)) {
					verified = false
					break
				}
			}
			if verified {
				for i := 0; i < n; i++ {
					out.Set(i, col, x.At(i, idx))
				}
			} else {
				still = append(still, col)
			}
		}
		sp.End()
		if len(still) == 0 {
			rec.attempt(obs.OutcomeSuccess, "", time.Since(start))
		} else {
			// At least one column failed its A·x = b check under this
			// randomness: the attempt counts as a verify failure even though
			// the verified columns were committed.
			rec.attempt(obs.OutcomeVerifyFailed, obs.PhaseBatchVerify, time.Since(start))
		}
		pending = still
	}
	if len(pending) > 0 {
		rec.finish(ErrRetriesExhausted)
		return nil, ErrRetriesExhausted
	}
	rec.finish(nil)
	return out, nil
}

// pickColumns gathers the listed columns of bm into a fresh dense matrix.
func pickColumns[E any](f ff.Field[E], bm *matrix.Dense[E], cols []int) *matrix.Dense[E] {
	out := matrix.NewDense(f, bm.Rows, len(cols))
	for i := 0; i < bm.Rows; i++ {
		for j, c := range cols {
			out.Set(i, j, bm.At(i, c))
		}
	}
	return out
}
