package kp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/structured"
)

// Batched multi-RHS solve engine. Everything expensive in a Theorem 4
// attempt — the preconditioning Ã = A·H·D, the Krylov sequence and the
// Lemma 1 characteristic-polynomial recovery — depends only on (A,
// randomness), never on the right-hand side. The engine therefore runs that
// front end once and amortizes it across k right-hand sides: the per-RHS
// tail is one block Cayley–Hamilton backsolve over all pending columns,
// plus the A·X = B verification.
//
// The same split yields the reusable handle: Factor captures the certified
// front end in a Factorization whose Solve/InverseApply replay only the
// backsolve (observable as batch/backsolve spans with no further
// batch/krylov span).

// Factorization is the reusable product of the shared Theorem 4 front end
// for one non-singular matrix: the preconditioner, the drawn randomness and
// the characteristic polynomial of Ã. It is obtained from Factor and
// amortizes every subsequent solve against the same matrix down to one
// backsolve: n−1 applies of Ã per column, or n−1 products of Ã with the
// n×k block of columns, on concrete fields; one block doubling pass on the
// kernel-less fields.
//
// A Factorization is immutable after Factor, so Solve, InverseApply and
// Det are safe for concurrent use. The kpd factorization cache relies on
// this to hand one handle to many requests.
type Factorization[E any] struct {
	f     ff.Field[E]
	mul   matrix.Multiplier[E]
	a     *matrix.Dense[E]
	rnd   Randomness[E]
	cp    []E // char poly of Ã, low degree first, cp[n] = 1
	scale E   // −1/cp[0]
	n     int

	// mode is the preconditioner realization this factorization was built
	// under (part of the kpd cache key). op applies Ã in either mode; the
	// dense Ã behind it is kept as atilde in PrecondDense (nil in
	// PrecondImplicit) for the block products. h is the Hankel factor H.
	mode   PrecondMode
	op     matrix.BlackBox[E]
	atilde *matrix.Dense[E]
	h      structured.Hankel[E]
}

// Mode returns the preconditioner realization the factorization was built
// under.
func (fa *Factorization[E]) Mode() PrecondMode { return fa.mode }

// factorOnce runs the shared front end of one attempt with the supplied
// randomness, recording the batch/precondition, batch/krylov and
// batch/minpoly spans. A zero constant term (singular Ã: unlucky
// randomness or a singular input) surfaces as ff.ErrDivisionByZero.
// PrecondDense forms Ã with one product; PrecondImplicit composes it, and
// its precondition span performs no field operation at all.
func factorOnce[E any](ctx context.Context, f ff.Field[E], mul matrix.Multiplier[E], a *matrix.Dense[E], rnd Randomness[E], mode PrecondMode) (*Factorization[E], error) {
	fa := &Factorization[E]{f: f, mul: mul, a: a, rnd: rnd, n: a.Rows, mode: mode}
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBatchPrecondition)
	defer sp.End()
	if mode == PrecondImplicit {
		fa.op, fa.h = preconditionBox(f, a, rnd)
	} else {
		fa.atilde = precondition(f, mul, a, rnd)
		fa.op, fa.h = denseBox(fa.atilde), structured.NewHankel(rnd.H)
	}
	sp.End()
	var err error
	if fa.atilde != nil {
		fa.cp, err = charPolyCtx(ctx, f, mul, fa.atilde, rnd, obs.PhaseBatchKrylov, obs.PhaseBatchMinPoly)
	} else {
		fa.cp, err = charPolyBoxCtx(ctx, f, fa.op, rnd, obs.PhaseBatchKrylov, obs.PhaseBatchMinPoly)
	}
	if err != nil {
		return nil, err
	}
	if fa.scale, err = f.Div(f.Neg(f.One()), fa.cp[0]); err != nil {
		return nil, inPhase(obs.PhaseBatchMinPoly, err)
	}
	return fa, nil
}

// backsolve computes X = A⁻¹·B for the columns of bm through the cached
// front end: the Cayley–Hamilton sum −(1/c₀)·Σⱼ c_{j+1}·Ãʲ·B, then the
// preconditioner undo X = H·(D·X̃) column by column. The sum takes
//
//   - on the kernel-less fields with a formed Ã, one block doubling pass and
//     a fused combination (the paper's route);
//   - with a formed Ã and k > 1 columns, n−1 products Ã·(n×k block) through
//     the multiplier;
//   - otherwise n−1 applies of Ã per column.
//
// ctx is polled every few applies or products; a cancellation returns its
// error. The result is unverified — callers wrap it in their own
// batch/verify check.
func (fa *Factorization[E]) backsolve(ctx context.Context, bm *matrix.Dense[E]) (*matrix.Dense[E], error) {
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBatchBacksolve)
	defer sp.End()
	f, n, k := fa.f, fa.n, bm.Cols
	coef := fa.cp[1 : n+1]
	_, fused := ff.KernelsOf(f)
	var xt *matrix.Dense[E]
	switch {
	case fa.atilde != nil && !fused:
		wb := matrix.KrylovBlockDoubling(f, fa.mul, fa.atilde, bm, n)
		xt = matrix.CombineKrylovBlocks(f, wb, k, coef)
	case fa.atilde != nil && k > 1:
		var err error
		if xt, err = matrix.PolyApplyBlock(ctx, f, fa.mul, fa.atilde, bm, coef); err != nil {
			return nil, inPhase(obs.PhaseBatchBacksolve, err)
		}
	default:
		xt = matrix.NewDense(f, n, k)
		for j := 0; j < k; j++ {
			col, err := matrix.PolyApply(ctx, f, fa.op, coef, bm.Col(j))
			if err != nil {
				return nil, inPhase(obs.PhaseBatchBacksolve, err)
			}
			xt.SetCol(j, col)
		}
	}
	// Fold the −1/c₀ scale into the diagonal D: row i of D·(scale·X̃) is
	// (scale·dᵢ)·X̃ᵢ.
	sd := make([]E, n)
	for i := range sd {
		sd[i] = f.Mul(fa.scale, fa.rnd.D[i])
	}
	out := matrix.NewDense(f, n, k)
	for j := 0; j < k; j++ {
		out.SetCol(j, undoPrecondition(f, fa.h, sd, xt.Col(j)))
	}
	return out, nil
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
// context's trace scope (per-request attribution in kpd), and the backsolve
// polls ctx every few applies, returning its error once it is done.
func (fa *Factorization[E]) SolveCtx(ctx context.Context, b []E) ([]E, error) {
	if len(b) != fa.n {
		return nil, fmt.Errorf("kp: Factorization.Solve needs a length-%d right-hand side (got %d): %w", fa.n, len(b), ErrBadShape)
	}
	x, err := fa.backsolve(ctx, &matrix.Dense[E]{Rows: fa.n, Cols: 1, Data: b})
	if err != nil {
		return nil, err
	}
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBatchVerify)
	ok := fa.a.MulVecEquals(fa.f, x.Data, b)
	sp.End()
	if !ok {
		return nil, fmt.Errorf("kp: Factorization.Solve verification failed (stale or unlucky factorization): %w", ErrRetriesExhausted)
	}
	return x.Data, nil
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
	x, err := fa.backsolve(ctx, bm)
	if err != nil {
		return nil, err
	}
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
// returns a certified reusable handle. On concrete fields the front end is
// one product and 2n−1 applies of Ã, and each later solve n−1 applies.
// Certification solves one random probe system and checks A·x = probe, so
// a surviving Factorization has a correct characteristic polynomial except
// with the usual ≤ 3n²/|S| probability; every subsequent Solve
// additionally verifies its own result, keeping the Las Vegas guarantee.
// Requires characteristic 0 or > n.
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
		x, err := fa.backsolve(p.Ctx, &matrix.Dense[E]{Rows: n, Cols: 1, Data: probe})
		if err != nil {
			rec.finish(err)
			return nil, err
		}
		sp := obs.StartPhaseCtx(p.Ctx, obs.PhaseBatchVerify)
		ok := a.MulVecEquals(f, x.Data, probe)
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
		x, err := fa.backsolve(p.Ctx, sub)
		if err != nil {
			rec.finish(err)
			return nil, err
		}
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
