package kp

import (
	"context"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/structured"
)

// Implicit preconditioning (PrecondImplicit): the Theorem 4 pipeline with
// Ã = A·H·D left as a composition of black boxes instead of a materialized
// dense matrix. One Ã-apply is one dense matrix-vector product (O(n²)),
// one cached-NTT Hankel apply (O(n log n)) and one diagonal scale (O(n)),
// so the 2n-term Krylov sequence costs O(n³ → n²·(n applies)) — in total
// O(n² log n) field work against the dense route's O(n^ω log n) formation
// and doubling. The answers are identical to the dense route: both consume
// the same randomness stream, run the same exact field arithmetic on the
// same operator, and fail (division by zero / verification) on exactly the
// same draws, so the Las Vegas retry path is shared bit for bit.

// timedBox attributes per-apply wall time and call counts to the innermost
// open obs span, surfacing as the apply_ns/apply_calls span fields.
type timedBox[E any] struct{ b matrix.BlackBox[E] }

func (t timedBox[E]) Dims() (int, int) { return t.b.Dims() }

func (t timedBox[E]) Apply(f ff.Field[E], x []E) []E {
	start := time.Now()
	out := t.b.Apply(f, x)
	obs.AddApplyTime(time.Since(start), 1)
	return out
}

// preconditionBox assembles the implicit Ã = A·H·D operator. No field
// operation happens here — the precondition phase in implicit mode is pure
// wiring, which is the measurable "zero dense Mul calls" claim.
func preconditionBox[E any](f ff.Field[E], a *matrix.Dense[E], rnd Randomness[E]) (matrix.BlackBox[E], structured.Hankel[E]) {
	h := structured.NewHankel(rnd.H)
	box := matrix.ComposedBox[E]{Boxes: []matrix.BlackBox[E]{
		matrix.DenseBox[E]{M: a},
		h,
		matrix.DiagBox[E]{D: rnd.D},
	}}
	return timedBox[E]{b: box}, h
}

// charPolyImplicitCtx mirrors charPolyCtx on a black-box Ã: the sequence
// a_i = u·Ãⁱ·v by 2n−1 iterative applies, then its Lemma 1 minimum
// polynomial by charPolyFromSequence — Berlekamp–Massey over fused fields,
// otherwise the Toeplitz system through the iterative Cayley–Hamilton
// solver (structured.Solve), whose inner products are the cached-NTT
// Toeplitz applies. Neither route builds a dense Krylov-doubling ladder.
func charPolyImplicitCtx[E any](ctx context.Context, f ff.Field[E], atilde matrix.BlackBox[E], rnd Randomness[E], krylovPhase, minpolyPhase string) ([]E, error) {
	n, _ := atilde.Dims()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sp := obs.StartPhaseCtx(ctx, krylovPhase)
	defer sp.End()
	ks := matrix.KrylovIterative(f, atilde, rnd.V, 2*n)
	a := matrix.ProjectSequence(f, rnd.U, ks)
	sp.End()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sp = obs.StartPhaseCtx(ctx, minpolyPhase)
	defer sp.End()
	cp, err := charPolyFromSequence(f, a, n, func(tm structured.Toeplitz[E], rhs []E) ([]E, error) {
		return structured.Solve(f, tm, rhs)
	})
	sp.End()
	if err != nil {
		return nil, inPhase(minpolyPhase, err)
	}
	return cp, nil
}

// chBacksolveBox is the iterative Cayley–Hamilton backsolve on a black-box
// operator: x̃ = −(1/c₀)·Σ_{j=0}^{n−1} c_{j+1}·Ãʲ·b with n−1 applies. The
// caller supplies scale = −1/c₀.
func chBacksolveBox[E any](f ff.Field[E], atilde matrix.BlackBox[E], cp []E, scale E, b []E) []E {
	n := len(b)
	acc := ff.VecZero(f, n)
	v := ff.VecCopy(b)
	for j := 0; j < n; j++ {
		ff.VecMulAddInto(f, acc, cp[j+1], v)
		if j < n-1 {
			v = atilde.Apply(f, v)
		}
	}
	ff.VecScaleInto(f, acc, scale, acc)
	return acc
}

// undoPrecondition maps the preconditioned solution x̃ back: x = H·(D·x̃).
func undoPrecondition[E any](f ff.Field[E], h structured.Hankel[E], d []E, xt []E) []E {
	dx := make([]E, len(xt))
	for i := range dx {
		dx[i] = f.Mul(d[i], xt[i])
	}
	return h.MulVec(f, dx)
}

// solveOnceImplicitCtx is one branch-free Theorem 4 attempt in implicit
// mode: same phases, same randomness consumption and same failure pattern
// as solveOnceCtx, with every dense matrix-matrix product replaced by
// black-box applies.
func solveOnceImplicitCtx[E any](ctx context.Context, f ff.Field[E], a *matrix.Dense[E], b []E, rnd Randomness[E]) ([]E, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("kp: SolveOnce needs a square system")
	}
	sp := obs.StartPhaseCtx(ctx, obs.PhasePrecondition)
	defer sp.End()
	atilde, h := preconditionBox(f, a, rnd)
	sp.End()
	cp, err := charPolyImplicitCtx(ctx, f, atilde, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sp = obs.StartPhaseCtx(ctx, obs.PhaseBacksolve)
	defer sp.End()
	scale, err := f.Div(f.Neg(f.One()), cp[0])
	if err != nil {
		return nil, inPhase(obs.PhaseBacksolve, err)
	}
	xt := chBacksolveBox(f, atilde, cp, scale, b)
	return undoPrecondition(f, h, rnd.D, xt), nil
}
