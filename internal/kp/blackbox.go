package kp

import (
	"context"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/structured"
)

// The black-box Theorem 4 engine. Once Ã = A·H·D is available as an
// operator — a dense matrix formed by one product (PrecondDense over fields
// with fused kernels) or the composition A∘H∘D never formed at all
// (PrecondImplicit) — an attempt is:
//
//   - Krylov: the 2n terms a_i = u·Ãⁱ·v by 2n−1 applies;
//   - minpoly: Lemma 1's polynomial of the sequence (charPolyFromSequence);
//   - backsolve: x̃ = −(1/c₀)·Σ_{j<n} c_{j+1}·Ãʲ·b by n−1 more applies, then
//     x = H·(D·x̃).
//
// That is 3n−2 applies of O(n²) each: O(n³) work at depth O(n), against the
// O(n^ω log n) work and O((log n)²) depth of the paper's doubling, which the
// circuit builder and the kernel-less fields keep (solve.go). Both routes
// compute the same exact values from the same randomness, so the answers,
// the failures and the retry walk are bit-identical.

// applyHook, when set, runs before every counted apply. Tests use it to
// cancel or panic in the middle of a phase.
var applyHook func()

// countedBox is an Ã operator that reports each apply to the innermost open
// obs span: its wall time and one call (the apply_ns/apply_calls span
// fields), and ops classical-equivalent field operations, the unit
// matrix.Instrumented counts dense products in, so the work of the
// matrix–vector route and of the product route add up in one FieldOps.
type countedBox[E any] struct {
	b   matrix.BlackBox[E]
	ops uint64
}

// newCountedBox wraps an n×n operator, charging each apply the n·(2n−1)
// operations of a classical matrix–vector product.
func newCountedBox[E any](b matrix.BlackBox[E]) countedBox[E] {
	n, _ := b.Dims()
	return countedBox[E]{b: b, ops: uint64(n) * uint64(max(2*n-1, 0))}
}

func (c countedBox[E]) Dims() (int, int) { return c.b.Dims() }

func (c countedBox[E]) Apply(f ff.Field[E], x []E) []E {
	if applyHook != nil {
		applyHook()
	}
	if obs.Active() == nil {
		return c.b.Apply(f, x)
	}
	start := time.Now()
	out := c.b.Apply(f, x)
	obs.AddApplyTime(time.Since(start), 1)
	obs.AddFieldOps(c.ops, 0)
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
	return newCountedBox[E](box), h
}

// charPolyBoxCtx is the front end on an Ã operator: the sequence
// a_i = u·Ãⁱ·v by 2n−1 applies, then its Lemma 1 minimum polynomial by
// charPolyFromSequence — Berlekamp–Massey over fused fields, otherwise the
// Toeplitz system through the iterative Cayley–Hamilton solver
// (structured.Solve), whose inner products are the cached-NTT Toeplitz
// applies. A cancellation inside the Krylov loop is tagged with its phase.
func charPolyBoxCtx[E any](ctx context.Context, f ff.Field[E], atilde matrix.BlackBox[E], rnd Randomness[E], krylovPhase, minpolyPhase string) ([]E, error) {
	n, _ := atilde.Dims()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sp := obs.StartPhaseCtx(ctx, krylovPhase)
	defer sp.End()
	a, err := matrix.KrylovSequence(ctx, f, atilde, rnd.U, rnd.V, 2*n)
	sp.End()
	if err != nil {
		return nil, inPhase(krylovPhase, err)
	}
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

// undoPrecondition maps the preconditioned solution x̃ back: x = H·(D·x̃).
func undoPrecondition[E any](f ff.Field[E], h structured.Hankel[E], d []E, xt []E) []E {
	dx := make([]E, len(xt))
	for i := range dx {
		dx[i] = f.Mul(d[i], xt[i])
	}
	return h.MulVec(f, dx)
}

// solveBoxCtx is one Theorem 4 attempt on an Ã operator, from the Krylov
// phase on: the shared tail of the dense route over fused fields and of the
// implicit route over every field. h is the Hankel factor H, or nil to
// build it from rnd for the undo.
func solveBoxCtx[E any](ctx context.Context, f ff.Field[E], atilde matrix.BlackBox[E], h *structured.Hankel[E], b []E, rnd Randomness[E]) ([]E, error) {
	n := len(b)
	cp, err := charPolyBoxCtx(ctx, f, atilde, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// Cayley–Hamilton: x̃ = −(1/c₀)·Σ_{j=0}^{n−1} c_{j+1}·Ãʲ·b.
	sp := obs.StartPhaseCtx(ctx, obs.PhaseBacksolve)
	defer sp.End()
	scale, err := f.Div(f.Neg(f.One()), cp[0])
	if err != nil {
		return nil, inPhase(obs.PhaseBacksolve, err)
	}
	xt, err := matrix.PolyApply(ctx, f, atilde, cp[1:n+1], b)
	if err != nil {
		return nil, inPhase(obs.PhaseBacksolve, err)
	}
	ff.VecScaleInto(f, xt, scale, xt)
	if h == nil {
		hh := structured.NewHankel(rnd.H)
		h = &hh
	}
	return undoPrecondition(f, *h, rnd.D, xt), nil
}

// solveOnceImplicitCtx is one branch-free Theorem 4 attempt in implicit
// mode: same phases, same randomness consumption and same failure pattern
// as solveOnceCtx, with Ã never formed.
func solveOnceImplicitCtx[E any](ctx context.Context, f ff.Field[E], a *matrix.Dense[E], b []E, rnd Randomness[E]) ([]E, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("kp: SolveOnce needs a square system")
	}
	sp := obs.StartPhaseCtx(ctx, obs.PhasePrecondition)
	defer sp.End()
	atilde, h := preconditionBox(f, a, rnd)
	sp.End()
	return solveBoxCtx(ctx, f, atilde, &h, b, rnd)
}
