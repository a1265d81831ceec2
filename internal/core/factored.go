package core

import (
	"context"

	"repro/internal/kp"
	"repro/internal/matrix"
)

// Factored is a reusable handle on the shared Theorem 4 front end for one
// non-singular matrix, produced by Solver.Factor. The preconditioner, the
// randomness and the characteristic polynomial are cached, so every call
// below replays only the backsolve (and its verification) — observable as
// batch/backsolve spans with no further batch/krylov span. Safe for
// concurrent use: the kpd factorization cache shares one handle across
// requests (see kp.Factorization).
type Factored[E any] struct {
	fa *kp.Factorization[E]
}

// Dim returns the dimension of the factored matrix.
func (h *Factored[E]) Dim() int { return h.fa.Dim() }

// Solve returns the verified solution of A·x = b without re-running the
// Krylov phase.
func (h *Factored[E]) Solve(b []E) ([]E, error) { return h.fa.Solve(b) }

// SolveCtx is Solve carrying a request context: the backsolve/verify spans
// record under the context's trace scope, so a kpd cache hit is
// attributable to the request that replayed it.
func (h *Factored[E]) SolveCtx(ctx context.Context, b []E) ([]E, error) {
	return h.fa.SolveCtx(ctx, b)
}

// InverseApply returns the verified X = A⁻¹·B for all columns of B in one
// fused backsolve.
func (h *Factored[E]) InverseApply(b *matrix.Dense[E]) (*matrix.Dense[E], error) {
	return h.fa.InverseApply(b)
}

// InverseApplyCtx is InverseApply carrying a request context for span
// attribution (see SolveCtx).
func (h *Factored[E]) InverseApplyCtx(ctx context.Context, b *matrix.Dense[E]) (*matrix.Dense[E], error) {
	return h.fa.InverseApplyCtx(ctx, b)
}

// Det returns det(A) from the cached characteristic polynomial. Unlike
// Solver.Det it does not vote across independent randomizations: the
// answer is Monte Carlo with error probability ≤ 3n²/|S|.
func (h *Factored[E]) Det() (E, error) { return h.fa.Det() }
