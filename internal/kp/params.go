package kp

import (
	"context"
	"fmt"
	"log/slog"

	"repro/internal/errs"
	"repro/internal/ff"
)

// Error taxonomy. The sentinels are the shared errs values, so errors.Is
// matches them against the same failures surfacing from the substrate
// packages (matrix.ErrSingular, wiedemann.ErrRetriesExhausted, the
// structured solvers) without the caller knowing which engine ran.
var (
	// ErrSingular reports a singular matrix on a path that requires a
	// non-singular one.
	ErrSingular = errs.ErrSingular
	// ErrRetriesExhausted is returned by the Las Vegas drivers when all
	// random attempts failed; on non-singular inputs each attempt fails
	// with probability ≤ 3n²/|S|, so exhaustion virtually certifies
	// singularity.
	ErrRetriesExhausted = errs.ErrRetriesExhausted
	// ErrInconsistent is returned by SolveSingular when the system has no
	// solution.
	ErrInconsistent = errs.ErrInconsistent
	// ErrBadShape reports arguments whose dimensions do not form a valid
	// problem (non-square matrix, mismatched right-hand side, …).
	ErrBadShape = errs.ErrBadShape
	// ErrCharacteristicTooSmall reports a field violating Theorem 4's
	// characteristic-0-or-> n hypothesis.
	ErrCharacteristicTooSmall = errs.ErrCharacteristicTooSmall
)

// PrecondMode selects how the Theorem 4 preconditioner Ã = A·H·D is
// realized.
type PrecondMode string

const (
	// PrecondDense materializes Ã with one dense matrix product (the
	// original route; O(n^ω) formation, then 3n−2 dense applies of Ã on
	// concrete fields, the paper's Krylov doubling on the others). This is
	// the default — it is what the traced circuits and the processor-count
	// claims of the paper measure.
	PrecondDense PrecondMode = "dense"
	// PrecondImplicit never forms Ã: A, H and D stay black boxes composed
	// per apply (H through the cached-NTT structured product, D in O(n)),
	// and the Krylov sequence, minpoly system and Cayley–Hamilton backsolve
	// run on black-box applies — O(n² log n) total where the dense route
	// pays O(n^ω log n). Answers are identical to PrecondDense: the exact
	// field arithmetic and the randomness stream are the same.
	PrecondImplicit PrecondMode = "implicit"
)

// ParsePrecondMode validates a mode string ("" selects PrecondDense).
func ParsePrecondMode(s string) (PrecondMode, error) {
	switch PrecondMode(s) {
	case "", PrecondDense:
		return PrecondDense, nil
	case PrecondImplicit:
		return PrecondImplicit, nil
	}
	return "", fmt.Errorf("kp: unknown precond mode %q (want %q or %q)", s, PrecondDense, PrecondImplicit)
}

// DefaultSeed seeds the deterministic random source when a caller supplies
// none, so runs are replayable by default.
const DefaultSeed uint64 = 0x9e3779b97f4a7c15

// DefaultRetries is the Las Vegas retry budget.
const DefaultRetries = 5

// Params bundles the knobs every randomized driver shares. The zero value
// is ready to use: a nil Src draws a fresh deterministic source seeded
// with DefaultSeed, Subset 0 selects the field cardinality capped at 2⁶²
// (failure probability ≈ 0 for word-sized fields), Retries 0 means
// DefaultRetries, and a nil Ctx never cancels.
type Params struct {
	// Src is the random stream the Las Vegas attempts draw from; nil
	// selects a fresh deterministic source seeded with DefaultSeed.
	Src *ff.Source
	// Subset is |S|, the size of the sampling subset of the paper's
	// probability bound 3n²/|S|; 0 selects the field cardinality capped
	// at 2⁶².
	Subset uint64
	// Retries bounds the Las Vegas attempts (0 = DefaultRetries).
	Retries int
	// Ctx, when non-nil, cancels cooperatively: the drivers check it
	// between the Krylov/minpoly/backsolve phases of an attempt and
	// between Las Vegas attempts, returning ctx.Err() once it is done.
	Ctx context.Context
	// Logger, when non-nil, receives one structured slog record per Las
	// Vegas attempt (solver, attempt number, n, |S|, outcome, failure
	// phase, wall time) and one per finished driver call. Nil disables
	// logging; the always-on attempt statistics (obs.BoundsReport) and
	// flight recorder are unaffected by this knob.
	Logger *slog.Logger
	// Precond selects the preconditioner realization for Solve, Factor and
	// SolveBatch ("" = PrecondDense). See PrecondMode.
	Precond PrecondMode
}

// DefaultSubset returns the subset size Params.Subset 0 resolves to for
// the field: the full cardinality, capped at 2⁶² for infinite or
// beyond-word-size fields.
func DefaultSubset[E any](f ff.Field[E]) uint64 {
	if c, ok := ff.WordOrder(f); ok {
		return c
	}
	return 1 << 62
}

// fill resolves the zero values of p against the field's defaults.
func fill[E any](f ff.Field[E], p Params) Params {
	if p.Src == nil {
		p.Src = ff.NewSource(DefaultSeed)
	}
	if p.Subset == 0 {
		p.Subset = DefaultSubset(f)
	}
	if p.Retries <= 0 {
		p.Retries = DefaultRetries
	}
	if p.Precond == "" {
		p.Precond = PrecondDense
	}
	return p
}

// ctxErr reports the context's error if it is done (nil-safe, non-blocking).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
