// Package wiedemann implements Wiedemann's (1986) randomized black-box
// linear algebra — the first pillar of the Kaltofen–Pan construction (§2):
// project the matrix into the scalar sequence {u·Aⁱ·b}, read its minimum
// polynomial, and recover determinants and solutions from it. The
// randomized preconditioning Ã = A·H·D (Theorem 2 + equation (1)) makes
// the minimum polynomial equal the characteristic polynomial with
// probability ≥ 1 − 3n²/|S| (equation (2)).
package wiedemann

import (
	"fmt"
	"time"

	"repro/internal/errs"
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/seq"
	"repro/internal/structured"
)

// solveAttemptsHist is the shared attempts-per-driver-call distribution
// (one "solve.attempts" family across the kp and wiedemann routes).
var solveAttemptsHist = obs.NewHistogram("solve.attempts")

// recordAttempt reports one black-box Las Vegas attempt to the telemetry
// pipeline (the statistics behind obs.BoundsReport).
func recordAttempt(solver string, n int, subset uint64, outcome, phase string, wall time.Duration) {
	obs.RecordAttempt(obs.Attempt{
		Solver: solver, N: n, Subset: subset,
		Outcome: outcome, Phase: phase, Wall: wall,
	})
}

// recordDone closes one driver call: the retry-count sample and the
// flight-recorder entry.
func recordDone(solver string, n int, subset uint64, attempts int, start time.Time, err error) {
	solveAttemptsHist.Observe(int64(attempts))
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	obs.RecordFlight(obs.FlightEntry{
		Op: solver, N: n, Subset: subset,
		Attempts: attempts, Outcome: outcome, Wall: time.Since(start),
	})
}

// ErrRetriesExhausted is returned by the Las Vegas drivers when every
// randomized attempt failed — overwhelmingly because the input is singular,
// since per-trial failure on non-singular input is ≤ 3n²/|S|. It is the
// shared errs.ErrRetriesExhausted sentinel, so errors.Is matches it against
// kp.ErrRetriesExhausted.
var ErrRetriesExhausted = errs.ErrRetriesExhausted

// DefaultRetries is the number of independent random attempts the Las
// Vegas drivers make before giving up.
const DefaultRetries = 5

// MinPolySeq returns the minimum polynomial of the projected sequence
// {u·Aⁱ·b}, i = 0..2n−1 — the polynomial f_u^{A,b} of the paper. With u, b
// uniform over a subset of size s it equals the minimum polynomial f^A of A
// with probability ≥ 1 − 2·deg(f^A)/s (Lemma 2).
func MinPolySeq[E any](f ff.Field[E], a matrix.BlackBox[E], u, b []E) ([]E, error) {
	n, _ := a.Dims()
	sp := obs.StartPhase(obs.PhaseKrylov)
	s, _ := matrix.KrylovSequence(nil, f, a, u, b, 2*n) // a nil ctx never cancels, so no error
	sp.End()
	sp = obs.StartPhase(obs.PhaseMinPoly)
	defer sp.End()
	return seq.MinPoly(f, s)
}

// MinPoly returns (with high probability) the minimum polynomial f^A of the
// black box A, using fresh random projections u, b from the canonical
// subset of size subset.
func MinPoly[E any](f ff.Field[E], a matrix.BlackBox[E], src *ff.Source, subset uint64) ([]E, error) {
	n, _ := a.Dims()
	u := ff.SampleVec(f, src, n, subset)
	b := ff.SampleVec(f, src, n, subset)
	return MinPolySeq(f, a, u, b)
}

// MinPolyCertified returns the minimum polynomial of a dense matrix as a
// *certified* (Las Vegas) result: the projected candidate f_u^{A,b} always
// divides f^A, and a divisor of f^A that annihilates A must equal f^A — so
// checking f(A)·v = 0 on a fresh random vector (and retrying the
// projection on failure) upgrades Lemma 2's high-probability statement to
// a guarantee. Cost per attempt: 2n black-box products plus deg(f) more
// for the certificate.
func MinPolyCertified[E any](f ff.Field[E], a matrix.BlackBox[E], src *ff.Source, subset uint64, retries int) ([]E, error) {
	n, _ := a.Dims()
	if retries <= 0 {
		retries = DefaultRetries
	}
	for attempt := 0; attempt < retries; attempt++ {
		mp, err := MinPoly(f, a, src, subset)
		if err != nil {
			return nil, err
		}
		// Certificate: f(A)·v = 0 for several random v. One v catches a
		// proper divisor with probability ≥ 1 − deg gap/|S|; use two.
		ok := true
		for check := 0; check < 2 && ok; check++ {
			v := ff.SampleVec(f, src, n, subset)
			if r, _ := matrix.PolyApply(nil, f, a, mp, v); !ff.VecIsZero(f, r) { // nil ctx: no error
				ok = false
			}
		}
		if ok {
			return mp, nil
		}
	}
	return nil, ErrRetriesExhausted
}

// IsSingular is the paper's Las Vegas singularity test: if λ divides
// f_u^{A,b} then det(A) = 0 is certain (0 is an eigenvalue); otherwise A is
// declared non-singular, wrongly so with probability ≤ ε for subset size
// ≥ 2n/ε on a singular input.
func IsSingular[E any](f ff.Field[E], a matrix.BlackBox[E], src *ff.Source, subset uint64) (bool, error) {
	mp, err := MinPoly(f, a, src, subset)
	if err != nil {
		return false, err
	}
	return f.IsZero(poly.Coef(f, mp, 0)), nil
}

// diagBox applies a diagonal matrix as a black box.
type diagBox[E any] struct{ d []E }

func (b diagBox[E]) Dims() (int, int) { return len(b.d), len(b.d) }
func (b diagBox[E]) Apply(f ff.Field[E], x []E) []E {
	out := make([]E, len(x))
	for i := range x {
		out[i] = f.Mul(b.d[i], x[i])
	}
	return out
}

// Preconditioned bundles Ã = A·H·D as a black box together with the random
// data needed to undo the preconditioning.
type Preconditioned[E any] struct {
	Box matrix.BlackBox[E]
	H   structured.Hankel[E]
	D   []E
	N   int
}

// Precondition draws the random Hankel and diagonal factors of §2
// (Theorem 2 + equation (1)) and returns Ã as a composed black box: one
// Ã·x costs one A-product plus O(M(n)) for the structured factors.
func Precondition[E any](f ff.Field[E], a matrix.BlackBox[E], src *ff.Source, subset uint64) *Preconditioned[E] {
	sp := obs.StartPhase(obs.PhasePrecondition)
	defer sp.End()
	n, _ := a.Dims()
	h := structured.Hankel[E]{N: n, D: ff.SampleVec(f, src, 2*n-1, subset)}
	d := make([]E, n)
	for i := range d {
		d[i] = ff.SampleNonZero(f, src, subset)
	}
	return &Preconditioned[E]{
		Box: matrix.ComposedBox[E]{Boxes: []matrix.BlackBox[E]{a, h, diagBox[E]{d}}},
		H:   h,
		D:   d,
		N:   n,
	}
}

// DetD returns det(D) = ∏ dᵢ.
func (p *Preconditioned[E]) DetD(f ff.Field[E]) E {
	prod := f.One()
	for _, v := range p.D {
		prod = f.Mul(prod, v)
	}
	return prod
}

// Det returns det(A) for a non-singular black box by the paper's §2
// algorithm: compute f̃ = f_u^{Ã,b} for Ã = AHD; if deg f̃ = n and
// f̃(0) ≠ 0 then det(λI−Ã) = f̃ and
//
//	det(A) = (−1)ⁿ·f̃(0) / (det(H)·det(D)),
//
// with det(H) from the Toeplitz characteristic-polynomial circuit
// (Theorem 3 on the mirror of H). Unlucky randomness is retried; singular
// inputs exhaust the retries. Requires characteristic 0 or > n for the
// det(H) step.
func Det[E any](f ff.Field[E], a matrix.BlackBox[E], src *ff.Source, subset uint64, retries int) (E, error) {
	var zero E
	n, _ := a.Dims()
	if retries <= 0 {
		retries = DefaultRetries
	}
	started := time.Now()
	for attempt := 0; attempt < retries; attempt++ {
		astart := time.Now()
		p := Precondition(f, a, src, subset)
		mp, err := MinPoly(f, p.Box, src, subset)
		if err != nil {
			recordAttempt("wiedemann.det", n, subset, obs.OutcomeError, obs.PhaseMinPoly, time.Since(astart))
			recordDone("wiedemann.det", n, subset, attempt+1, started, err)
			return zero, err
		}
		if poly.Deg(f, mp) < n || f.IsZero(poly.Coef(f, mp, 0)) {
			// Unlucky randomness, or singular input: the projected minimum
			// polynomial misses degree n or has zero constant term.
			recordAttempt("wiedemann.det", n, subset, obs.OutcomeDegenerate, obs.PhaseMinPoly, time.Since(astart))
			continue
		}
		// det(Ã) = (−1)ⁿ·charpoly(0) = (−1)ⁿ·mp(0).
		detTilde := poly.Coef(f, mp, 0)
		if n%2 == 1 {
			detTilde = f.Neg(detTilde)
		}
		detH, err := structured.DetHankel(f, p.H)
		if err != nil {
			recordAttempt("wiedemann.det", n, subset, obs.OutcomeError, obs.PhaseBacksolve, time.Since(astart))
			recordDone("wiedemann.det", n, subset, attempt+1, started, err)
			return zero, err
		}
		den := f.Mul(detH, p.DetD(f))
		// f̃(0) ≠ 0 implies Ã non-singular, hence det(H), det(D) ≠ 0 and
		// "the division is possible".
		d, err := f.Div(detTilde, den)
		if err != nil {
			err = fmt.Errorf("wiedemann: inconsistent preconditioner determinant: %w", err)
			recordAttempt("wiedemann.det", n, subset, obs.OutcomeDivZero, obs.PhaseBacksolve, time.Since(astart))
			recordDone("wiedemann.det", n, subset, attempt+1, started, err)
			return zero, err
		}
		recordAttempt("wiedemann.det", n, subset, obs.OutcomeSuccess, "", time.Since(astart))
		recordDone("wiedemann.det", n, subset, attempt+1, started, nil)
		return d, nil
	}
	recordDone("wiedemann.det", n, subset, retries, started, ErrRetriesExhausted)
	return zero, ErrRetriesExhausted
}

// Solve solves A·x = b for a non-singular black box by Wiedemann's method:
// from the minimum polynomial m(λ) = λᵈ + c_{d−1}λ^{d−1} + … + c₀ of the
// Krylov sequence {Aⁱb} (c₀ ≠ 0 for non-singular A),
//
//	x = −(1/c₀)·(A^{d−1}b + c_{d−1}A^{d−2}b + … + c₁b).
//
// The result is verified against A·x = b, so a returned solution is always
// correct (Las Vegas); unlucky projections are retried.
func Solve[E any](f ff.Field[E], a matrix.BlackBox[E], b []E, src *ff.Source, subset uint64, retries int) ([]E, error) {
	n, _ := a.Dims()
	if len(b) != n {
		panic("wiedemann: Solve dimension mismatch")
	}
	if retries <= 0 {
		retries = DefaultRetries
	}
	if ff.VecIsZero(f, b) {
		return ff.VecZero(f, n), nil
	}
	started := time.Now()
	for attempt := 0; attempt < retries; attempt++ {
		astart := time.Now()
		x, outcome, phase, err := solveAttempt(f, a, b, src, subset, n)
		recordAttempt("wiedemann.solve", n, subset, outcome, phase, time.Since(astart))
		if err != nil {
			recordDone("wiedemann.solve", n, subset, attempt+1, started, err)
			return nil, err
		}
		if outcome == obs.OutcomeSuccess {
			recordDone("wiedemann.solve", n, subset, attempt+1, started, nil)
			return x, nil
		}
	}
	recordDone("wiedemann.solve", n, subset, retries, started, ErrRetriesExhausted)
	return nil, ErrRetriesExhausted
}

// solveAttempt is one randomized Wiedemann attempt: fresh projection,
// minimum polynomial, backsolve, verification. It returns the telemetry
// classification alongside the candidate; a non-nil error aborts the Las
// Vegas loop (retryable bad luck comes back as a non-success outcome with
// a nil error). Spans close eagerly and via defer, so early returns leave
// no span open.
func solveAttempt[E any](f ff.Field[E], a matrix.BlackBox[E], b []E, src *ff.Source, subset uint64, n int) (x []E, outcome, phase string, err error) {
	u := ff.SampleVec(f, src, n, subset)
	sp := obs.StartPhase(obs.PhaseKrylov)
	defer sp.End()
	vs := matrix.KrylovIterative(f, a, b, 2*n)
	s := matrix.ProjectSequence(f, u, vs)
	sp.End()
	sp = obs.StartPhase(obs.PhaseMinPoly)
	defer sp.End()
	mp, err := seq.MinPoly(f, s)
	sp.End()
	if err != nil {
		return nil, obs.OutcomeError, obs.PhaseMinPoly, err
	}
	d := poly.Deg(f, mp)
	c0 := poly.Coef(f, mp, 0)
	if d < 1 || f.IsZero(c0) {
		return nil, obs.OutcomeDegenerate, obs.PhaseMinPoly, nil
	}
	// x = −(1/c₀)·Σ_{j=1}^{d} mp_j·A^{j−1}b, summed from the Krylov vectors
	// the sequence already built, so the backsolve makes no applies.
	sp = obs.StartPhase(obs.PhaseBacksolve)
	defer sp.End()
	acc := ff.VecZero(f, n)
	for j := 1; j <= d; j++ {
		ff.VecMulAddInto(f, acc, poly.Coef(f, mp, j), vs[j-1])
	}
	scale, err := f.Div(f.Neg(f.One()), c0)
	if err != nil {
		return nil, obs.OutcomeDivZero, obs.PhaseBacksolve, nil
	}
	ff.VecScaleInto(f, acc, scale, acc)
	x = acc
	sp.End()
	if !ff.VecEqual(f, a.Apply(f, x), b) {
		return nil, obs.OutcomeVerifyFailed, "verify", nil
	}
	return x, obs.OutcomeSuccess, "", nil
}
