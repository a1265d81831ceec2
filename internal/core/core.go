// Package core is the public façade of the Kaltofen–Pan reproduction: a
// Solver bundling the paper's randomized algorithms behind one configured
// entry point. Downstream users construct a Solver for their field and call
// Solve / Det / Inverse / Rank / Nullspace / CharPoly without touching the
// individual substrate packages.
//
// Quick start:
//
//	f := ff.MustFp64(ff.P62)
//	s, err := core.NewSolver[uint64](f, core.Options{Seed: 42})
//	x, err := s.Solve(a, b)       // a *matrix.Dense[uint64], b []uint64
//	xs, err := s.SolveBatch(a, B) // B *matrix.Dense[uint64]: k RHS at once
//
// All algorithms are Las Vegas: returned results are verified (or agreed
// across independent randomizations) and therefore correct; unlucky random
// choices cost retries, with per-attempt failure probability ≤ 3n²/|S|
// (the paper's equation (2)) for subset size |S|.
package core

import (
	"context"
	"fmt"
	"log/slog"

	"repro/internal/circuit"
	"repro/internal/errs"
	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/structured"
	"repro/internal/wiedemann"
)

// Options configures a Solver.
type Options struct {
	// Seed seeds the deterministic random source; 0 selects a fixed
	// default so runs are replayable.
	Seed uint64
	// SubsetSize is |S|, the size of the sampling subset. 0 selects the
	// field cardinality capped at 2⁶², giving failure probability ≈ 0 for
	// word-sized fields.
	SubsetSize uint64
	// Retries bounds the Las Vegas attempts (default kp.DefaultRetries).
	Retries int
	// Strassen selects Strassen's Ω(n^2.81) multiplication instead of the
	// classical cubic method as the matrix-multiplication black box.
	//
	// Deprecated: set Multiplier to "strassen". Strassen is folded into
	// the Multiplier resolution; setting both to conflicting values is a
	// NewSolver error.
	Strassen bool
	// Multiplier names the matrix-multiplication black box: one of
	// matrix.Names() — "classical" (default), "blocked", "parallel",
	// "strassen", "parallel-strassen". The parallel kernels run on the
	// matrix package's shared worker pool; circuit tracing automatically
	// uses the matching serial balanced form (matrix.CircuitSafeName).
	// Unknown names are a NewSolver error.
	Multiplier string
	// Observer, when non-nil, is installed as the process-global active
	// obs.Observer: the solve phases (precondition, krylov, minpoly,
	// backsolve) record spans into it, exportable as a Chrome trace_event
	// timeline. The observer is global because the substrate packages are
	// instrumented against obs.Active(); run one traced solve at a time
	// for per-run attribution. Nil leaves observability in whatever state
	// the process has (off by default, the nil-span fast path).
	Observer *obs.Observer
	// Instrument wraps the multiplication black box in matrix.Instrumented
	// so calls, classical-equivalent field operations, and wall/busy time
	// are counted; read them via Solver.MulStats. Combined with Observer,
	// each multiply's op count is folded into the phase span that issued
	// it.
	Instrument bool
	// Logger, when non-nil, receives structured slog records from the Las
	// Vegas drivers: one per randomized attempt (solver, attempt number, n,
	// |S|, outcome, failure phase, wall time) and one per finished driver
	// call. Logging is orthogonal to the always-on attempt statistics
	// (obs.BoundsReport) and the flight recorder, which need no
	// configuration.
	Logger *slog.Logger
	// PrecondMode selects how Solve/SolveBatch/Factor realize the Theorem 4
	// preconditioner Ã = A·H·D: "dense" (default, materialized with one
	// O(n^ω) product) or "implicit" (A, H, D composed as black boxes; the
	// Hankel factor applies through its cached NTT transform and the
	// precondition phase performs zero dense matrix products). Results are
	// identical either way; only the cost profile changes. Unknown names are
	// a NewSolver error.
	PrecondMode string
}

// Solver bundles a field, a random stream and the algorithm configuration.
type Solver[E any] struct {
	f       ff.Field[E]
	src     *ff.Source
	subset  uint64
	retries int
	mul     matrix.Multiplier[E]
	wmul    matrix.Multiplier[circuit.Wire]
	stats   *matrix.MulStats
	obs     *obs.Observer
	logger  *slog.Logger
	precond kp.PrecondMode
}

// NewSolver returns a Solver over the given field, or an error for an
// unknown Multiplier name or a Strassen/Multiplier conflict.
func NewSolver[E any](f ff.Field[E], opts Options) (*Solver[E], error) {
	seed := opts.Seed
	if seed == 0 {
		seed = kp.DefaultSeed
	}
	name := opts.Multiplier
	if opts.Strassen {
		switch name {
		case "":
			name = "strassen"
		case "strassen", "parallel-strassen":
			// Strassen flag is redundant but consistent.
		default:
			return nil, fmt.Errorf("core: Options.Strassen conflicts with Multiplier %q", name)
		}
	}
	mul, err := matrix.ByName[E](name)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	wmul, err := matrix.ByName[circuit.Wire](matrix.CircuitSafeName(name))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	subset := opts.SubsetSize
	if subset == 0 {
		subset = kp.DefaultSubset(f)
	}
	precond, err := kp.ParsePrecondMode(opts.PrecondMode)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Solver[E]{
		f:       f,
		src:     ff.NewSource(seed),
		subset:  subset,
		retries: opts.Retries,
		mul:     mul,
		wmul:    wmul,
		obs:     opts.Observer,
		logger:  opts.Logger,
		precond: precond,
	}
	if opts.Instrument {
		im := matrix.NewInstrumented(mul)
		s.mul = im
		s.stats = im.Stats
	}
	if opts.Observer != nil {
		obs.SetActive(opts.Observer)
	}
	return s, nil
}

// MustNewSolver is NewSolver panicking on configuration errors — the
// old constructor contract, for tests and static configurations.
func MustNewSolver[E any](f ff.Field[E], opts Options) *Solver[E] {
	s, err := NewSolver(f, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// params returns the solver's configuration as a kp.Params carrying the
// given context.
func (s *Solver[E]) params(ctx context.Context) kp.Params {
	return kp.Params{Src: s.src, Subset: s.subset, Retries: s.retries, Ctx: ctx, Logger: s.logger, Precond: s.precond}
}

// WithSource returns a copy of the solver drawing all randomness from src
// instead of the solver's own stream. A Solver's embedded source is a
// mutable ff.Source with no internal synchronization, so a Solver must not
// be shared by concurrent callers directly; a server handling concurrent
// requests keeps one root source under a lock, Splits one child per
// request, and runs the request on WithSource(child). The copy shares the
// field, multiplier and instrumentation with its parent — only the
// randomness differs.
func (s *Solver[E]) WithSource(src *ff.Source) *Solver[E] {
	c := *s
	c.src = src
	return &c
}

// MulStats returns the multiplication instrumentation block, or nil unless
// Options.Instrument was set.
func (s *Solver[E]) MulStats() *matrix.MulStats { return s.stats }

// Observer returns the Options.Observer this solver was built with (nil if
// none).
func (s *Solver[E]) Observer() *obs.Observer { return s.obs }

// Field returns the solver's field.
func (s *Solver[E]) Field() ff.Field[E] { return s.f }

// Solve solves the non-singular system A·x = b (Theorem 4). Requires
// characteristic 0 or > n.
func (s *Solver[E]) Solve(a *matrix.Dense[E], b []E) ([]E, error) {
	return s.SolveCtx(context.Background(), a, b)
}

// SolveCtx is Solve with cooperative cancellation: ctx is checked between
// the phases of an attempt and between Las Vegas attempts, and its error
// is returned once it is done.
func (s *Solver[E]) SolveCtx(ctx context.Context, a *matrix.Dense[E], b []E) ([]E, error) {
	if err := s.checkChar(a.Rows); err != nil {
		return nil, err
	}
	return kp.Solve(s.f, s.mul, a, b, s.params(ctx))
}

// SolveBatch solves A·X = B for every column of B through the batched
// engine: the preconditioning, Krylov sequence and characteristic
// polynomial are computed once per attempt and shared by all k = B.Cols
// right-hand sides, which then share one block backsolve. Results are
// verified per column and bit-identical to k independent Solve calls.
// Requires characteristic 0 or > n.
func (s *Solver[E]) SolveBatch(a, b *matrix.Dense[E]) (*matrix.Dense[E], error) {
	return s.SolveBatchCtx(context.Background(), a, b)
}

// SolveBatchCtx is SolveBatch with cooperative cancellation.
func (s *Solver[E]) SolveBatchCtx(ctx context.Context, a, b *matrix.Dense[E]) (*matrix.Dense[E], error) {
	if err := s.checkChar(a.Rows); err != nil {
		return nil, err
	}
	return kp.SolveBatch(s.f, s.mul, a, b, s.params(ctx))
}

// Factor runs the shared Theorem 4 front end once and returns a reusable
// Factored handle: subsequent Solve/InverseApply/Det calls on the handle
// skip the preconditioning, Krylov and minpoly phases entirely. Requires
// characteristic 0 or > n.
func (s *Solver[E]) Factor(a *matrix.Dense[E]) (*Factored[E], error) {
	return s.FactorCtx(context.Background(), a)
}

// FactorCtx is Factor with cooperative cancellation.
func (s *Solver[E]) FactorCtx(ctx context.Context, a *matrix.Dense[E]) (*Factored[E], error) {
	if err := s.checkChar(a.Rows); err != nil {
		return nil, err
	}
	fa, err := kp.Factor(s.f, s.mul, a, s.params(ctx))
	if err != nil {
		return nil, err
	}
	return &Factored[E]{fa: fa}, nil
}

// Det returns det(A) for non-singular A (§2 + §3). Requires characteristic
// 0 or > n. For a possibly-singular matrix, call IsSingular first or use
// the Gaussian baseline in package matrix.
func (s *Solver[E]) Det(a *matrix.Dense[E]) (E, error) {
	return s.DetCtx(context.Background(), a)
}

// DetCtx is Det carrying a context: a trace context on ctx tags the flight
// recorder entry and attempt logs with the owning request.
func (s *Solver[E]) DetCtx(ctx context.Context, a *matrix.Dense[E]) (E, error) {
	var zero E
	if err := s.checkChar(a.Rows); err != nil {
		return zero, err
	}
	return kp.Det(s.f, s.mul, a, s.params(ctx))
}

// Inverse returns A⁻¹ (Theorem 6: Baur–Strassen gradient of the
// determinant circuit). Requires characteristic 0 or > n.
func (s *Solver[E]) Inverse(a *matrix.Dense[E]) (*matrix.Dense[E], error) {
	return s.InverseCtx(context.Background(), a)
}

// InverseCtx is Inverse carrying a context (see DetCtx).
func (s *Solver[E]) InverseCtx(ctx context.Context, a *matrix.Dense[E]) (*matrix.Dense[E], error) {
	if err := s.checkChar(a.Rows); err != nil {
		return nil, err
	}
	return kp.Inverse(s.f, s.mul, a, s.params(ctx))
}

// TransposedSolve solves Aᵀ·x = b via the transposition principle (end of
// §4) without forming Aᵀ.
func (s *Solver[E]) TransposedSolve(a *matrix.Dense[E], b []E) ([]E, error) {
	return s.TransposedSolveCtx(context.Background(), a, b)
}

// TransposedSolveCtx is TransposedSolve carrying a context (see DetCtx).
func (s *Solver[E]) TransposedSolveCtx(ctx context.Context, a *matrix.Dense[E], b []E) ([]E, error) {
	if err := s.checkChar(a.Rows); err != nil {
		return nil, err
	}
	return kp.TransposedSolve(s.f, a, b, s.params(ctx))
}

// Rank returns rank(A) (§5, Monte Carlo with one-sided error shrinking
// geometrically in the retry count).
func (s *Solver[E]) Rank(a *matrix.Dense[E]) (int, error) {
	return s.RankCtx(context.Background(), a)
}

// RankCtx is Rank carrying a context (see DetCtx).
func (s *Solver[E]) RankCtx(ctx context.Context, a *matrix.Dense[E]) (int, error) {
	return kp.Rank(s.f, a, s.params(ctx))
}

// Nullspace returns a verified basis of the right null space of a square
// matrix as the columns of an n×(n−r) matrix (§5).
func (s *Solver[E]) Nullspace(a *matrix.Dense[E]) (*matrix.Dense[E], error) {
	return kp.Nullspace(s.f, a, s.params(nil))
}

// SolveSingular returns one verified solution of a consistent (possibly
// singular) square system, or kp.ErrInconsistent (§5).
func (s *Solver[E]) SolveSingular(a *matrix.Dense[E], b []E) ([]E, error) {
	return kp.SolveSingular(s.f, a, b, s.params(nil))
}

// LeastSquares returns a least-squares solution over a characteristic-zero
// field (§5).
func (s *Solver[E]) LeastSquares(a *matrix.Dense[E], b []E) ([]E, error) {
	return kp.LeastSquares(s.f, s.mul, a, b, s.params(nil))
}

// IsSingular runs Wiedemann's Las Vegas singularity test: a true answer is
// certain, a false answer errs with probability ≤ 2n/|S|.
func (s *Solver[E]) IsSingular(a *matrix.Dense[E]) (bool, error) {
	return wiedemann.IsSingular(s.f, matrix.DenseBox[E]{M: a}, s.src, s.subset)
}

// SolveBlackBox solves A·x = b for a matrix available only through
// matrix-vector products (Wiedemann's method, §2) — the right call for
// large sparse systems.
func (s *Solver[E]) SolveBlackBox(a matrix.BlackBox[E], b []E) ([]E, error) {
	return wiedemann.Solve(s.f, a, b, s.src, s.subset, s.retries)
}

// DetBlackBox returns the determinant of a non-singular black-box matrix.
func (s *Solver[E]) DetBlackBox(a matrix.BlackBox[E]) (E, error) {
	return wiedemann.Det(s.f, a, s.src, s.subset, s.retries)
}

// CharPolyToeplitz returns det(λI − T) for a Toeplitz matrix given by its
// 2n−1 entries (structured.CharPoly: Berlekamp–Massey on fused-kernel
// fields, Theorem 3 elsewhere). Requires characteristic 0 or > n; use
// CharPolyToeplitzAnyChar otherwise.
func (s *Solver[E]) CharPolyToeplitz(entries []E) ([]E, error) {
	t := structured.NewToeplitz(entries)
	if err := s.checkChar(t.N); err != nil {
		return nil, err
	}
	return structured.CharPoly(s.f, t)
}

// CharPolyToeplitzAnyChar returns det(λI − T) over any characteristic (§5,
// Chistov's method on the structured leading blocks; one factor n slower).
func (s *Solver[E]) CharPolyToeplitzAnyChar(entries []E) ([]E, error) {
	return structured.CharPolySmallChar(s.f, structured.NewToeplitz(entries))
}

// SolveToeplitz solves the non-singular Toeplitz system T·x = b from the
// matrix's 2n−1 entries (§3). Requires characteristic 0 or > n.
func (s *Solver[E]) SolveToeplitz(entries []E, b []E) ([]E, error) {
	t := structured.NewToeplitz(entries)
	if err := s.checkChar(t.N); err != nil {
		return nil, err
	}
	return structured.Solve(s.f, t, b)
}

// FactorToeplitz computes the characteristic polynomial once
// (structured.CharPoly), derives the first and last columns of T⁻¹ from it,
// and returns the reusable Gohberg–Semencul fast-path handle: each
// subsequent SolveVec costs four triangular-Toeplitz products. Requires
// characteristic 0 or > n; singular T is matrix.ErrSingular.
func (s *Solver[E]) FactorToeplitz(entries []E) (*structured.GSSolver[E], error) {
	t := structured.NewToeplitz(entries)
	if err := s.checkChar(t.N); err != nil {
		return nil, err
	}
	return structured.NewGSSolver(s.f, t)
}

// SolveToeplitzGS solves the non-singular Toeplitz system T·x = b through
// the Gohberg–Semencul backend (FactorToeplitz + one SolveVec) — the
// Theorem 3 alternative to the Cayley–Hamilton route of SolveToeplitz,
// cross-checked against Wiedemann in the differential suite.
func (s *Solver[E]) SolveToeplitzGS(entries []E, b []E) ([]E, error) {
	gs, err := s.FactorToeplitz(entries)
	if err != nil {
		return nil, err
	}
	return gs.SolveVec(s.f, b), nil
}

// GCD returns the monic gcd of two polynomials through Sylvester-matrix
// linear algebra (§5).
func (s *Solver[E]) GCD(a, b []E) ([]E, error) {
	return kp.GCDSylvester(s.f, a, b)
}

// GCDKnownDegree returns the monic gcd given its degree, with no zero
// tests — the branch-free §5 form (one structured linear solve).
func (s *Solver[E]) GCDKnownDegree(a, b []E, deg int) ([]E, error) {
	return kp.GCDKnownDegree(s.f, a, b, deg)
}

// Resultant computes Res(a, b) as the determinant of the structured
// Sylvester operator via Wiedemann's black-box method: every inner
// matrix-vector product is two polynomial multiplications (§5).
func (s *Solver[E]) Resultant(a, b []E) (E, error) {
	return kp.ResultantWiedemann(s.f, a, b, s.params(nil))
}

// TransposedVandermonde solves Vᵀ·x = b for the Vandermonde matrix of the
// given pairwise-distinct nodes — the paper's §4 closing special case,
// obtained by differentiating the fast-interpolation circuit.
func (s *Solver[E]) TransposedVandermonde(nodes, b []E) ([]E, error) {
	return kp.TransposedVandermondeSolve(s.f, nodes, b)
}

// MinPolyOfSequence returns the minimum polynomial of a linearly generated
// sequence by the §3 parallel route (Lemma 1 degree location + one
// structured Toeplitz solve) — the circuit-friendly replacement for
// Berlekamp–Massey. The sequence must supply 2·maxDeg terms.
func (s *Solver[E]) MinPolyOfSequence(a []E, maxDeg int) ([]E, error) {
	if err := s.checkChar(maxDeg); err != nil {
		return nil, err
	}
	return structured.MinPolyParallel(s.f, a, maxDeg)
}

// SolveSmallPrimeField solves a system over a word prime field F_p whose
// cardinality is below the 3n²/ε probability budget, by lifting into an
// algebraic extension F_{p^k} and projecting the (base-field) solution
// back — the paper's §2 remedy for small Galois fields. It is a standalone
// function because the lift changes the element type.
func SolveSmallPrimeField(base ff.Fp64, a *matrix.Dense[uint64], b []uint64, opts Options) ([]uint64, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return kp.SolveViaExtension(base, a, b, ff.NewSource(seed), 0.25, opts.Retries)
}

// SolveCircuit builds the Theorem 4 circuit for dimension n (size
// O(n^ω log n), depth O((log n)²)) for inspection, scheduling, or repeated
// evaluation.
func (s *Solver[E]) SolveCircuit(n int) (*circuit.Builder, error) {
	if err := s.checkChar(n); err != nil {
		return nil, err
	}
	return kp.TraceSolve(s.f, s.wmul, n)
}

// InverseCircuit builds the Theorem 6 inverse circuit for dimension n.
func (s *Solver[E]) InverseCircuit(n int) (*circuit.Builder, error) {
	if err := s.checkChar(n); err != nil {
		return nil, err
	}
	return kp.TraceInverse(s.f, s.wmul, n)
}

// DrawRandomness exposes the Theorem 4 randomness for circuit evaluation.
func (s *Solver[E]) DrawRandomness(n int) kp.Randomness[E] {
	return kp.DrawRandomness(s.f, s.src, n, s.subset)
}

func (s *Solver[E]) checkChar(n int) error {
	if !ff.CharacteristicExceeds(s.f, n) {
		return fmt.Errorf("core: field characteristic %v ≤ n = %d: %w",
			s.f.Characteristic(), n, errs.ErrCharacteristicTooSmall)
	}
	return nil
}
