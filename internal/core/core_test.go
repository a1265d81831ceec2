package core

import (
	"errors"
	"testing"

	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/poly"
)

var fp = ff.MustFp64(ff.P31)

func newSolver(t *testing.T) *Solver[uint64] {
	t.Helper()
	s, err := NewSolver[uint64](fp, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolverEndToEnd(t *testing.T) {
	s := newSolver(t)
	src := ff.NewSource(201)
	n := 7
	var a *matrix.Dense[uint64]
	for {
		a = matrix.Random[uint64](fp, src, n, n, ff.P31)
		if d, _ := matrix.Det[uint64](fp, a); !fp.IsZero(d) {
			break
		}
	}
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)

	x, err := s.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ff.VecEqual[uint64](fp, a.MulVec(fp, x), b) {
		t.Fatal("Solve wrong")
	}

	d, err := s.Det(a)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.Det[uint64](fp, a)
	if d != want {
		t.Fatal("Det wrong")
	}

	inv, err := s.Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Mul[uint64](fp, a, inv).Equal(fp, matrix.Identity[uint64](fp, n)) {
		t.Fatal("Inverse wrong")
	}

	xt, err := s.TransposedSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ff.VecEqual[uint64](fp, a.Transpose().MulVec(fp, xt), b) {
		t.Fatal("TransposedSolve wrong")
	}

	sing, err := s.IsSingular(a)
	if err != nil {
		t.Fatal(err)
	}
	if sing {
		t.Fatal("non-singular flagged singular")
	}

	r, err := s.Rank(a)
	if err != nil {
		t.Fatal(err)
	}
	if r != n {
		t.Fatalf("Rank = %d, want %d", r, n)
	}
}

func TestSolverSingularPaths(t *testing.T) {
	s := newSolver(t)
	a := matrix.FromRows[uint64](fp, [][]int64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}})
	r, err := s.Rank(a)
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 {
		t.Fatalf("Rank = %d, want 2", r)
	}
	ns, err := s.Nullspace(a)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Cols != 1 || !matrix.Mul[uint64](fp, a, ns).IsZero(fp) {
		t.Fatal("Nullspace wrong")
	}
	// Consistent singular solve.
	y := []uint64{1, 2, 3}
	b := a.MulVec(fp, y)
	x, err := s.SolveSingular(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ff.VecEqual[uint64](fp, a.MulVec(fp, x), b) {
		t.Fatal("SolveSingular wrong")
	}
	// The full solver must report failure on singular input.
	if _, err := s.Solve(a, b); !errors.Is(err, kp.ErrRetriesExhausted) {
		t.Fatalf("Solve on singular: err = %v", err)
	}
}

func TestSolverToeplitzAndGCD(t *testing.T) {
	s := newSolver(t)
	src := ff.NewSource(203)
	n := 6
	entries := ff.SampleVec[uint64](fp, src, 2*n-1, ff.P31)
	cp, err := s.CharPolyToeplitz(entries)
	if err != nil {
		t.Fatal(err)
	}
	if poly.Deg[uint64](fp, cp) != n {
		t.Fatal("CharPolyToeplitz degree wrong")
	}
	cp2, err := s.CharPolyToeplitzAnyChar(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !poly.Equal[uint64](fp, cp, cp2) {
		t.Fatal("any-char route disagrees")
	}
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)
	x, err := s.SolveToeplitz(entries, b)
	if err != nil {
		t.Fatal(err)
	}
	tm := matrix.ToeplitzDense[uint64](fp, entries)
	if !ff.VecEqual[uint64](fp, tm.MulVec(fp, x), b) {
		t.Fatal("SolveToeplitz wrong")
	}
	g := poly.FromInt64[uint64](fp, []int64{1, 1})
	pa := poly.Mul[uint64](fp, g, poly.FromInt64[uint64](fp, []int64{3, 1}))
	pb := poly.Mul[uint64](fp, g, poly.FromInt64[uint64](fp, []int64{5, 0, 1}))
	gg, err := s.GCD(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if !poly.Equal[uint64](fp, gg, g) {
		t.Fatalf("GCD = %s", poly.String[uint64](fp, gg))
	}
}

func TestSolverBlackBox(t *testing.T) {
	s := newSolver(t)
	src := ff.NewSource(205)
	n := 30
	sp := matrix.RandomSparse[uint64](fp, src, n, 0.1, ff.P31)
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)
	x, err := s.SolveBlackBox(matrix.SparseBox[uint64]{M: sp}, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ff.VecEqual[uint64](fp, sp.Apply(fp, x), b) {
		t.Fatal("SolveBlackBox wrong")
	}
	d, err := s.DetBlackBox(matrix.SparseBox[uint64]{M: sp})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.Det[uint64](fp, sp.Dense(fp))
	if d != want {
		t.Fatal("DetBlackBox wrong")
	}
}

func TestSolverCircuits(t *testing.T) {
	s := newSolver(t)
	n := 4
	circ, err := s.SolveCircuit(n)
	if err != nil {
		t.Fatal(err)
	}
	if circ.NumRandom() != kp.Count(n) {
		t.Fatal("random-node count wrong")
	}
	inv, err := s.InverseCircuit(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Outputs()) != n*n {
		t.Fatal("inverse circuit output count wrong")
	}
}

func TestCharacteristicGuard(t *testing.T) {
	f2 := ff.MustFp64(2)
	s := MustNewSolver[uint64](f2, Options{Seed: 3})
	a := matrix.Identity[uint64](f2, 4)
	if _, err := s.Solve(a, []uint64{1, 0, 1, 0}); err == nil {
		t.Fatal("characteristic 2 with n = 4 must be refused by Theorem 4")
	}
	// But the any-characteristic Toeplitz charpoly works.
	entries := []uint64{1, 0, 1, 1, 0, 1, 1}
	if _, err := s.CharPolyToeplitzAnyChar(entries); err != nil {
		t.Fatal(err)
	}
}

func TestStrassenOption(t *testing.T) {
	// The deprecated boolean folds into Multiplier resolution.
	s, err := NewSolver[uint64](fp, Options{Seed: 5, Strassen: true})
	if err != nil {
		t.Fatal(err)
	}
	src := ff.NewSource(207)
	n := 6
	var a *matrix.Dense[uint64]
	for {
		a = matrix.Random[uint64](fp, src, n, n, ff.P31)
		if d, _ := matrix.Det[uint64](fp, a); !fp.IsZero(d) {
			break
		}
	}
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)
	x, err := s.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ff.VecEqual[uint64](fp, a.MulVec(fp, x), b) {
		t.Fatal("Strassen-backed Solve wrong")
	}
}

func TestMultiplierOption(t *testing.T) {
	src := ff.NewSource(311)
	n := 8
	var a *matrix.Dense[uint64]
	for {
		a = matrix.Random[uint64](fp, src, n, n, ff.P31)
		if d, _ := matrix.Det[uint64](fp, a); !fp.IsZero(d) {
			break
		}
	}
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)
	// Every named multiplier solves, and circuits still trace (the solver
	// maps parallel kernels to their serial circuit-safe forms).
	for _, name := range matrix.Names() {
		s, err := NewSolver[uint64](fp, Options{Seed: 5, Multiplier: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x, err := s.Solve(a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ff.VecEqual[uint64](fp, a.MulVec(fp, x), b) {
			t.Fatalf("%s-backed Solve wrong", name)
		}
		if _, err := s.SolveCircuit(4); err != nil {
			t.Fatalf("%s: circuit trace: %v", name, err)
		}
	}
	// An unregistered name is a configuration error, reported, not panicked.
	if _, err := NewSolver[uint64](fp, Options{Multiplier: "quantum"}); err == nil {
		t.Fatal("unknown multiplier name accepted")
	}
	// The deprecated Strassen boolean may not contradict an explicit
	// non-Strassen Multiplier.
	if _, err := NewSolver[uint64](fp, Options{Strassen: true, Multiplier: "classical"}); err == nil {
		t.Fatal("conflicting Strassen/Multiplier options accepted")
	}
	if _, err := NewSolver[uint64](fp, Options{Strassen: true, Multiplier: "parallel-strassen"}); err != nil {
		t.Fatalf("compatible Strassen/Multiplier options refused: %v", err)
	}
	// MustNewSolver keeps the old panic behaviour for tooling that wants it.
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSolver did not panic on unknown multiplier")
		}
	}()
	MustNewSolver[uint64](fp, Options{Multiplier: "quantum"})
}

// TestObserverAndInstrumentOptions runs a traced, instrumented solve and
// checks the observability contract end to end: the timeline's top-level
// spans are exactly the KP91 phases, and the op count attributed to spans
// is the Instrumented multiplier total plus the applies of Ã (every
// multiplication and every apply charged to exactly one phase).
func TestObserverAndInstrumentOptions(t *testing.T) {
	o := obs.New(0)
	s := MustNewSolver[uint64](fp, Options{Seed: 3, Observer: o, Instrument: true})
	defer obs.SetActive(nil)
	if s.MulStats() == nil {
		t.Fatal("Instrument: MulStats must be non-nil")
	}
	if s.Observer() != o {
		t.Fatal("Observer not retained")
	}
	src := ff.NewSource(11)
	n := 8
	var a *matrix.Dense[uint64]
	for {
		a = matrix.Random[uint64](fp, src, n, n, ff.P31)
		if d, _ := matrix.Det[uint64](fp, a); !fp.IsZero(d) {
			break
		}
	}
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)
	if _, err := s.Solve(a, b); err != nil {
		t.Fatal(err)
	}

	top := map[string]bool{}
	for _, r := range o.Records() {
		if r.Parent == 0 {
			top[r.Name] = true
		}
	}
	want := []string{obs.PhasePrecondition, obs.PhaseKrylov, obs.PhaseMinPoly, obs.PhaseBacksolve}
	for _, name := range want {
		if !top[name] {
			t.Fatalf("missing top-level phase %q in %v", name, top)
		}
	}
	if len(top) != len(want) {
		t.Fatalf("unexpected top-level spans: %v", top)
	}
	snap := s.MulStats().Snapshot()
	if snap.FieldOps == 0 {
		t.Fatal("instrumented multiplier saw no work")
	}
	// The phases also carry the applies of Ã (n·(2n−1) ops each) that the
	// matrix–vector route makes besides its one multiply.
	var applies uint64
	for _, r := range o.Records() {
		applies += r.ApplyCalls
	}
	if applies == 0 {
		t.Fatal("no apply of Ã was recorded")
	}
	if got, want := o.TotalFieldOps(), snap.FieldOps+applies*uint64(n*(2*n-1)); got != want {
		t.Fatalf("span field-ops %d != instrumented field-ops %d + %d applies × %d", got, snap.FieldOps, applies, n*(2*n-1))
	}
}
