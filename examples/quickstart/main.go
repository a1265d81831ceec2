// Quickstart: solve a non-singular linear system over a word-sized prime
// field with the Kaltofen–Pan Theorem 4 solver, batch several right-hand
// sides through one shared front end, reuse a factored handle, and compute
// the determinant and inverse of the matrix.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/matrix"
)

func main() {
	// The field: F_p for a 62-bit prime. Any ff.Field works — including
	// extension fields, big primes, and the rationals.
	f := ff.MustFp64(ff.P62)
	solver, err := core.NewSolver[uint64](f, core.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// A small system with a known solution.
	a := matrix.FromRows[uint64](f, [][]int64{
		{2, 1, 0, 0},
		{1, 3, 1, 0},
		{0, 1, 4, 1},
		{0, 0, 1, 5},
	})
	x0 := ff.VecFromInt64[uint64](f, []int64{1, 2, 3, 4})
	b := a.MulVec(f, x0)

	// Theorem 4: randomized, processor-efficient solve. The solver is Las
	// Vegas — the returned x is verified, never wrong.
	x, err := solver.Solve(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x          = %s\n", ff.VecString[uint64](f, x))
	fmt.Printf("recovered  = %v\n", ff.VecEqual[uint64](f, x, x0))

	// Batched solve: several right-hand sides share one preconditioning,
	// Krylov sequence and minimum-polynomial recovery — each extra column
	// costs only its share of the block backsolve.
	src := ff.NewSource(7)
	bs := matrix.Random[uint64](f, src, 4, 3, f.Modulus())
	xs, err := solver.SolveBatch(a, bs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A·X = B    = %v (for %d right-hand sides at once)\n",
		matrix.Mul[uint64](f, a, xs).Equal(f, bs), bs.Cols)

	// A reusable handle: Factor pays the Krylov front end once; every
	// subsequent Solve replays only the backsolve.
	h, err := solver.Factor(a)
	if err != nil {
		log.Fatal(err)
	}
	x2, err := h.Solve(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factored   = %v (same solution, no Krylov re-run)\n",
		ff.VecEqual[uint64](f, x2, x))

	// §2 determinant (via the Toeplitz machinery of §3).
	det, err := solver.Det(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("det(A)     = %d\n", det)

	// Theorem 6: the inverse from the Baur–Strassen derivative of the
	// determinant circuit.
	inv, err := solver.Inverse(a)
	if err != nil {
		log.Fatal(err)
	}
	ok := matrix.Mul[uint64](f, a, inv).Equal(f, matrix.Identity[uint64](f, 4))
	fmt.Printf("A·A⁻¹ = I  = %v\n", ok)

	// The circuit behind the solve, with the paper's cost measures.
	circ, err := solver.SolveCircuit(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit    : size %d, depth %d, %d random nodes\n",
		circ.LiveSize(), circ.Depth(), circ.NumRandom())
}
