// Package ff provides the abstract field layer of the Kaltofen–Pan
// reproduction: a generic Field interface together with concrete
// implementations (word-sized prime fields, big prime fields, extension
// fields F_{p^k} including GF(2^k), and the exact rationals), uniform
// sampling from finite subsets S ⊆ K, and an instrumented op-counting
// wrapper used by the processor-count experiments.
//
// Every algorithm in this repository is written against Field[E]: the field
// is an interface object carrying the operations, and E is the unboxed
// element type (uint64 for word-sized prime fields, []uint64 for extension
// fields, *big.Int / *big.Rat for the arbitrary-precision fields). All
// operations treat their arguments as immutable and return fresh values, so
// elements may be freely shared and stored.
package ff

import (
	"errors"
	"math/big"
)

// ErrDivisionByZero is returned by Inv and Div when the divisor is zero.
// In the Kaltofen–Pan model a division by zero corresponds to an unlucky
// random choice (or a singular input); Las Vegas drivers catch this error
// and retry with fresh randomness.
var ErrDivisionByZero = errors.New("ff: division by zero")

// ErrNotInvertible is returned by Inv when the element is a non-zero
// non-unit. It can only occur in rings that are not fields (for example an
// extension ring F_p[x]/(f) with reducible f); genuine fields never return
// it.
var ErrNotInvertible = errors.New("ff: element not invertible")

// Ring is the arithmetic core shared by all coefficient domains. An
// individual operation corresponds to one unit-cost step of the paper's
// algebraic circuit / algebraic PRAM model.
type Ring[E any] interface {
	// Zero returns the additive identity.
	Zero() E
	// One returns the multiplicative identity.
	One() E
	// Add returns a + b.
	Add(a, b E) E
	// Sub returns a − b.
	Sub(a, b E) E
	// Neg returns −a.
	Neg(a E) E
	// Mul returns a·b.
	Mul(a, b E) E
	// IsZero reports whether a is the additive identity.
	IsZero(a E) bool
	// Equal reports whether a and b denote the same element.
	Equal(a, b E) bool
	// FromInt64 returns the image of v under the unique ring homomorphism
	// Z → R (v mod p in characteristic p).
	FromInt64(v int64) E
	// String formats a for diagnostics and test failure messages.
	String(a E) string
}

// Field extends Ring with division and with the structural data the
// Kaltofen–Pan algorithms need: the characteristic (Leverrier's method
// requires characteristic zero or > n), the cardinality (to size the random
// subset S), and a canonical enumeration of elements used for uniform
// sampling from S.
type Field[E any] interface {
	Ring[E]

	// Inv returns a⁻¹, or ErrDivisionByZero if a is zero.
	Inv(a E) (E, error)
	// Div returns a/b, or ErrDivisionByZero if b is zero.
	Div(a, b E) (E, error)

	// Characteristic returns the field characteristic; zero denotes
	// characteristic 0.
	Characteristic() *big.Int
	// Cardinality returns the number of elements, or zero for an infinite
	// field.
	Cardinality() *big.Int
	// Elem returns the i-th element of the canonical enumeration of the
	// field. The map is injective on 0 ≤ i < min(Cardinality, 2⁶⁴), and
	// Elem(0) is not required to be zero. Uniform sampling from a subset
	// S of size s draws i uniformly from [0, s).
	Elem(i uint64) E
}

// wordPrimeField is implemented by the word-sized prime fields of this
// package, whose prime is both their characteristic and their order: the
// per-solve checks below read it without building a big.Int.
type wordPrimeField interface{ wordPrime() uint64 }

// WordOrder returns the order of a finite field that fits a uint64, and
// false for an infinite field or a larger one.
func WordOrder[E any](f Field[E]) (uint64, bool) {
	if w, ok := f.(wordPrimeField); ok {
		return w.wordPrime(), true
	}
	card := f.Cardinality()
	if card.Sign() > 0 && card.IsUint64() {
		return card.Uint64(), true
	}
	return 0, false
}

// CharacteristicExceeds reports whether the characteristic of f is zero or
// strictly greater than n. Leverrier/Csanky-style algorithms (and therefore
// the headline Kaltofen–Pan circuits) divide by 2, 3, …, n and are valid
// exactly under this condition.
func CharacteristicExceeds[E any](f Field[E], n int) bool {
	if w, ok := f.(wordPrimeField); ok {
		return n < 0 || w.wordPrime() > uint64(n)
	}
	ch := f.Characteristic()
	if ch.Sign() == 0 {
		return true
	}
	return ch.Cmp(big.NewInt(int64(n))) > 0
}

// SubsetSize returns the size of the canonical sampling subset S to use so
// that the paper's failure bound 3n²/|S| is at most eps, clamped to the
// field cardinality. A zero return means the field is too small to reach
// the requested failure bound (the paper's remedy is to move to an
// algebraic extension; see FpExt).
func SubsetSize[E any](f Field[E], n int, eps float64) uint64 {
	if eps <= 0 {
		eps = 0.5
	}
	need := uint64(3*float64(n)*float64(n)/eps) + 1
	card := f.Cardinality()
	if card.Sign() == 0 {
		return need
	}
	if card.IsUint64() {
		if c := card.Uint64(); c < need {
			return 0
		}
	}
	return need
}
