package ff

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Fp64 is the prime field F_p for a word-sized prime p < 2⁶³, with elements
// represented as uint64 values in [0, p). It is the workhorse field of the
// reproduction: fast enough for the large experiments and exact, as the
// abstract-field model requires.
//
// Internally multiplication is division-free: the constructor precomputes
// the Montgomery constants p' = −p⁻¹ mod 2⁶⁴ and R² mod p (R = 2⁶⁴), and
// Mul/Pow/Inv reduce 128-bit products with REDC instead of the ~30-cycle
// hardware division a bits.Div64 reduction costs. The external element
// representation stays the canonical residue in [0, p) — Montgomery form is
// an implementation detail that never escapes (see toMont/fromMont).
type Fp64 struct {
	p    uint64
	pInv uint64 // p' = −p⁻¹ mod 2⁶⁴; 0 iff p = 2 (REDC needs an odd modulus)
	r2   uint64 // R² mod p, the to-Montgomery factor
}

// Word-sized primes used throughout the tests and benchmarks. All exceed
// any dimension n exercised here, so Leverrier's divisions by 2…n are valid.
const (
	// P62 is a 62-bit prime.
	P62 uint64 = 4611686018427387847 // 2⁶² − 57
	// P31 is a Mersenne prime, 2³¹ − 1.
	P31 uint64 = 2147483647
	// P17 is a small prime used in probability experiments where failures
	// must actually be observable.
	P17 uint64 = 131071 // 2¹⁷ − 1
)

// NewFp64 returns F_p. p must be an odd prime below 2⁶³ (or 2); primality of
// small candidates is checked eagerly and large candidates probabilistically,
// so that a composite modulus fails fast rather than corrupting experiments.
func NewFp64(p uint64) (Fp64, error) {
	if p < 2 || p >= 1<<63 {
		return Fp64{}, fmt.Errorf("ff: modulus %d out of range [2, 2^63)", p)
	}
	if !new(big.Int).SetUint64(p).ProbablyPrime(32) {
		return Fp64{}, fmt.Errorf("ff: modulus %d is not prime", p)
	}
	f := Fp64{p: p}
	if p%2 == 1 {
		// p' = −p⁻¹ mod 2⁶⁴ by Newton iteration: each step doubles the
		// number of correct low bits, and x = p is already correct mod 2³.
		x := p
		for i := 0; i < 5; i++ {
			x *= 2 - p*x
		}
		f.pInv = -x
		// R mod p, then R² mod p (one-time divisions at construction).
		_, r := bits.Div64(1, 0, p) // 2⁶⁴ mod p; 1 < p so Div64 is in range
		hi, lo := bits.Mul64(r, r)
		_, f.r2 = bits.Div64(hi, lo, p) // hi < p²/2⁶⁴ < p
	}
	return f, nil
}

// MustFp64 is NewFp64 for known-good constants; it panics on error.
func MustFp64(p uint64) Fp64 {
	f, err := NewFp64(p)
	if err != nil {
		panic(err)
	}
	return f
}

// Modulus returns p.
func (f Fp64) Modulus() uint64 { return f.p }

// Zero returns 0.
func (f Fp64) Zero() uint64 { return 0 }

// One returns 1.
func (f Fp64) One() uint64 { return 1 % f.p }

// Add returns a + b mod p.
func (f Fp64) Add(a, b uint64) uint64 {
	s := a + b // p < 2⁶³ so no overflow
	if s >= f.p {
		s -= f.p
	}
	return s
}

// Sub returns a − b mod p.
func (f Fp64) Sub(a, b uint64) uint64 {
	d := a - b
	if a < b {
		d += f.p
	}
	return d
}

// Neg returns −a mod p.
func (f Fp64) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return f.p - a
}

// redc is the Montgomery reduction: for x = hi·2⁶⁴ + lo < p·2⁶⁴ it returns
// x·R⁻¹ mod p in [0, p). The caller must guarantee hi < p (true for any
// product of two canonical residues) so that the quotient fits a word.
func (f Fp64) redc(hi, lo uint64) uint64 {
	m := lo * f.pInv
	mh, ml := bits.Mul64(m, f.p)
	// x + m·p ≡ 0 mod 2⁶⁴ by choice of m; the low words cancel exactly,
	// leaving only the carry into the high word.
	_, c := bits.Add64(lo, ml, 0)
	t, _ := bits.Add64(hi, mh, c) // < 2p < 2⁶⁴, no overflow
	if t >= f.p {
		t -= f.p
	}
	return t
}

// mulRedc returns a·b·R⁻¹ mod p: one 128-bit product and one REDC.
func (f Fp64) mulRedc(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return f.redc(hi, lo)
}

// toMont returns a·R mod p, the Montgomery form of a.
func (f Fp64) toMont(a uint64) uint64 { return f.mulRedc(a, f.r2) }

// fromMont inverts toMont: a·R⁻¹ mod p.
func (f Fp64) fromMont(a uint64) uint64 { return f.redc(0, a) }

// Mul returns a·b mod p. For odd p the reduction is two REDC passes
// (a·b·R⁻¹, then ·R² ·R⁻¹), about 3 wide multiplications instead of a
// hardware division; F_2 keeps the trivial path.
func (f Fp64) Mul(a, b uint64) uint64 {
	if f.pInv == 0 {
		return a & b // p = 2
	}
	return f.mulRedc(f.mulRedc(a, b), f.r2)
}

// IsZero reports whether a == 0.
func (f Fp64) IsZero(a uint64) bool { return a == 0 }

// Equal reports whether a == b.
func (f Fp64) Equal(a, b uint64) bool { return a == b }

// FromInt64 returns v mod p as an element of [0, p).
func (f Fp64) FromInt64(v int64) uint64 {
	m := v % int64(f.p)
	if m < 0 {
		m += int64(f.p)
	}
	return uint64(m)
}

// String formats a in decimal.
func (f Fp64) String(a uint64) string { return fmt.Sprintf("%d", a) }

// Inv returns a⁻¹ mod p. For odd p it is Fermat's a^(p−2) on the REDC
// ladder (≈190 wide multiplications, division-free and branch-predictable,
// beating the division-heavy extended Euclid loop); F_2 inverts trivially.
func (f Fp64) Inv(a uint64) (uint64, error) {
	if a == 0 {
		return 0, ErrDivisionByZero
	}
	return f.Pow(a, f.p-2), nil
}

// Div returns a/b mod p.
func (f Fp64) Div(a, b uint64) (uint64, error) {
	bi, err := f.Inv(b)
	if err != nil {
		return 0, err
	}
	return f.Mul(a, bi), nil
}

// Pow returns a^e mod p by binary exponentiation. For odd p the whole
// ladder runs in Montgomery form: one conversion in, squarings and
// multiplications at one REDC each, one conversion out.
func (f Fp64) Pow(a uint64, e uint64) uint64 {
	if f.pInv == 0 {
		if e == 0 {
			return 1
		}
		return a & 1
	}
	r := f.toMont(1)
	base := f.toMont(a % f.p)
	for e > 0 {
		if e&1 == 1 {
			r = f.mulRedc(r, base)
		}
		base = f.mulRedc(base, base)
		e >>= 1
	}
	return f.fromMont(r)
}

// Characteristic returns p.
func (f Fp64) Characteristic() *big.Int { return new(big.Int).SetUint64(f.p) }

// Cardinality returns p.
func (f Fp64) Cardinality() *big.Int { return new(big.Int).SetUint64(f.p) }

// Elem returns i mod p: the canonical enumeration of F_p is 0, 1, …, p−1.
// Sampling draws i below a subset size ≤ p, so the division is skipped
// when i is already reduced.
func (f Fp64) Elem(i uint64) uint64 {
	if i < f.p {
		return i
	}
	return i % f.p
}

func (f Fp64) wordPrime() uint64 { return f.p }

var _ Field[uint64] = Fp64{}
