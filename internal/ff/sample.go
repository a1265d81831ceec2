package ff

import "math/bits"

// Source is a small deterministic pseudo-random source (splitmix64) used for
// all randomized choices in the reproduction. A fixed seed makes every
// experiment replayable; distinct streams are obtained by seeding with
// distinct values.
//
// A Source is NOT safe for concurrent use: every draw mutates the state
// word, so two goroutines sharing one Source race on it, and — worse than
// the data race itself — each sees a stream that is neither independent of
// nor identical to the other's, silently invalidating the Las Vegas
// failure-probability accounting that assumes independent uniform draws.
// Concurrent components must hold a Source per goroutine: keep one root
// source under external synchronization and hand each worker/request its
// own Split() child (the kpd server does exactly this per request).
type Source struct {
	state uint64
}

// NewSource returns a source seeded with seed.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (s *Source) Uint64n(n uint64) uint64 {
	return newUniform(n).draw(s)
}

// uniform draws uniformly from [0, n) by rejection: draws at or above
// limit, the largest multiple of n that fits in a uint64, are rejected to
// avoid modulo bias. The reduction of an accepted draw divides by a
// precomputed reciprocal instead of a hardware division, so a loop over one
// n pays for one division in all.
type uniform struct {
	n, limit, recip uint64 // recip = ⌊(2⁶⁴−1)/n⌋, limit = n·recip
}

func newUniform(n uint64) uniform {
	if n == 0 {
		panic("ff: Uint64n(0)")
	}
	recip := ^uint64(0) / n
	return uniform{n: n, limit: n * recip, recip: recip}
}

// draw returns the next accepted value mod n. The quotient estimate
// ⌊v·recip/2⁶⁴⌋ is ⌊v/n⌋ or one less, so one conditional subtraction makes
// the remainder exact: the stream is the one v % n would give.
func (u uniform) draw(s *Source) uint64 {
	for {
		v := s.Uint64()
		if v < u.limit {
			q, _ := bits.Mul64(v, u.recip)
			r := v - q*u.n
			if r >= u.n {
				r -= u.n
			}
			return r
		}
	}
}

// Intn returns a uniform value in [0, n). n must be positive: a negative n
// would otherwise convert to a huge uint64 and return garbage.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("ff: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Split returns a new independent source derived from this one.
func (s *Source) Split() *Source {
	return NewSource(s.Uint64())
}

// Sample draws one element uniformly from the canonical subset S ⊆ K of
// size subset (the set {Elem(0), …, Elem(subset−1)}). This is exactly the
// paper's randomization primitive: "selected uniformly from a set containing
// s field elements".
//
// A subset exceeding the field order is clamped to the order: S can never
// contain more than the whole field, and letting indices wrap through Elem
// would sample the low residues twice as often, silently breaking the
// uniformity the paper's equation (2) failure bound is computed from.
func Sample[E any](f Field[E], src *Source, subset uint64) E {
	return f.Elem(src.Uint64n(clampSubset(f, subset)))
}

// clampSubset caps subset at the field order for finite word-sized fields;
// infinite and beyond-word fields pass through unchanged.
func clampSubset[E any](f Field[E], subset uint64) uint64 {
	if c, ok := WordOrder(f); ok && subset > c {
		return c
	}
	return subset
}

// SampleVec draws an n-vector with independent uniform entries from the
// canonical subset of size subset (clamped to the field order, as in Sample).
func SampleVec[E any](f Field[E], src *Source, n int, subset uint64) []E {
	v := make([]E, n)
	SampleVecInto(f, src, v, subset)
	return v
}

// SampleVecInto fills v as SampleVec draws a len(v)-vector.
func SampleVecInto[E any](f Field[E], src *Source, v []E, subset uint64) {
	u := newUniform(clampSubset(f, subset))
	for i := range v {
		v[i] = f.Elem(u.draw(src))
	}
}

// SampleNonZero draws a non-zero element uniformly from the canonical
// subset (retrying on zero; the subset must contain a non-zero element).
func SampleNonZero[E any](f Field[E], src *Source, subset uint64) E {
	for {
		e := Sample(f, src, subset)
		if !f.IsZero(e) {
			return e
		}
	}
}

// SampleNonZeroVec draws an n-vector of non-zero entries, each as
// SampleNonZero draws it and from the same stream positions, clamping the
// subset and computing the rejection limit once instead of once per entry.
func SampleNonZeroVec[E any](f Field[E], src *Source, n int, subset uint64) []E {
	v := make([]E, n)
	SampleNonZeroVecInto(f, src, v, subset)
	return v
}

// SampleNonZeroVecInto fills v as SampleNonZeroVec draws a len(v)-vector.
func SampleNonZeroVecInto[E any](f Field[E], src *Source, v []E, subset uint64) {
	u := newUniform(clampSubset(f, subset))
	for i := range v {
		for {
			v[i] = f.Elem(u.draw(src))
			if !f.IsZero(v[i]) {
				break
			}
		}
	}
}
