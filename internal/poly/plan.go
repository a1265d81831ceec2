package poly

import (
	"fmt"
	"sync"

	"repro/internal/ff"
)

// NTTPlan is a reusable transform plan: one power-of-two size, its
// primitive root, inverse root and 1/n, resolved once so repeated products
// at the same size — the structured black-box applies issue two transforms
// per matrix-vector product, thousands per solve — skip root discovery,
// inversions and buffer allocation entirely. Plans require the fused
// in-place kernel (ff.NTTKernel): abstract fields, wrapper fields and the
// p = 2 sentinel fail construction with a typed error and callers keep the
// schoolbook path, preserving traced circuit shape and op counts.
type NTTPlan[E any] struct {
	f       ff.Field[E]
	ker     ff.NTTKernel[E]
	log2n   int
	n       int
	root    E
	rootInv E
	nInv    E

	// scratchPool recycles length-n transform buffers across applies; the
	// convolution hot path allocates nothing after warm-up.
	scratchPool sync.Pool
}

// NewNTTPlan returns a plan whose transform length is the smallest power of
// two ≥ minLen, or a typed error (ff.ErrNoRootOfUnity for a prime with too
// little 2-adicity, ff.ErrNoNTTKernel for a backend without the fused
// transform) directing the caller to the schoolbook fallback.
func NewNTTPlan[E any](f ff.Field[E], minLen int) (*NTTPlan[E], error) {
	if minLen < 1 {
		minLen = 1
	}
	log2n, n := 0, 1
	for n < minLen {
		n <<= 1
		log2n++
	}
	root, err := ff.NTTSupport(f, log2n)
	if err != nil {
		return nil, fmt.Errorf("poly: no NTT plan of length %d: %w", n, err)
	}
	rootInv, err := f.Inv(root)
	if err != nil {
		return nil, fmt.Errorf("poly: NTT plan root inversion: %w", err)
	}
	nInv, err := f.Inv(f.FromInt64(int64(n)))
	if err != nil {
		return nil, fmt.Errorf("poly: NTT plan length inversion: %w", err)
	}
	p := &NTTPlan[E]{
		f:     f,
		ker:   any(f).(ff.NTTKernel[E]),
		log2n: log2n, n: n,
		root: root, rootInv: rootInv, nInv: nInv,
	}
	p.scratchPool.New = func() any {
		buf := make([]E, p.n)
		return &buf
	}
	return p, nil
}

// Len returns the transform length (a power of two).
func (p *NTTPlan[E]) Len() int { return p.n }

// Transform returns the forward transform of a, zero-padded to the plan
// length, as a fresh slice the caller may retain — this is how the
// structured matrices cache the transform of their defining entries once.
func (p *NTTPlan[E]) Transform(a []E) []E {
	if len(a) > p.n {
		panic("poly: NTTPlan.Transform input exceeds plan length")
	}
	buf := make([]E, p.n)
	copy(buf, a)
	for i := len(a); i < p.n; i++ {
		buf[i] = p.f.Zero()
	}
	if !p.ker.NTTInPlace(buf, p.root, p.log2n) {
		panic("poly: fused transform vanished after plan construction")
	}
	return buf
}

// ConvolveHat writes coefficients [lo, hi) of the linear convolution
// (preimage of ahat) * x into out (which must have length hi−lo). The
// transform computes the cyclic convolution, which adds coefficient k+Len()
// of the linear product onto coefficient k; the window is exact when no
// such wraparound lands in it, i.e. len(a) + len(x) − 1 − lo ≤ Len() and
// hi ≤ Len(). With lo = 0 that is the whole product; a middle product
// needs only the window's reach. One forward transform of x, one pointwise
// product, one inverse transform; the 1/n normalization is folded into the
// extracted window.
func (p *NTTPlan[E]) ConvolveHat(ahat, x []E, lo, hi int, out []E) {
	if len(ahat) != p.n {
		panic("poly: ConvolveHat transform length mismatch")
	}
	if len(x) > p.n || lo < 0 || hi > p.n || hi < lo || len(out) != hi-lo {
		panic("poly: ConvolveHat window out of range")
	}
	bufp := p.scratchPool.Get().(*[]E)
	buf := *bufp
	copy(buf, x)
	for i := len(x); i < p.n; i++ {
		buf[i] = p.f.Zero()
	}
	p.ker.NTTInPlace(buf, p.root, p.log2n)
	for i := range buf {
		buf[i] = p.f.Mul(buf[i], ahat[i])
	}
	p.ker.NTTInPlace(buf, p.rootInv, p.log2n)
	for i := lo; i < hi; i++ {
		out[i-lo] = p.f.Mul(buf[i], p.nInv)
	}
	p.scratchPool.Put(bufp)
}
