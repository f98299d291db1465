// Package dsp provides the signal-processing primitives Caraoke is built
// on: fast Fourier transforms, single-bin DFT evaluation (Goertzel),
// window functions, spectral peak detection, and the dual-window
// bin-occupancy test of §5 of the paper.
//
// All routines operate on complex baseband samples represented as
// []complex128. The package has no dependencies outside the standard
// library and allocates nothing on its hot paths once a plan has been
// created.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFTPlan holds the precomputed bit-reversal permutation and twiddle
// tables for a power-of-two transform length. A plan is safe for
// concurrent use by multiple goroutines because the transform methods
// never write to the plan itself.
//
// The kernel is an iterative radix-4 decimation-in-time transform
// (pairs of radix-2 stages fused into one pass, with a lone radix-2
// base pass when log2 N is odd) over the standard radix-2 bit-reversal
// permutation. Each fused stage reads one contiguous, stage-major
// twiddle table sequentially — (w, w², w³) triples in butterfly order —
// instead of striding a shared table. Lengths 1, 2, 4, and 8 are fully
// unrolled. There is no inverse kernel: the pipeline only transforms
// forward, and IDFT(x) = conj(DFT(conj(x)))/N wherever a test needs one.
//
// Radix-4 reorders the butterfly additions relative to the classic
// radix-2 kernel, so bins agree with it only to rounding error (a few
// ULPs), not bit-for-bit; the test suite keeps a radix-2 oracle to
// assert that bound.
type FFTPlan struct {
	n    int
	logN int
	rev  []int // bit-reversal permutation
	// Stage-major twiddle tables for the fused radix-4 stages, in stage
	// order (block size 8 or 16 up to n, quadrupling). Stage tables hold
	// 3·m entries for quarter-block m: the triple (w, w², w³) with
	// w = e^{-2πi j/size} at consecutive indices, read sequentially by
	// the butterfly loop.
	fwdStages [][]complex128
}

// NewFFTPlan creates a plan for transforms of length n. n must be a
// power of two and at least 1. One-shot callers should prefer the
// package-level FFT, which caches plans per length.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a positive power of two", n)
	}
	p := &FFTPlan{
		n:    n,
		logN: bits.TrailingZeros(uint(n)),
		rev:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logN))
	}
	p.buildStages()
	return p, nil
}

// buildStages precomputes the stage-major twiddle tables. The first
// fused stage has block size 8 when log2 N is odd (a twiddle-free
// radix-2 pass precedes it) and 16 when even (a twiddle-free radix-4
// pass precedes it); every later stage quadruples the block size. Each
// (w, w², w³) component is computed by its own Sincos rather than by
// multiplying w up, so table accuracy does not degrade with n.
func (p *FFTPlan) buildStages() {
	first := 16
	if p.logN&1 == 1 {
		first = 8
	}
	for size := first; size <= p.n; size <<= 2 {
		m := size >> 2
		fwd := make([]complex128, 3*m)
		for j := 0; j < m; j++ {
			a := -2 * math.Pi * float64(j) / float64(size)
			s1, c1 := math.Sincos(a)
			s2, c2 := math.Sincos(2 * a)
			s3, c3 := math.Sincos(3 * a)
			fwd[3*j] = complex(c1, s1)
			fwd[3*j+1] = complex(c2, s2)
			fwd[3*j+2] = complex(c3, s3)
		}
		p.fwdStages = append(p.fwdStages, fwd)
	}
}

// Transform computes the forward DFT of src into dst. dst and src must
// both have the plan's length; they may alias the same slice for an in-place
// transform. The convention is X[k] = Σ x[t]·e^{-2πi kt/N} (no scaling).
func (p *FFTPlan) Transform(dst, src []complex128) {
	p.run(dst, src)
}

// run computes the DFT of src into dst with the radix-4 kernel:
// bit-reversal copy, unrolled base pass, then the fused stages over
// their twiddle tables.
func (p *FFTPlan) run(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dsp: FFT buffer length %d/%d, plan length %d", len(dst), len(src), p.n))
	}
	if p.n == 1 {
		dst[0] = src[0]
		return
	}
	p.bitrev(dst, src)
	p.butterflies(dst)
}

// bitrev copies src into dst in bit-reversed order; when dst aliases
// src the permutation is applied by swapping in place.
func (p *FFTPlan) bitrev(dst, src []complex128) {
	if &dst[0] == &src[0] {
		for i, j := range p.rev {
			if j > i {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
	} else {
		for i, j := range p.rev {
			dst[i] = src[j]
		}
	}
}

// butterflies runs the in-place butterfly passes over bit-reversed
// data.
func (p *FFTPlan) butterflies(dst []complex128) {
	switch p.n {
	case 2:
		a, b := dst[0], dst[1]
		dst[0], dst[1] = a+b, a-b
		return
	case 4:
		base4(dst)
		return
	case 8:
		base8(dst)
		return
	}
	if p.logN&1 == 1 {
		base2Pass(dst)
	} else {
		base4Pass(dst)
	}
	forwardStages(dst, p.fwdStages)
}

// base4 is the fully unrolled 4-point transform on bit-reversed data
// (dst holds x0, x2, x1, x3).
func base4(dst []complex128) {
	a, b, c, d := dst[0], dst[1], dst[2], dst[3]
	s0, t0 := a+b, a-b
	s1, u := c+d, c-d
	t1 := complex(imag(u), -real(u)) // -i·u
	dst[0], dst[1], dst[2], dst[3] = s0+s1, t0+t1, s0-s1, t0-t1
}

// base8 is the fully unrolled 8-point transform on bit-reversed data:
// two 4-point halves combined with the ±(√2/2)(1∓i) eighth roots.
func base8(dst []complex128) {
	base4(dst[:4])
	base4(dst[4:])
	const h = math.Sqrt2 / 2
	e0, e1, e2, e3 := dst[0], dst[1], dst[2], dst[3]
	o0, o1, o2, o3 := dst[4], dst[5], dst[6], dst[7]
	o1 *= complex(h, -h)              // e^{-πi/4}
	o2 = complex(imag(o2), -real(o2)) // -i·o2
	o3 *= complex(-h, -h)             // e^{-3πi/4}
	dst[0], dst[4] = e0+o0, e0-o0
	dst[1], dst[5] = e1+o1, e1-o1
	dst[2], dst[6] = e2+o2, e2-o2
	dst[3], dst[7] = e3+o3, e3-o3
}

// base2Pass is the twiddle-free size-2 stage run over the whole array
// when log2 N is odd, so the remaining stages pair up into radix-4.
func base2Pass(dst []complex128) {
	for i := 0; i < len(dst); i += 2 {
		a, b := dst[i], dst[i+1]
		dst[i], dst[i+1] = a+b, a-b
	}
}

// base4Pass is the twiddle-free size-4 stage run over the whole array
// when log2 N is even: the radix-4 butterfly with w = 1.
func base4Pass(dst []complex128) {
	for i := 0; i < len(dst); i += 4 {
		a, b, c, d := dst[i], dst[i+1], dst[i+2], dst[i+3]
		s0, t0 := a+b, a-b
		s1, u := c+d, c-d
		t1 := complex(imag(u), -real(u))
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0+s1, t0+t1, s0-s1, t0-t1
	}
}

// forwardStages runs the fused radix-4 stages over their tables.
// Per quarter-block index j the butterfly combines a, b, c, d at
// strides m using the stage-major triple (w, w², w³):
//
//	out[j]      = a + w²b + (wc + w³d)
//	out[j+m]    = a − w²b − i(wc − w³d)
//	out[j+2m]   = a + w²b − (wc + w³d)
//	out[j+3m]   = a − w²b + i(wc − w³d)
//
// — three complex multiplies per four outputs versus four for the two
// radix-2 stages it replaces, with one sequential table read.
func forwardStages(dst []complex128, stages [][]complex128) {
	n := len(dst)
	for _, tab := range stages {
		m := len(tab) / 3
		for start := 0; start < n; start += m << 2 {
			blk := dst[start : start+m<<2]
			ti := 0
			for j := 0; j < m; j++ {
				w1, w2, w3 := tab[ti], tab[ti+1], tab[ti+2]
				ti += 3
				a := blk[j]
				b := w2 * blk[j+m]
				c := w1 * blk[j+2*m]
				d := w3 * blk[j+3*m]
				s0, t0 := a+b, a-b
				s1, u := c+d, c-d
				t1 := complex(imag(u), -real(u)) // -i·u
				blk[j], blk[j+2*m] = s0+s1, s0-s1
				blk[j+m], blk[j+3*m] = t0+t1, t0-t1
			}
		}
	}
}

// transformSpectrum is the fused detection-path transform: the forward
// DFT of src into dst with |X[k]|² and |X[k]| written into pows and
// mags directly from the final butterfly stage's outputs, while they
// are still in registers — one cache pass instead of a separate
// magnitude sweep re-reading every bin. Bins are bit-identical to
// Transform (the butterfly arithmetic is the same; only the extra
// stores differ), and the magnitudes are exactly
// math.Sqrt(binPow(dst[k])).
func (p *FFTPlan) transformSpectrum(dst []complex128, mags, pows []float64, src []complex128) {
	if len(mags) != p.n || len(pows) != p.n {
		panic(fmt.Sprintf("dsp: transformSpectrum mags/pows length %d/%d, plan length %d", len(mags), len(pows), p.n))
	}
	if p.n < 16 {
		p.run(dst, src)
		for k, v := range dst {
			pw := binPow(v)
			pows[k] = pw
			mags[k] = math.Sqrt(pw)
		}
		return
	}
	p.bitrev(dst, src)
	if p.logN&1 == 1 {
		base2Pass(dst)
	} else {
		base4Pass(dst)
	}
	last := len(p.fwdStages) - 1
	forwardStages(dst, p.fwdStages[:last])
	// Final stage (block size n, one block) with the magnitude stores
	// fused into the butterfly.
	tab := p.fwdStages[last]
	m := p.n >> 2
	ti := 0
	for j := 0; j < m; j++ {
		w1, w2, w3 := tab[ti], tab[ti+1], tab[ti+2]
		ti += 3
		a := dst[j]
		b := w2 * dst[j+m]
		c := w1 * dst[j+2*m]
		d := w3 * dst[j+3*m]
		s0, t0 := a+b, a-b
		s1, u := c+d, c-d
		t1 := complex(imag(u), -real(u))
		o0, o2 := s0+s1, s0-s1
		o1, o3 := t0+t1, t0-t1
		dst[j], dst[j+m], dst[j+2*m], dst[j+3*m] = o0, o1, o2, o3
		p0, p1, p2, p3 := binPow(o0), binPow(o1), binPow(o2), binPow(o3)
		pows[j], pows[j+m], pows[j+2*m], pows[j+3*m] = p0, p1, p2, p3
		mags[j] = math.Sqrt(p0)
		mags[j+m] = math.Sqrt(p1)
		mags[j+2*m] = math.Sqrt(p2)
		mags[j+3*m] = math.Sqrt(p3)
	}
}

// binPow returns |v|² without the overflow guards of cmplx.Abs — bin
// values in this package are bounded by capture length × amplitude,
// far from either float64 extreme. Every magnitude the detection
// pipeline compares is derived as math.Sqrt(binPow(v)) through this
// one helper, so fused and on-demand paths are bit-identical.
func binPow(v complex128) float64 {
	re, im := real(v), imag(v)
	return re*re + im*im
}

// fftPlans caches one immutable FFTPlan per power-of-two length for
// the whole process: FFT and every Plan reuse them instead of
// rebuilding twiddle and bit-reversal tables per call.
var fftPlans sync.Map // int -> *FFTPlan

// cachedPlan returns the process-wide shared plan for power-of-two
// length n, creating and publishing it on first use. Concurrent first
// calls may both build a plan; LoadOrStore keeps exactly one.
func cachedPlan(n int) (*FFTPlan, error) {
	if v, ok := fftPlans.Load(n); ok {
		return v.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := fftPlans.LoadOrStore(n, p)
	return v.(*FFTPlan), nil
}

// FFT computes the forward DFT of x, returning a fresh slice, on the
// cached radix-4 plan for its length. len(x) must be a power of two, as
// for every Plan; FFT panics otherwise. A zero-length input yields a
// zero-length output.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	p, err := cachedPlan(n)
	if err != nil {
		panic(fmt.Sprintf("dsp: %v", err))
	}
	out := make([]complex128, n)
	p.Transform(out, x)
	return out
}
