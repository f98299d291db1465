// Package dsp provides the signal-processing primitives Caraoke is built
// on: the fast Fourier transform of a capture, single-bin DFT evaluation
// (Goertzel), spectral peak detection, and the dual-window bin-occupancy
// test of §5 of the paper.
//
// All routines operate on complex baseband samples represented as
// []complex128. A capture is one 512 µs response at 4 MHz,
// phy.ResponseSamples long; every entry that takes one (FFT,
// HalfTransform, NewSpectrum, Plan.SpectrumInto, ProbeBank.Load and so
// ClassifyBin) panics on any other length, an internal precondition
// the callers in core enforce with errors first. The transform and probe tables are
// built once, for that length, when the package initializes; nothing on
// a hot path allocates once a Plan's buffers have grown.
package dsp

import (
	"fmt"
	"math"
	"math/bits"

	"caraoke/internal/phy"
)

// captureSamples is the one capture length every table is built for.
const captureSamples = phy.ResponseSamples

// mustBeCapture panics unless x is one capture long.
func mustBeCapture(x []complex128, what string) {
	if len(x) != captureSamples {
		panic(fmt.Sprintf("dsp: %s of %d samples, want %d", what, len(x), captureSamples))
	}
}

// capturePlan is the one transform plan, built when the package
// initializes and only read after, so every goroutine shares it without
// a lock.
var capturePlan = newFFTPlan()

// fftPlan holds the bit-reversal permutation and twiddle tables of the
// capture-length transform.
//
// The kernel is an iterative radix-4 decimation-in-time transform over
// the standard radix-2 bit-reversal permutation: 2048 = 2·4⁵, so one
// twiddle-free radix-2 base pass, then five fused radix-4 stages. Each
// stage reads one contiguous, stage-major twiddle table sequentially —
// (w, w², w³) triples in butterfly order — instead of striding a shared
// table. There is no inverse kernel: the pipeline only transforms
// forward, and IDFT(x) = conj(DFT(conj(x)))/N wherever a test needs one.
//
// Radix-4 reorders the butterfly additions relative to the classic
// radix-2 kernel, so bins agree with it only to rounding error (a few
// ULPs), not bit-for-bit; the test suite keeps a radix-2 oracle to
// assert that bound.
type fftPlan struct {
	rev []int // bit-reversal permutation
	// Stage-major twiddle tables of the fused radix-4 stages, block
	// size 8 up to the capture length, quadrupling. A stage table holds
	// 3·m entries for quarter-block m: the triple (w, w², w³) with
	// w = e^{-2πi j/size} at consecutive indices, read sequentially by
	// the butterfly loop.
	stages [][]complex128
}

// newFFTPlan builds the permutation and the stage tables. Each
// (w, w², w³) component is computed by its own Sincos rather than by
// multiplying w up, so table accuracy does not degrade with the length.
func newFFTPlan() *fftPlan {
	const n = captureSamples
	logN := bits.TrailingZeros(n)
	if n != 1<<logN || logN&1 == 0 {
		panic(fmt.Sprintf("dsp: capture length %d is not 2·4^k", n))
	}
	p := &fftPlan{rev: make([]int, n)}
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	for size := 8; size <= n; size <<= 2 {
		m := size >> 2
		tab := make([]complex128, 3*m)
		for j := 0; j < m; j++ {
			a := -2 * math.Pi * float64(j) / float64(size)
			s1, c1 := math.Sincos(a)
			s2, c2 := math.Sincos(2 * a)
			s3, c3 := math.Sincos(3 * a)
			tab[3*j] = complex(c1, s1)
			tab[3*j+1] = complex(c2, s2)
			tab[3*j+2] = complex(c3, s3)
		}
		p.stages = append(p.stages, tab)
	}
	return p
}

// bitrevBase copies src into dst in bit-reversed order and runs the
// twiddle-free size-2 base pass over it, so the remaining stages pair
// up into radix-4.
func (p *fftPlan) bitrevBase(dst, src []complex128) {
	for i, j := range p.rev {
		dst[i] = src[j]
	}
	for i := 0; i < len(dst); i += 2 {
		a, b := dst[i], dst[i+1]
		dst[i], dst[i+1] = a+b, a-b
	}
}

// transform computes the forward DFT of src into dst: bit-reversal
// copy, base pass, then every fused stage.
func (p *fftPlan) transform(dst, src []complex128) {
	p.bitrevBase(dst, src)
	forwardStages(dst, p.stages)
}

// transformHalf is transform of src's first half zero-padded to the
// capture length. Bit reversal sends an index below n/2 to an even
// position and one above to an odd one, so the copy reads src[:n/2]
// alone and the base pass meets each sample with the padding's zero —
// the same additions transform makes on the padded copy.
func (p *fftPlan) transformHalf(dst, src []complex128) {
	for i := 0; i < len(dst); i += 2 {
		a, b := src[p.rev[i]], complex(0, 0)
		dst[i], dst[i+1] = a+b, a-b
	}
	forwardStages(dst, p.stages)
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
// magnitude sweep re-reading every bin. Bins are bit-identical to FFT
// (the butterfly arithmetic is the same; only the extra stores differ),
// and the magnitudes are exactly math.Sqrt(binPow(dst[k])). All four
// slices are one capture long.
func (p *fftPlan) transformSpectrum(dst []complex128, mags, pows []float64, src []complex128) {
	p.bitrevBase(dst, src)
	last := len(p.stages) - 1
	forwardStages(dst, p.stages[:last])
	// Final stage (block size n, one block) with the magnitude stores
	// fused into the butterfly.
	tab := p.stages[last]
	const m = captureSamples >> 2
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

// FFT computes the forward DFT of a capture, returning a fresh slice.
// The convention is X[k] = Σ x[t]·e^{-2πi kt/N} (no scaling). FFT
// panics unless len(x) is phy.ResponseSamples.
func FFT(x []complex128) []complex128 {
	mustBeCapture(x, "FFT")
	out := make([]complex128, captureSamples)
	capturePlan.transform(out, x)
	return out
}

// HalfTransform writes to dst the DFT of the first half of capture x,
// zero-padded to the capture length: dst[k] = Σ_{t<N/2} x[t]·e^{-2πi kt/N},
// bit-identical to FFT of that padded copy. It is the plain transform,
// with no magnitude caches, and reads x[:N/2] alone. Bin k of it and of
// the whole capture's DFT are the two sums RefineFromBins refines a peak
// at bin k from. HalfTransform panics unless both slices are
// phy.ResponseSamples long.
func HalfTransform(dst, x []complex128) {
	mustBeCapture(x, "HalfTransform")
	mustBeCapture(dst, "HalfTransform output")
	capturePlan.transformHalf(dst, x)
}
