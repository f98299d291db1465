package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// kernelSignal returns n samples of seeded complex Gaussian noise.
func kernelSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// maxBinDiff returns the largest per-bin |a[k]-b[k]|.
func maxBinDiff(a, b []complex128) float64 {
	var m float64
	for k := range a {
		if d := cmplx.Abs(a[k] - b[k]); d > m {
			m = d
		}
	}
	return m
}

// naiveTol is the agreement bound between a fast transform of x and
// DFTNaive(x): rounding error scaled by the input's total magnitude.
func naiveTol(x []complex128) float64 {
	scale := 0.0
	for _, v := range x {
		scale += cmplx.Abs(v)
	}
	return 1e-11 * (scale + 1)
}

// TestKernelMatchesNaiveRandomLengths is the property test of the
// overhaul: for random lengths — powers of two through the radix-4
// kernel, everything else through Bluestein — the transform must match
// the O(n²) naive DFT, and the inverse must round-trip.
func TestKernelMatchesNaiveRandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 16, 27, 32, 64, 100, 128, 256, 365, 512, 1024, 2048}
	for i := 0; i < 12; i++ {
		lengths = append(lengths, 3+rng.Intn(1500))
	}
	for _, n := range lengths {
		x := kernelSignal(rng, n)
		got := FFT(x)
		want := DFTNaive(x)
		tol := naiveTol(x)
		if d := maxBinDiff(got, want); d > tol {
			t.Errorf("n=%d: FFT vs naive DFT max bin diff %g > %g", n, d, tol)
		}
		back := ifft(got)
		if d := maxBinDiff(back, x); d > tol {
			t.Errorf("n=%d: IFFT(FFT(x)) round-trip max diff %g > %g", n, d, tol)
		}
	}
}

// TestKernelParsevalRandomLengths checks energy conservation
// Σ|x|² = (1/n)Σ|X|² on both kernel paths.
func TestKernelParsevalRandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1002))
	for _, n := range []int{8, 64, 100, 331, 512, 777, 2048} {
		x := kernelSignal(rng, n)
		X := FFT(x)
		var et, ef float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range X {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		ef /= float64(n)
		if math.Abs(et-ef) > 1e-9*(et+1) {
			t.Errorf("n=%d: Parseval violated: time %g vs freq %g", n, et, ef)
		}
	}
}

// radix2Oracle is the kernel the radix-4 transform replaced, kept
// verbatim as the test-side reference: iterative radix-2 Cooley-Tukey
// with a strided walk of its own e^{-2πik/n} table and per-element
// conjugation on the inverse path. Only the bit-reversal permutation is
// borrowed from the production plan.
type radix2Oracle struct {
	p       *FFTPlan
	twiddle []complex128 // e^{-2πi k/n} for k in [0, n/2)
}

func newRadix2Oracle(tb testing.TB, n int) *radix2Oracle {
	tb.Helper()
	p, err := NewFFTPlan(n)
	if err != nil {
		tb.Fatal(err)
	}
	o := &radix2Oracle{p: p, twiddle: make([]complex128, n/2)}
	for k := range o.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		o.twiddle[k] = complex(c, s)
	}
	return o
}

func (o *radix2Oracle) transform(dst, src []complex128) { o.run(dst, src, false) }

func (o *radix2Oracle) inverse(dst, src []complex128) {
	o.run(dst, src, true)
	inv := complex(1/float64(o.p.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

func (o *radix2Oracle) run(dst, src []complex128, inverse bool) {
	n := o.p.n
	o.p.bitrev(dst, src)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := o.twiddle[tw]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				odd := dst[k+half] * w
				dst[k+half] = dst[k] - odd
				dst[k] += odd
				tw += step
			}
		}
	}
}

// TestKernelVsRadix2OracleULP pins the radix-4 kernel to the radix-2
// reference within a tight rounding-error envelope, forward and
// inverse, at every power-of-two size the pipeline uses. The bound is
// relative to the spectrum's largest magnitude — a few dozen ULPs, far
// below anything a detection threshold can see. Bluestein lengths, whose
// padded transforms run the same kernel, are held to the naive DFT
// through Plan.FFTInto.
func TestKernelVsRadix2OracleULP(t *testing.T) {
	rng := rand.New(rand.NewSource(1003))
	for n := 1; n <= 4096; n <<= 1 {
		o := newRadix2Oracle(t, n)
		p := o.p
		x := kernelSignal(rng, n)
		fwd := make([]complex128, n)
		ref := make([]complex128, n)
		p.Transform(fwd, x)
		o.transform(ref, x)
		tol := 64 * 0x1p-52 * (maxAbs(ref) + 1)
		if d := maxBinDiff(fwd, ref); d > tol {
			t.Errorf("n=%d forward: radix-4 vs radix-2 max bin diff %g > %g", n, d, tol)
		}
		inv := ifft(fwd)
		invRef := make([]complex128, n)
		o.inverse(invRef, ref)
		if d := maxBinDiff(inv, invRef); d > 64*0x1p-52*(maxAbs(invRef)+1) {
			t.Errorf("n=%d inverse: radix-4 vs radix-2 max diff %g", n, d)
		}
	}
	pl := new(Plan)
	for _, n := range []int{600, 2500} {
		x := kernelSignal(rng, n)
		got := make([]complex128, n)
		pl.FFTInto(got, x)
		if d, tol := maxBinDiff(got, DFTNaive(x)), naiveTol(x); d > tol {
			t.Errorf("n=%d Bluestein: FFTInto vs naive DFT max bin diff %g > %g", n, d, tol)
		}
	}
}

func maxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// TestFFTRegistryConcurrency hammers the process-wide plan registry
// from many goroutines across a mix of fresh lengths (first-use
// publication races) and shared ones. Run under -race this is the
// registry's data-race test; results are checked against a serially
// computed reference.
func TestFFTRegistryConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(1005))
	lengths := []int{16384, 8192, 2048, 64, 100, 48}
	inputs := make([][]complex128, len(lengths))
	want := make([][]complex128, len(lengths))
	for i, n := range lengths {
		inputs[i] = kernelSignal(rng, n)
		want[i] = FFT(inputs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (g + rep) % len(lengths)
				got := FFT(inputs[i])
				for k := range got {
					if got[k] != want[i][k] {
						errs <- "concurrent FFT result differs from serial"
						return
					}
				}
				back := ifft(got)
				tol := 1e-9 * float64(lengths[i])
				for k := range back {
					if cmplx.Abs(back[k]-inputs[i][k]) > tol {
						errs <- "concurrent IFFT round-trip out of tolerance"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSpectrumIntoFusedCaches checks the fused pass contract: bins
// bit-identical to the allocating NewSpectrum, and the Mags/Pows caches
// exactly equal to the one canonical magnitude expression — on the
// radix-4 path and the Bluestein path.
func TestSpectrumIntoFusedCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(1006))
	for _, n := range []int{2048, 8, 4, 600} {
		x := kernelSignal(rng, n)
		pl := new(Plan)
		var s Spectrum
		pl.SpectrumInto(&s, x, 4e6)
		if len(s.Mags) != n || len(s.Pows) != n {
			t.Fatalf("n=%d: caches not filled (%d/%d)", n, len(s.Mags), len(s.Pows))
		}
		for k, v := range s.Bins {
			if pw := binPow(v); s.Pows[k] != pw || s.Mags[k] != math.Sqrt(pw) {
				t.Fatalf("n=%d bin %d: cache mismatch", n, k)
			}
		}
		ref := NewSpectrum(x, 4e6)
		for k := range ref.Bins {
			if s.Bins[k] != ref.Bins[k] {
				t.Fatalf("n=%d bin %d: fused bins %v != NewSpectrum %v", n, k, s.Bins[k], ref.Bins[k])
			}
		}
	}
}

// BenchmarkFFTPlan is the kernel microbench of the perf trajectory:
// the radix-4 production kernel against the test-side radix-2 reference
// at the capture length.
func BenchmarkFFTPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n = 2048
	oracle := newRadix2Oracle(b, n)
	p := oracle.p
	src := kernelSignal(rng, n)
	dst := make([]complex128, n)
	b.Run("radix4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Transform(dst, src)
		}
	})
	b.Run("radix2ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracle.transform(dst, src)
		}
	})
}

// BenchmarkSpectrumInto measures the fused transform+magnitude pass
// against the unfused transform-then-sweep it replaced.
func BenchmarkSpectrumInto(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	const n = 2048
	src := kernelSignal(rng, n)
	pl := new(Plan)
	var s Spectrum
	pl.SpectrumInto(&s, src, 4e6)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl.SpectrumInto(&s, src, 4e6)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.SampleRate = 4e6
			s.Bins = growComplexSlice(s.Bins, n)
			pl.FFTInto(s.Bins, src)
			s.Mags = growFloatSlice(s.Mags, n)
			s.Pows = growFloatSlice(s.Pows, n)
			for k, v := range s.Bins {
				pw := binPow(v)
				s.Pows[k] = pw
				s.Mags[k] = math.Sqrt(pw)
			}
		}
	})
}
