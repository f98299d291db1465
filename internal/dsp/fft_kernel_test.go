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

// randomSupport returns a capture whose samples are seeded complex
// Gaussian noise on a prefix of random power-of-two length and zero
// after it — the shapes of a short burst at the start of a capture.
func randomSupport(rng *rand.Rand) []complex128 {
	x := make([]complex128, captureSamples)
	copy(x, kernelSignal(rng, 1<<rng.Intn(12)))
	return x
}

// TestKernelMatchesNaiveRandomLengths is the property test of the
// kernel: on captures carrying signal over random power-of-two lengths
// (zero after, up to whole captures) across seeds, the radix-4 transform
// must match the O(n²) naive DFT, and the inverse must round-trip.
func TestKernelMatchesNaiveRandomLengths(t *testing.T) {
	for seed := int64(1001); seed < 1009; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := kernelSignal(rng, captureSamples)
		if seed&1 == 1 {
			x = randomSupport(rng)
		}
		got := FFT(x)
		want := DFTNaive(x)
		tol := naiveTol(x)
		if d := maxBinDiff(got, want); d > tol {
			t.Errorf("seed %d: FFT vs naive DFT max bin diff %g > %g", seed, d, tol)
		}
		back := ifft(got)
		if d := maxBinDiff(back, x); d > tol {
			t.Errorf("seed %d: IFFT(FFT(x)) round-trip max diff %g > %g", seed, d, tol)
		}
	}
}

// TestKernelParsevalRandomLengths checks energy conservation
// Σ|x|² = (1/n)Σ|X|² on captures carrying signal over random
// power-of-two lengths.
func TestKernelParsevalRandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1002))
	for trial := 0; trial < 12; trial++ {
		x := randomSupport(rng)
		X := FFT(x)
		var et, ef float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range X {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		ef /= captureSamples
		if math.Abs(et-ef) > 1e-9*(et+1) {
			t.Errorf("trial %d: Parseval violated: time %g vs freq %g", trial, et, ef)
		}
	}
}

// radix2Oracle is the kernel the radix-4 transform replaced, kept
// verbatim as the test-side reference: iterative radix-2 Cooley-Tukey
// with a strided walk of its own e^{-2πik/n} table and per-element
// conjugation on the inverse path. Only the bit-reversal permutation is
// borrowed from the production plan.
type radix2Oracle struct {
	twiddle []complex128 // e^{-2πi k/n} for k in [0, n/2)
}

func newRadix2Oracle() *radix2Oracle {
	o := &radix2Oracle{twiddle: make([]complex128, captureSamples/2)}
	for k := range o.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / captureSamples)
		o.twiddle[k] = complex(c, s)
	}
	return o
}

func (o *radix2Oracle) transform(dst, src []complex128) { o.run(dst, src, false) }

func (o *radix2Oracle) inverse(dst, src []complex128) {
	o.run(dst, src, true)
	inv := complex(1/float64(captureSamples), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

func (o *radix2Oracle) run(dst, src []complex128, inverse bool) {
	const n = captureSamples
	for i, j := range capturePlan.rev {
		dst[i] = src[j]
	}
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
// inverse, on captures of noise and of short bursts. The bound is
// relative to the spectrum's largest magnitude — a few dozen ULPs, far
// below anything a detection threshold can see.
func TestKernelVsRadix2OracleULP(t *testing.T) {
	rng := rand.New(rand.NewSource(1003))
	o := newRadix2Oracle()
	for trial := 0; trial < 12; trial++ {
		x := kernelSignal(rng, captureSamples)
		if trial&1 == 1 {
			x = randomSupport(rng)
		}
		fwd := FFT(x)
		ref := make([]complex128, captureSamples)
		o.transform(ref, x)
		tol := 64 * 0x1p-52 * (maxAbs(ref) + 1)
		if d := maxBinDiff(fwd, ref); d > tol {
			t.Errorf("trial %d forward: radix-4 vs radix-2 max bin diff %g > %g", trial, d, tol)
		}
		inv := ifft(fwd)
		invRef := make([]complex128, captureSamples)
		o.inverse(invRef, ref)
		if d := maxBinDiff(inv, invRef); d > 64*0x1p-52*(maxAbs(invRef)+1) {
			t.Errorf("trial %d inverse: radix-4 vs radix-2 max diff %g", trial, d)
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

// TestFFTRegistryConcurrency runs the package's shared tables — the
// transform plan and both probe twiddle tables — from 16 goroutines at
// once, each with its own Plan and ProbeBank, through SpectrumInto and
// the bank's occupancy test.
// Under -race this is the tables' data-race test; every result must
// equal a serial run to the bit.
func TestFFTRegistryConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(1005))
	const inputs = 6
	xs := make([][]complex128, inputs)
	freqs := make([]float64, inputs)
	want := make([]Spectrum, inputs)
	wantOcc := make([]Occupancy, inputs)
	var serial Plan
	for i := range xs {
		xs[i] = randSignal(rng, captureSamples, 1+i%3)
		freqs[i] = (0.02 + 0.25*rng.Float64()) * 4e6
		serial.SpectrumInto(&want[i], xs[i], 4e6)
		wantOcc[i] = ClassifyBin(xs[i], freqs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pl Plan
			var s Spectrum
			var bank ProbeBank
			for rep := 0; rep < 2*inputs; rep++ {
				i := (g + rep) % inputs
				pl.SpectrumInto(&s, xs[i], 4e6)
				for k := range s.Bins {
					if s.Bins[k] != want[i].Bins[k] || s.Mags[k] != want[i].Mags[k] || s.Pows[k] != want[i].Pows[k] {
						errs <- "concurrent SpectrumInto result differs from serial"
						return
					}
				}
				bank.Tune(freqs[i])
				bank.Load(xs[i])
				if bank.Occupancy() != wantOcc[i] {
					errs <- "concurrent occupancy verdict differs from serial"
					return
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
// exactly equal to the one canonical magnitude expression.
func TestSpectrumIntoFusedCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(1006))
	pl := new(Plan)
	var s Spectrum
	for trial := 0; trial < 4; trial++ {
		x := kernelSignal(rng, captureSamples)
		pl.SpectrumInto(&s, x, 4e6)
		if len(s.Mags) != captureSamples || len(s.Pows) != captureSamples {
			t.Fatalf("trial %d: caches not filled (%d/%d)", trial, len(s.Mags), len(s.Pows))
		}
		for k, v := range s.Bins {
			if pw := binPow(v); s.Pows[k] != pw || s.Mags[k] != math.Sqrt(pw) {
				t.Fatalf("trial %d bin %d: cache mismatch", trial, k)
			}
		}
		ref := NewSpectrum(x, 4e6)
		for k := range ref.Bins {
			if s.Bins[k] != ref.Bins[k] {
				t.Fatalf("trial %d bin %d: fused bins %v != NewSpectrum %v", trial, k, s.Bins[k], ref.Bins[k])
			}
		}
	}
}

// BenchmarkFFTPlan is the kernel microbench of the perf trajectory:
// the radix-4 production kernel against the test-side radix-2 reference
// at the capture length.
func BenchmarkFFTPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	oracle := newRadix2Oracle()
	src := kernelSignal(rng, captureSamples)
	dst := make([]complex128, captureSamples)
	b.Run("radix4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			capturePlan.transform(dst, src)
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
	src := kernelSignal(rng, captureSamples)
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
			capturePlan.transform(s.Bins, src)
			for k, v := range s.Bins {
				pw := binPow(v)
				s.Pows[k] = pw
				s.Mags[k] = math.Sqrt(pw)
			}
		}
	})
}
