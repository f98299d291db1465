package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const fftTol = 1e-9

func randomSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// DFTNaive computes the DFT by direct summation: the O(n²) reference
// every transform in this package is tested against. The angle of each
// term is reduced mod n in integers, so every factor is one exact
// Sincos of an angle in (−2π, 0].
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	roots := make([]complex128, n)
	for m := range roots {
		s, c := math.Sincos(-2 * math.Pi * float64(m) / float64(n))
		roots[m] = complex(c, s)
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t, v := range x {
			sum += v * roots[k*t%n]
		}
		out[k] = sum
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 3; seed++ {
		x := randomSignal(rng, captureSamples)
		got := FFT(x)
		want := DFTNaive(x)
		if d := maxDiff(got, want); d > fftTol*captureSamples {
			t.Errorf("signal %d: FFT differs from naive DFT by %g", seed, d)
		}
	}
}

// ifft is the inverse DFT (scaled by 1/N) the round-trip tests check the
// forward kernel against: the identity IDFT(x) = conj(DFT(conj(x)))/N
// over FFT.
func ifft(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = cmplx.Conj(v)
	}
	out = FFT(out)
	inv := 1 / float64(len(x))
	for i, v := range out {
		out[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return out
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for seed := 0; seed < 6; seed++ {
		x := randomSignal(rng, captureSamples)
		back := ifft(FFT(x))
		if d := maxDiff(back, x); d > 1e-8 {
			t.Errorf("signal %d: IFFT(FFT(x)) differs from x by %g", seed, d)
		}
	}
}

// TestNewFFTPlanRejectsBadLengths: the one transform plan serves the
// capture length only. Lengths a general plan would have refused, and
// powers of two other than the capture length, are refused alike; the
// capture length itself transforms.
func TestNewFFTPlanRejectsBadLengths(t *testing.T) {
	p := newFFTPlan()
	if len(p.rev) != captureSamples {
		t.Fatalf("plan permutation has %d entries, want %d", len(p.rev), captureSamples)
	}
	for _, n := range []int{0, 1, 2, 3, 4, 6, 100, 1023, 4096} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FFT of %d samples did not panic", n)
				}
			}()
			FFT(make([]complex128, n))
		}()
	}
	if out := FFT(make([]complex128, captureSamples)); len(out) != captureSamples {
		t.Errorf("FFT of a capture returned %d bins, want %d", len(out), captureSamples)
	}
}

// TestFFTEmptyInput: an empty capture is a broken precondition, not an
// empty spectrum.
func TestFFTEmptyInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFT(nil) did not panic")
		}
	}()
	FFT(nil)
}

// TestFFTPanicsOnOtherLengths: every entry that takes a capture refuses
// any length but the one capture shape — a broken internal
// precondition, not an input to transform. core refuses such captures
// with errors before they reach dsp.
func TestFFTPanicsOnOtherLengths(t *testing.T) {
	entries := map[string]func(x []complex128){
		"FFT": func(x []complex128) { FFT(x) },
		"HalfTransform": func(x []complex128) {
			HalfTransform(make([]complex128, captureSamples), x)
		},
		"HalfTransform output": func(x []complex128) {
			HalfTransform(x, make([]complex128, captureSamples))
		},
		"NewSpectrum": func(x []complex128) { NewSpectrum(x, 4e6) },
		"Plan.SpectrumInto": func(x []complex128) {
			var pl Plan
			var s Spectrum
			pl.SpectrumInto(&s, x, 4e6)
		},
		"ProbeBank.Load": func(x []complex128) {
			var b ProbeBank
			b.Tune(3e5)
			b.Load(x)
		},
		"ClassifyBin": func(x []complex128) { ClassifyBin(x, 3e5) },
	}
	for name, entry := range entries {
		for _, n := range []int{0, captureSamples / 2, captureSamples - 1, 2 * captureSamples} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of %d samples did not panic", name, n)
					}
				}()
				entry(make([]complex128, n))
			}()
		}
	}
}

// Property: the DFT is linear.
func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = captureSamples
		x := randomSignal(r, n)
		y := randomSignal(r, n)
		a := complex(r.NormFloat64(), r.NormFloat64())
		b := complex(r.NormFloat64(), r.NormFloat64())
		combined := make([]complex128, n)
		for i := range combined {
			combined[i] = a*x[i] + b*y[i]
		}
		lhs := FFT(combined)
		fx, fy := FFT(x), FFT(y)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*fx[i]+b*fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Parseval — energy is conserved up to the 1/N convention.
func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = captureSamples
		x := randomSignal(r, n)
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		var freqE float64
		for _, v := range FFT(x) {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-6*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: circular time shift rotates phases but preserves magnitudes
// (the property §5's occupancy test builds on).
func TestFFTShiftTheoremProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = captureSamples
		shift := 1 + r.Intn(n-1)
		x := randomSignal(r, n)
		shifted := make([]complex128, n)
		for i := range x {
			shifted[i] = x[(i+shift)%n]
		}
		fx, fs := FFT(x), FFT(shifted)
		for k := range fx {
			// Magnitude preserved.
			if math.Abs(cmplx.Abs(fx[k])-cmplx.Abs(fs[k])) > 1e-8 {
				return false
			}
			// Phase rotated by exactly 2πk·shift/n (reduced mod n, so
			// the expected rotation carries no angle rounding).
			want := fx[k] * cmplx.Exp(complex(0, 2*math.Pi*float64(k*shift%n)/float64(n)))
			if cmplx.Abs(want-fs[k]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFFTPureToneSpike(t *testing.T) {
	const n = captureSamples
	for _, bin := range []int{0, 37, 614, n/2 + 1, n - 1} {
		x := make([]complex128, n)
		for t := range x {
			ang := 2 * math.Pi * float64(bin*t%n) / float64(n)
			x[t] = cmplx.Exp(complex(0, ang))
		}
		out := FFT(x)
		for k := range out {
			want := 0.0
			if k == bin {
				want = float64(n)
			}
			if math.Abs(cmplx.Abs(out[k])-want) > 1e-7 {
				t.Fatalf("tone at bin %d, bin %d: |X|=%g want %g", bin, k, cmplx.Abs(out[k]), want)
			}
		}
	}
}

func BenchmarkFFT2048(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randomSignal(rng, captureSamples)
	out := make([]complex128, captureSamples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capturePlan.transform(out, x)
	}
}
