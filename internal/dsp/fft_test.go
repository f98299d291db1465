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
// every transform in this package is tested against.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s, c := math.Sincos(ang)
			sum += x[t] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := randomSignal(rng, n)
		got := FFT(x)
		want := DFTNaive(x)
		if d := maxDiff(got, want); d > fftTol*float64(n) {
			t.Errorf("n=%d: FFT differs from naive DFT by %g", n, d)
		}
	}
}

func TestBluesteinMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 12, 100, 129, 1000} {
		x := randomSignal(rng, n)
		got := FFT(x)
		want := DFTNaive(x)
		if d := maxDiff(got, want); d > 1e-7*float64(n) {
			t.Errorf("n=%d: Bluestein FFT differs from naive DFT by %g", n, d)
		}
	}
}

// ifft is the inverse DFT (scaled by 1/N) the round-trip tests check the
// forward kernels against: the identity IDFT(x) = conj(DFT(conj(x)))/N
// over FFT, at any length.
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
	for _, n := range []int{1, 2, 8, 100, 512, 2048} {
		x := randomSignal(rng, n)
		back := ifft(FFT(x))
		if d := maxDiff(back, x); d > 1e-8 {
			t.Errorf("n=%d: IFFT(FFT(x)) differs from x by %g", n, d)
		}
	}
}

func TestFFTInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 256
	x := randomSignal(rng, n)
	want := FFT(x)
	p, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, n)
	copy(buf, x)
	p.Transform(buf, buf)
	if d := maxDiff(buf, want); d > fftTol*float64(n) {
		t.Errorf("in-place transform differs by %g", d)
	}
	if d := maxDiff(ifft(buf), x); d > 1e-8 {
		t.Errorf("inverse of the in-place transform differs by %g", d)
	}
}

func TestNewFFTPlanRejectsBadLengths(t *testing.T) {
	for _, n := range []int{-4, -1, 0, 3, 6, 100, 1023} {
		if _, err := NewFFTPlan(n); err == nil {
			t.Errorf("NewFFTPlan(%d): expected error", n)
		}
	}
	for _, n := range []int{1, 2, 4, 4096} {
		if _, err := NewFFTPlan(n); err != nil {
			t.Errorf("NewFFTPlan(%d): unexpected error %v", n, err)
		}
	}
}

func TestFFTEmptyInput(t *testing.T) {
	if out := FFT(nil); out != nil {
		t.Errorf("FFT(nil) = %v, want nil", out)
	}
}

// Property: the DFT is linear.
func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64
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
		n := 128
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
		n := 128
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
			// Phase rotated by exactly 2πk·shift/n.
			want := fx[k] * cmplx.Exp(complex(0, 2*math.Pi*float64(k)*float64(shift)/float64(n)))
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
	n := 1024
	bin := 37
	x := make([]complex128, n)
	for t := range x {
		ang := 2 * math.Pi * float64(bin) * float64(t) / float64(n)
		x[t] = cmplx.Exp(complex(0, ang))
	}
	out := FFT(x)
	for k := range out {
		want := 0.0
		if k == bin {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(out[k])-want) > 1e-7 {
			t.Fatalf("bin %d: |X|=%g want %g", k, cmplx.Abs(out[k]), want)
		}
	}
}

func BenchmarkFFT2048(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randomSignal(rng, 2048)
	p, _ := NewFFTPlan(2048)
	out := make([]complex128, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(out, x)
	}
}
