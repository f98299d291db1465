package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestGoertzelMatchesFFTBins(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 512
	x := randomSignal(rng, n)
	want := FFT(x)
	for _, k := range []int{0, 1, 7, 100, 255, 511} {
		got := Goertzel(x, float64(k)/float64(n))
		if cmplx.Abs(got-want[k]) > 1e-7 {
			t.Errorf("bin %d: Goertzel=%v FFT=%v", k, got, want[k])
		}
	}
}

func TestGoertzelFractionalFrequency(t *testing.T) {
	// A tone at a fractional bin should be recovered at full amplitude
	// when evaluated exactly at its frequency.
	n := 2048
	fNorm := 123.37 / float64(n)
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*fNorm*float64(i)))
	}
	got := Goertzel(x, fNorm)
	if math.Abs(cmplx.Abs(got)-float64(n)) > 1e-6*float64(n) {
		t.Errorf("|Goertzel| = %g, want %d", cmplx.Abs(got), n)
	}
}

// GoertzelWindow evaluates the DFT of x[start:start+length] at normalized
// frequency f, with the phase referenced to the start of the window:
// the one-probe reference the §5 probe bank is tested against.
func GoertzelWindow(x []complex128, f float64, start, length int) complex128 {
	return Goertzel(x[start:start+length], f)
}

func TestGoertzelWindowPhaseReference(t *testing.T) {
	// For a pure tone, shifting the analysis window rotates the result
	// by 2π·f·start but preserves magnitude — the foundation of the
	// dual-window occupancy test.
	n := 2048
	fNorm := 200.5 / float64(n)
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*fNorm*float64(i)))
	}
	winLen := 1024
	a := GoertzelWindow(x, fNorm, 0, winLen)
	b := GoertzelWindow(x, fNorm, 512, winLen)
	if math.Abs(cmplx.Abs(a)-cmplx.Abs(b)) > 1e-6*cmplx.Abs(a) {
		t.Errorf("single-tone window magnitudes differ: %g vs %g", cmplx.Abs(a), cmplx.Abs(b))
	}
	gotPhase := cmplx.Phase(b * cmplx.Conj(a))
	wantPhase := math.Mod(2*math.Pi*fNorm*512, 2*math.Pi)
	if wantPhase > math.Pi {
		wantPhase -= 2 * math.Pi
	}
	if math.Abs(gotPhase-wantPhase) > 1e-6 {
		t.Errorf("window phase advance = %g, want %g", gotPhase, wantPhase)
	}
}

func TestGoertzelLongInputStability(t *testing.T) {
	// The phasor renormalization must keep amplitude accurate over long
	// inputs (beyond the 1024-sample renormalization interval).
	n := 1 << 16
	fNorm := 0.1234
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*fNorm*float64(i)))
	}
	got := cmplx.Abs(Goertzel(x, fNorm))
	if math.Abs(got-float64(n)) > 1e-5*float64(n) {
		t.Errorf("long-input |Goertzel| = %g, want %d", got, n)
	}
}

func BenchmarkGoertzel2048(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := randomSignal(rng, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Goertzel(x, 0.123)
	}
}

// TestGoertzelChips: for captures of four samples per chip, from none
// to a whole response, every chip sum equals the direct
// Σ x[t]·e^{−2πi f t} over that chip's samples, and the returned total
// equals Goertzel's spike over the whole input — to the bit from 16
// samples up, where the two walks are the same arithmetic.
func TestGoertzelChips(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const f = 0.1237
	for _, chips := range []int{512, 300, 257, 5, 4, 1, 0} {
		x := randomSignal(rng, 4*chips)
		re, im := make([]float64, chips), make([]float64, chips)
		got := GoertzelChips(x, f, re, im)
		want := Goertzel(x, f)
		if tol := 1e-10 * float64(len(x)); cmplx.Abs(got-want) > tol {
			t.Errorf("%d chips: total %v, Goertzel %v", chips, got, want)
		}
		if len(x) >= 16 && got != want {
			t.Errorf("%d chips: total %v is not Goertzel's %v to the bit", chips, got, want)
		}
		for c := range re {
			var direct complex128
			for t := 4 * c; t < 4*c+4; t++ {
				direct += x[t] * cmplx.Exp(complex(0, -2*math.Pi*f*float64(t)))
			}
			if d := cmplx.Abs(complex(re[c], im[c]) - direct); d > 1e-10 {
				t.Fatalf("%d chips: chip %d sums to %v, direct DFT %v", chips, c, complex(re[c], im[c]), direct)
			}
		}
	}
	// The walk allocates nothing: it runs once per query per target.
	x := randomSignal(rng, 2048)
	re, im := make([]float64, 512), make([]float64, 512)
	if allocs := testing.AllocsPerRun(20, func() { GoertzelChips(x, f, re, im) }); allocs != 0 {
		t.Errorf("GoertzelChips allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkGoertzelChips2048(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	x := randomSignal(rng, 2048)
	re, im := make([]float64, 512), make([]float64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GoertzelChips(x, 0.123, re, im)
	}
}
