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

// TestGoertzelChips: for chips of 1 to 9 samples, with and without a
// tail past the last chip (and with no chips at all), every chip sum
// equals the direct Σ x[t]·e^{−2πi f t} over that chip's samples, and
// the returned total equals Goertzel's spike over the whole input — to
// the bit at four samples per chip with no tail, where the two walks
// are the same arithmetic.
func TestGoertzelChips(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const f = 0.1237
	for spc := 1; spc <= 9; spc++ {
		for _, shape := range []struct{ chips, tail int }{{512, 0}, {512, 7}, {300, 1000}, {5, 2}, {0, 40}} {
			x := randomSignal(rng, shape.chips*spc+shape.tail)
			re, im := make([]float64, shape.chips), make([]float64, shape.chips)
			got := GoertzelChips(x, f, spc, re, im)
			want := Goertzel(x, f)
			if tol := 1e-10 * float64(len(x)); cmplx.Abs(got-want) > tol {
				t.Errorf("spc %d, %d chips + %d: total %v, Goertzel %v", spc, shape.chips, shape.tail, got, want)
			}
			if spc == 4 && shape.tail == 0 && got != want {
				t.Errorf("%d chips of 4: total %v is not Goertzel's %v to the bit", shape.chips, got, want)
			}
			for c := range re {
				var direct complex128
				for t := c * spc; t < (c+1)*spc; t++ {
					direct += x[t] * cmplx.Exp(complex(0, -2*math.Pi*f*float64(t)))
				}
				if d := cmplx.Abs(complex(re[c], im[c]) - direct); d > 1e-10 {
					t.Fatalf("spc %d, %d chips + %d: chip %d sums to %v, direct DFT %v", spc, shape.chips, shape.tail, c, complex(re[c], im[c]), direct)
				}
			}
		}
	}
}

func BenchmarkGoertzelChips2048(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	x := randomSignal(rng, 2048)
	re, im := make([]float64, 512), make([]float64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GoertzelChips(x, 0.123, 4, re, im)
	}
}
