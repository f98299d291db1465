package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"caraoke/internal/phy"
)

func TestGoertzelMatchesFFTBins(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = captureSamples
	x := randomSignal(rng, n)
	want := FFT(x)
	for _, k := range []int{0, 1, 7, 100, 255, 511, 614, 1024, 2047} {
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

// chipTableFreqs are the tones the chip-table tests tune to: the edges
// of the CFO band, 0 and 1.2 MHz, and three values between.
var chipTableFreqs = []float64{0, 123456.789, 494.5e3, 987654.321, 1.2e6}

// TestChipTableSums: on whole captures, at every chipTableFreqs tone,
// every chip sum is within 1e-10 of the direct Σ x[t]·e^{−2πi f t} over
// that chip's samples, the returned total within 1e-10·len of
// Goertzel's spike, and a call allocates nothing.
func TestChipTableSums(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	re, im := make([]float64, phy.FrameChips), make([]float64, phy.FrameChips)
	var table ChipTable
	for _, hz := range chipTableFreqs {
		x := randomSignal(rng, captureSamples)
		f := hz / phy.SampleRate
		table.Tune(hz)
		got := table.Sums(x, re, im)
		if want := Goertzel(x, f); cmplx.Abs(got-want) > 1e-10*float64(len(x)) {
			t.Errorf("%g Hz: total %v, Goertzel %v", hz, got, want)
		}
		for c := range re {
			var direct complex128
			for t := 4 * c; t < 4*c+4; t++ {
				direct += x[t] * cmplx.Exp(complex(0, -2*math.Pi*f*float64(t)))
			}
			if d := cmplx.Abs(complex(re[c], im[c]) - direct); d > 1e-10 {
				t.Fatalf("%g Hz: chip %d sums to %v, direct DFT %v", hz, c, complex(re[c], im[c]), direct)
			}
		}
	}
	// Sums allocates nothing: it runs once per query per target.
	x := randomSignal(rng, captureSamples)
	if allocs := testing.AllocsPerRun(20, func() { table.Sums(x, re, im) }); allocs != 0 {
		t.Errorf("ChipTable.Sums allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPhasorTableAccuracy: every entry of the two tables fillPhasors
// builds — a ChipTable's step powers and chip starts, a ProbeBank's
// per-sample phasors — is within 1e-13 of math.Sincos of its exact
// angle, at every chipTableFreqs tone.
func TestPhasorTableAccuracy(t *testing.T) {
	const tol = 1e-13
	var table ChipTable
	var bank ProbeBank
	for _, hz := range chipTableFreqs {
		w := -2 * math.Pi * (hz / phy.SampleRate)
		table.Tune(hz)
		bank.Tune(hz)
		check := func(what string, got []complex128, angle float64) {
			t.Helper()
			for k, v := range got {
				if d := cmplx.Abs(v - exactPhasor(angle, k)); d > tol {
					t.Fatalf("%g Hz: %s entry %d is %v, %.3g from exact", hz, what, k, v, d)
				}
			}
		}
		check("ChipTable step", append([]complex128{1}, table.step[:]...), w)
		check("ChipTable start", table.start[:], w*phy.ChipSamples)
		check("ProbeBank phasor", bank.ph, w)
	}
}

// exactPhasor is e^{i·angle·k} with the product angle·k taken exactly:
// FMA recovers the product's rounding error lo, and the phasor of the
// rounded product is turned by it (e^{i·lo} = 1 + i·lo to 1e-25).
func exactPhasor(angle float64, k int) complex128 {
	hi := angle * float64(k)
	lo := math.FMA(angle, float64(k), -hi)
	s, c := math.Sincos(hi)
	return complex(c, s) * complex(1, lo)
}

func BenchmarkChipTableSums(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	x := randomSignal(rng, captureSamples)
	re, im := make([]float64, phy.FrameChips), make([]float64, phy.FrameChips)
	var table ChipTable
	table.Tune(0.123 * phy.SampleRate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Sums(x, re, im)
	}
}
