package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"
)

// randSignal builds a reproducible test capture: a few tones on a noise
// floor, the shape FindPeaks and the FFT paths see in production.
func randSignal(rng *rand.Rand, n int, tones int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05
	}
	for t := 0; t < tones; t++ {
		f := rng.Float64() * 0.3 // cycles/sample, in the band of interest
		amp := 0.5 + rng.Float64()
		phase := rng.Float64() * 2 * math.Pi
		for i := range x {
			ang := 2*math.Pi*f*float64(i) + phase
			s, c := math.Sincos(ang)
			x[i] += complex(amp*c, amp*s)
		}
	}
	return x
}

// TestPlanFFTMatchesFFT proves the pooled transform is bit-identical to
// FFT at every length, with one plan reused across the lengths in
// interleaved order, and that the plan serves the process-wide table
// set rather than building its own.
func TestPlanFFTMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pl := new(Plan)
	lengths := []int{1, 2, 8, 256, 1024, 2048, 4096}
	// Two passes so every cached table is exercised after creation.
	for pass := 0; pass < 2; pass++ {
		for _, n := range lengths {
			x := randSignal(rng, n, 3)
			got := make([]complex128, n)
			p := pl.fftPlan(n)
			if shared, _ := cachedPlan(n); p != shared {
				t.Fatalf("n=%d: plan built its own tables", n)
			}
			p.Transform(got, x)
			want := FFT(x)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("pass %d n=%d: bin %d pooled %v, oracle %v", pass, n, k, got[k], want[k])
				}
			}
		}
	}
}

// TestPlanFFTSteadyStateAllocs: once a plan has seen a length, the
// fused spectrum pass over it allocates nothing.
func TestPlanFFTSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pl := new(Plan)
	var s Spectrum
	for _, n := range []int{2048, 512} {
		x := randSignal(rng, n, 2)
		pl.SpectrumInto(&s, x, 4e6) // warm the tables and the spectrum
		allocs := testing.AllocsPerRun(20, func() {
			pl.SpectrumInto(&s, x, 4e6)
		})
		if allocs != 0 {
			t.Errorf("n=%d: steady-state SpectrumInto allocates %.1f objects/op, want 0", n, allocs)
		}
	}
}

// TestPlanFindPeaksMatches proves Plan.FindPeaks returns exactly the
// peaks of the allocating FindPeaks across parameter regimes, including
// the MAD/excess detector used on averaged spectra.
func TestPlanFindPeaksMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pl := new(Plan)
	params := []PeakParams{
		DefaultPeakParams(),
		{Threshold: 2, Sharpness: 1, ExcessSigma: 5, SharpRadius: 16},
		{Threshold: 3, Sharpness: 3, SharpRadius: 8},
	}
	for trial := 0; trial < 6; trial++ {
		x := randSignal(rng, 2048, 1+trial%5)
		spec := NewSpectrum(x, 4e6)
		for pi, p := range params {
			want := FindPeaks(spec, p)
			got := pl.FindPeaks(spec, p)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(append([]Peak(nil), got...), want) {
				t.Errorf("trial %d params %d: pooled peaks %v, oracle %v", trial, pi, got, want)
			}
		}
	}
}

// TestPlanFindPeaksSteadyStateAllocs: peak detection on a warmed plan
// is allocation-free.
func TestPlanFindPeaksSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randSignal(rng, 2048, 4)
	spec := NewSpectrum(x, 4e6)
	pl := new(Plan)
	p := DefaultPeakParams()
	pl.FindPeaks(spec, p)
	allocs := testing.AllocsPerRun(20, func() {
		pl.FindPeaks(spec, p)
	})
	if allocs != 0 {
		t.Errorf("steady-state FindPeaks allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPlanClassifyBinMatches: the pooled dual-window occupancy test is
// bit-identical to the allocating one, probe for probe.
func TestPlanClassifyBinMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pl := new(Plan)
	for trial := 0; trial < 8; trial++ {
		x := randSignal(rng, 2048, 1+trial%3)
		freq := (0.02 + 0.1*rng.Float64()) * 4e6
		want := ClassifyBin(x, 4e6, freq)
		got := pl.ClassifyBin(x, 4e6, freq)
		if got != want {
			t.Errorf("trial %d freq %.0f: pooled %v, oracle %v", trial, freq, got, want)
		}
	}
	x := randSignal(rng, 2048, 2)
	pl.ClassifyBin(x, 4e6, 3e5)
	allocs := testing.AllocsPerRun(20, func() {
		pl.ClassifyBin(x, 4e6, 3e5)
	})
	if allocs != 0 {
		t.Errorf("steady-state ClassifyBin allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPlanSpectrumReuseAcrossLengths: one plan alternating between
// power-of-two capture lengths keeps producing spectra
// identical to fresh NewSpectrum calls — buffer reuse never leaks one
// length's bins into another's.
func TestPlanSpectrumReuseAcrossLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pl := new(Plan)
	var spec Spectrum
	for trial := 0; trial < 3; trial++ {
		for _, n := range []int{2048, 1024, 512, 4096} {
			x := randSignal(rng, n, 2)
			pl.SpectrumInto(&spec, x, 4e6)
			want := NewSpectrum(x, 4e6)
			if spec.SampleRate != want.SampleRate || len(spec.Bins) != len(want.Bins) {
				t.Fatalf("n=%d: shape mismatch", n)
			}
			for k := range want.Bins {
				if spec.Bins[k] != want.Bins[k] {
					t.Fatalf("trial %d n=%d: bin %d pooled %v, oracle %v", trial, n, k, spec.Bins[k], want.Bins[k])
				}
			}
		}
	}
}

// TestGoertzelAgreesWithDenseFFTBins: at integer bins the Goertzel
// probe must reproduce the dense FFT bin (the §5/§8 channel estimate
// contract), to a relative tolerance set by the recurrence's rounding.
func TestGoertzelAgreesWithDenseFFTBins(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{256, 1024, 2048} {
		x := randSignal(rng, n, 3)
		bins := FFT(x)
		scale := 0.0
		for _, v := range bins {
			if m := cmplx.Abs(v); m > scale {
				scale = m
			}
		}
		for k := 0; k < n/4; k += 7 {
			g := Goertzel(x, float64(k)/float64(n))
			if diff := cmplx.Abs(g - bins[k]); diff > 1e-8*scale {
				t.Errorf("n=%d bin %d: Goertzel %v, FFT %v (|Δ| %.3g)", n, k, g, bins[k], diff)
			}
		}
	}
}

// dftAt evaluates the DFT of x at an arbitrary normalized frequency by
// direct summation with a fresh sincos per sample — the exact value the
// Goertzel phasor recurrence approximates.
func dftAt(x []complex128, f float64) complex128 {
	var sum complex128
	for t := range x {
		s, c := math.Sincos(-2 * math.Pi * f * float64(t))
		sum += x[t] * complex(c, s)
	}
	return sum
}

// TestGoertzelSubBinAgreement exercises the refinement stage's actual
// inputs: fractional frequencies a fraction of a bin away from a strong
// tone. The Goertzel probe must agree with the direct DFT to within the
// phasor recurrence's drift bound across the whole sub-bin sweep.
func TestGoertzelSubBinAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	n := 2048
	x := randSignal(rng, n, 2)
	norm := 0.0
	for _, v := range x {
		norm += cmplx.Abs(v)
	}
	binCenter := 150.0 / float64(n)
	for _, off := range []float64{-0.9, -0.75, -0.5, -0.25, -0.1, 0.1, 0.25, 0.5, 0.75, 0.9} {
		f := binCenter + off/float64(n)
		g := Goertzel(x, f)
		d := dftAt(x, f)
		if diff := cmplx.Abs(g - d); diff > 1e-9*norm {
			t.Errorf("offset %+.2f bins: Goertzel %v, direct DFT %v (|Δ| %.3g, bound %.3g)",
				off, g, d, diff, 1e-9*norm)
		}
	}
}

// TestGoertzelWindowSubBin pins the windowed probe (the occupancy
// test's primitive) to direct summation at sub-bin offsets too.
func TestGoertzelWindowSubBin(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	n := 2048
	x := randSignal(rng, n, 1)
	win := n / 4
	for _, start := range []int{0, n * 3 / 8, n * 3 / 4} {
		for _, off := range []float64{-0.6, 0.3, 0.8} {
			f := (100 + off) / float64(win)
			g := GoertzelWindow(x, f, start, win)
			d := dftAt(x[start:start+win], f)
			norm := 0.0
			for _, v := range x[start : start+win] {
				norm += cmplx.Abs(v)
			}
			if diff := cmplx.Abs(g - d); diff > 1e-9*norm {
				t.Errorf("start %d offset %+.1f: windowed Goertzel %v, direct %v", start, off, g, d)
			}
		}
	}
}

// BenchmarkPlanFFT compares pooled against allocating transforms at the
// capture length.
func BenchmarkPlanFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 2048
	x := randSignal(rng, n, 3)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FFT(x)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pl := new(Plan)
		dst := make([]complex128, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl.fftPlan(n).Transform(dst, x)
		}
	})
}
