package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Tone is one component of a toneSignal fixture: a complex amplitude on
// the scale of a dense FFT bin value (amplitude × capture length) at a
// continuous frequency in Hz.
type Tone struct {
	Freq float64
	Amp  complex128
}

// toneSignal synthesizes a sum of complex tones with additive noise.
func toneSignal(rng *rand.Rand, n int, sampleRate, noise float64, tones []Tone) []complex128 {
	x := make([]complex128, n)
	for _, tn := range tones {
		a := tn.Amp / complex(float64(n), 0)
		for i := range x {
			ang := 2 * math.Pi * tn.Freq / sampleRate * float64(i)
			x[i] += a * cmplx.Exp(complex(0, ang))
		}
	}
	if noise > 0 {
		for i := range x {
			x[i] += complex(rng.NormFloat64()*noise, rng.NormFloat64()*noise)
		}
	}
	return x
}

func TestSpectrumBinMapping(t *testing.T) {
	s := &Spectrum{Bins: make([]complex128, 2048), SampleRate: 4e6}
	if got := s.BinWidth(); math.Abs(got-1953.125) > 1e-9 {
		t.Errorf("BinWidth = %g, want 1953.125 (paper Eq 6)", got)
	}
	cases := []struct {
		freq float64
		bin  int
	}{
		{0, 0},
		{1953.125, 1},
		{1.2e6, 614},
		{976.5, 0},        // rounds down to bin 0
		{976.6, 1},        // rounds up to bin 1
		{-1953.125, 2047}, // negative frequency wraps
	}
	for _, c := range cases {
		if got := s.FreqBin(c.freq); got != c.bin {
			t.Errorf("FreqBin(%g) = %d, want %d", c.freq, got, c.bin)
		}
		if c.freq >= 0 {
			if got := s.BinFreq(c.bin); math.Abs(got-float64(c.bin)*1953.125) > 1e-9 {
				t.Errorf("BinFreq(%d) = %g", c.bin, got)
			}
		}
	}
}

func TestFindPeaksLocatesTones(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 2048
	fs := 4e6
	tones := []Tone{
		{Freq: 100e3, Amp: complex(float64(n), 0)},
		{Freq: 400e3, Amp: complex(0, float64(n))},
		{Freq: 900e3, Amp: complex(float64(n)*0.7, 0)},
	}
	x := toneSignal(rng, n, fs, 0.05, tones)
	s := NewSpectrum(x, fs)
	peaks := FindPeaks(s, DefaultPeakParams())
	if len(peaks) != len(tones) {
		t.Fatalf("found %d peaks, want %d: %+v", len(peaks), len(tones), peaks)
	}
	for i, tn := range tones {
		if d := math.Abs(peaks[i].Freq - tn.Freq); d > s.BinWidth() {
			t.Errorf("peak %d at %g Hz, want %g Hz (±%g)", i, peaks[i].Freq, tn.Freq, s.BinWidth())
		}
	}
}

func TestFindPeaksRespectsMaxFreq(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 2048
	fs := 4e6
	tones := []Tone{
		{Freq: 500e3, Amp: complex(float64(n), 0)},
		{Freq: 1.5e6, Amp: complex(float64(n), 0)}, // outside the CFO span
	}
	x := toneSignal(rng, n, fs, 0.02, tones)
	s := NewSpectrum(x, fs)
	peaks := FindPeaks(s, DefaultPeakParams())
	if len(peaks) != 1 {
		t.Fatalf("found %d peaks, want 1 (MaxFreq filter)", len(peaks))
	}
	if math.Abs(peaks[0].Freq-500e3) > s.BinWidth() {
		t.Errorf("kept peak at %g Hz, want 500 kHz", peaks[0].Freq)
	}
}

func TestFindPeaksEmptySpectrum(t *testing.T) {
	s := &Spectrum{Bins: nil, SampleRate: 4e6}
	if got := FindPeaks(s, DefaultPeakParams()); got != nil {
		t.Errorf("FindPeaks on empty spectrum = %v, want nil", got)
	}
}

func TestFindPeaksNoiseOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := toneSignal(rng, 2048, 4e6, 1.0, nil)
	s := NewSpectrum(x, 4e6)
	peaks := FindPeaks(s, DefaultPeakParams())
	if len(peaks) != 0 {
		t.Errorf("noise-only capture produced %d peaks", len(peaks))
	}
}

// TestMedianMag pins the noise floor FindPeaks thresholds against — the
// median bin magnitude — to known values, even and odd lengths and the
// empty spectrum included.
func TestMedianMag(t *testing.T) {
	cases := []struct {
		in   []complex128
		want float64
	}{
		{nil, 0},
		{[]complex128{3}, 3},
		{[]complex128{1, 5, 3}, 3},
		{[]complex128{1, 2, 3, 4}, 2.5},
		{[]complex128{complex(3, 4)}, 5},
	}
	for _, c := range cases {
		mags := make([]float64, len(c.in))
		for i, v := range c.in {
			mags[i] = math.Sqrt(binPow(v))
		}
		if got := medianFloat(mags); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("median magnitude of %v = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestRefineFreqSubBinAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 2048
	fs := 4e6
	// Tone deliberately off bin center by 40% of a bin.
	trueFreq := 300e3 + 0.4*fs/float64(n)
	x := toneSignal(rng, n, fs, 0.01, []Tone{{Freq: trueFreq, Amp: complex(float64(n), 0)}})
	s := NewSpectrum(x, fs)
	peaks := FindPeaks(s, DefaultPeakParams())
	if len(peaks) != 1 {
		t.Fatalf("found %d peaks, want 1", len(peaks))
	}
	refined := RefineFreq(x, fs, peaks[0])
	if d := math.Abs(refined - trueFreq); d > 100 {
		t.Errorf("refined frequency off by %g Hz (bin width %g)", d, s.BinWidth())
	}
}
