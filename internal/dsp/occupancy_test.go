package dsp

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestClassifyBinSingleTone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 2048
	fs := 4e6
	freq := 500e3
	x := toneSignal(rng, n, fs, 0.02, []Tone{{Freq: freq, Amp: complex(float64(n), 0)}})
	if got := ClassifyBin(x, fs, freq); got != OccupancySingle {
		t.Errorf("single tone classified as %v", got)
	}
}

func TestClassifyBinTwoTonesSameBin(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 2048
	fs := 4e6
	binW := fs / float64(n) // 1953 Hz
	// Two tones 0.6 bins apart: same FFT bin, different frequencies.
	f1 := 500e3
	f2 := f1 + 0.6*binW
	x := toneSignal(rng, n, fs, 0.02, []Tone{
		{Freq: f1, Amp: complex(float64(n), 0)},
		{Freq: f2, Amp: complex(0, float64(n))},
	})
	if got := ClassifyBin(x, fs, f1); got != OccupancyMultiple {
		t.Errorf("two-tone bin classified as %v", got)
	}
}

func TestClassifyBinTwoTonesStatistical(t *testing.T) {
	// Across random phases and separations, the dual-window test should
	// catch the large majority of two-tone bins and almost never flag a
	// single tone. (§5 relies on this to push counting accuracy from
	// 73% to >99% at m=20.)
	rng := rand.New(rand.NewSource(33))
	n := 2048
	fs := 4e6
	binW := fs / float64(n)
	const trials = 120
	falsePositive, missed := 0, 0
	for i := 0; i < trials; i++ {
		f1 := 200e3 + rng.Float64()*800e3
		phase1 := rng.Float64() * 6.28
		single := toneSignal(rng, n, fs, 0.03, []Tone{
			{Freq: f1, Amp: complex(float64(n), 0) * cis(phase1)},
		})
		if ClassifyBin(single, fs, f1) == OccupancyMultiple {
			falsePositive++
		}
		// Separation between 0.15 and 0.95 bins: same-bin collision.
		sep := (0.15 + 0.8*rng.Float64()) * binW
		phase2 := rng.Float64() * 6.28
		double := toneSignal(rng, n, fs, 0.03, []Tone{
			{Freq: f1, Amp: complex(float64(n), 0) * cis(phase1)},
			{Freq: f1 + sep, Amp: complex(float64(n), 0) * cis(phase2)},
		})
		if ClassifyBin(double, fs, f1+sep/2) == OccupancySingle {
			missed++
		}
	}
	if falsePositive > trials/20 {
		t.Errorf("false positives: %d/%d single tones flagged as multiple", falsePositive, trials)
	}
	// Very close separations (≲0.3 bins) are below the resolution of a
	// 512 µs capture; the paper's own empirical numbers (95.3 % correct
	// at m=20) imply its detector misses a comparable share of same-bin
	// pairs. Require catching at least 75 % across the full range.
	if missed > trials/4 {
		t.Errorf("misses: %d/%d two-tone bins classified as single", missed, trials)
	}
}

func TestClassifyBinEmptyInput(t *testing.T) {
	if got := ClassifyBin(nil, 4e6, 100e3); got != OccupancySingle {
		t.Errorf("empty input classified as %v", got)
	}
}

// cis returns e^{i·phase}.
func cis(phase float64) complex128 {
	return cmplx.Exp(complex(0, phase))
}
