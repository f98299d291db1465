package rfsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

// Failure-injection tests: the pipeline's behavior under degraded
// capture conditions.

func TestCaptureLowSNRStillFindsStrongSpike(t *testing.T) {
	cfg := testConfig()
	// Noise comparable to the received signal amplitude at 12 m
	// (|h| ≈ 2e-3): per-sample SNR near 0 dB; the FFT's √N processing
	// gain must still reveal the spike.
	cfg.NoiseSigma = 2e-3
	arr := NewPairArray(geom.V(0, 0, 4), geom.V(1, 0, 0), cfg.Wavelength/2)
	rng := rand.New(rand.NewSource(21))
	f := testFrame(rng, 1, 1)
	cfo := 205 * 4e6 / 2048
	tx := frameTransmission(t, f, cfo, 0.4, 1, geom.V(12, 0, 0))
	mc, err := Capture(cfg, arr, []Transmission{tx}, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := dsp.NewSpectrum(mc.Antennas[0], phy.SampleRate)
	peaks := dsp.FindPeaks(spec, testPeaks)
	if len(peaks) == 0 {
		t.Fatal("spike lost at 0 dB per-sample SNR (FFT gain should save it)")
	}
	if top := strongestPeak(peaks); math.Abs(top.Freq-cfo) > spec.BinWidth() {
		t.Errorf("strongest peak at %g Hz, want %g", top.Freq, cfo)
	}
}

func TestCaptureExtremeNoiseBuriesSpike(t *testing.T) {
	// Sanity check of the failure direction: at absurd noise the spike
	// must NOT be detected (no false confidence).
	cfg := testConfig()
	cfg.NoiseSigma = 1.0
	arr := NewPairArray(geom.V(0, 0, 4), geom.V(1, 0, 0), cfg.Wavelength/2)
	rng := rand.New(rand.NewSource(22))
	f := testFrame(rng, 1, 1)
	tx := frameTransmission(t, f, 500e3, 0.4, 1, geom.V(12, 0, 0))
	mc, err := Capture(cfg, arr, []Transmission{tx}, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := dsp.NewSpectrum(mc.Antennas[0], phy.SampleRate)
	peaks := dsp.FindPeaks(spec, testPeaks)
	for _, p := range peaks {
		if math.Abs(p.Freq-500e3) < spec.BinWidth() {
			t.Error("spike 'detected' 60 dB under the noise floor")
		}
	}
}

func TestMultipathShiftsAoAModestly(t *testing.T) {
	// A weak reflector perturbs but does not destroy the AoA (§12.2's
	// outdoor LoS argument): the phase across the pair of the channel
	// with one 0.2-coefficient bounce still names the true angle.
	lambda := geom.Wavelength(915e6)
	center := geom.V(0, 0, 4)
	arr := NewPairArray(center, geom.V(1, 0, 0), lambda/2)
	alpha := geom.Radians(75)
	pos := center.Add(geom.V(math.Cos(alpha)*25, math.Sin(alpha)*25, 0))
	refl := []Reflector{{Point: geom.V(5, -10, 1), Coeff: complex(0.2, 0)}}
	h0 := Channel(pos, arr.Elements[0], lambda, refl)
	h1 := Channel(pos, arr.Elements[1], lambda, refl)
	dphi := geom.WrapPhase(cmplx.Phase(h1 / h0))
	got, _ := geom.AoAFromPhase(dphi, lambda/2, lambda)
	err := math.Abs(geom.Degrees(got) - 75)
	if err > 12 {
		t.Errorf("AoA error %.1f° under 0.2-coefficient multipath", err)
	}
	t.Logf("AoA error %.2f° under 0.2-coefficient multipath", err)
}
