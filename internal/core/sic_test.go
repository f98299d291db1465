package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
)

// ReconstructTransmission synthesizes the baseband samples a decoded
// transponder contributed to a capture: its Manchester/OOK envelope
// carried at freq with the given complex channel, starting at sample 0.
// With CancelTransponder it is the unfused oracle of cancelEnvelope.
func ReconstructTransmission(frame *phy.Frame, freq float64, channel complex128, sampleRate float64, n int) ([]complex128, error) {
	env, err := phy.ModulateFrame(frame, sampleRate)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, n)
	rot := cmplx.Exp(complex(0, 2*math.Pi*freq/sampleRate))
	w := complex(1, 0)
	for i := 0; i < n; i++ {
		if i < len(env) && env[i] != 0 {
			out[i] = channel * w
		}
		w *= rot
		if i&1023 == 1023 {
			w /= complex(cmplx.Abs(w), 0)
		}
	}
	return out, nil
}

// CancelTransponder subtracts a decoded transponder from a capture in
// place: the channel is estimated from the spike at freq, exactly as the
// decoder does, then ReconstructTransmission's samples are subtracted.
// It returns the channel estimate.
func CancelTransponder(capture []complex128, frame *phy.Frame, freq, sampleRate float64) (complex128, error) {
	if len(capture) == 0 {
		return 0, fmt.Errorf("core: empty capture")
	}
	h := dsp.Goertzel(capture, freq/sampleRate) * complex(2/float64(len(capture)), 0)
	if cmplx.Abs(h) == 0 {
		return 0, fmt.Errorf("core: no spike at %g Hz to cancel", freq)
	}
	recon, err := ReconstructTransmission(frame, freq, h, sampleRate, len(capture))
	if err != nil {
		return 0, err
	}
	for i := range capture {
		capture[i] -= recon[i]
	}
	return h, nil
}

// TestCancelEnvelopeMatchesOracle: the fused cancellation leaves the
// same residual, to the bit, and reports the same channel as
// synthesizing the reconstruction and subtracting it.
func TestCancelEnvelopeMatchesOracle(t *testing.T) {
	s := newTestScene(t, 804)
	devs := s.placedDevices(3)
	for _, mc := range s.collideQueries(devs, 3) {
		for _, d := range devs {
			freq := d.CFO(s.param.ReaderLO)
			want := append([]complex128(nil), mc.Reference()...)
			hWant, err := CancelTransponder(want, &d.Frame, freq, s.param.SampleRate)
			if err != nil {
				t.Fatal(err)
			}
			env, err := phy.ModulateFrame(&d.Frame, s.param.SampleRate)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]complex128(nil), mc.Reference()...)
			hGot, err := cancelEnvelope(got, env, freq)
			if err != nil {
				t.Fatal(err)
			}
			if hGot != hWant {
				t.Fatalf("channel %v, oracle %v", hGot, hWant)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("residual sample %d: %v, oracle %v", i, got[i], want[i])
				}
			}
		}
	}
}

func TestCancelTransponderRemovesSignal(t *testing.T) {
	s := newTestScene(t, 801)
	devs := s.placedDevices(1)
	devs[0].CarrierHz = phy.BandLow + 400e3
	mc := s.collide(devs)
	stream := mc.Antennas[0]

	// Energy before and after cancelling with the true frame.
	energy := func(x []complex128) float64 {
		var e float64
		for _, v := range x {
			e += real(v)*real(v) + imag(v)*imag(v)
		}
		return e
	}
	before := energy(stream)
	spikes, err := AnalyzeCapture(mc, s.param)
	if err != nil || len(spikes) != 1 {
		t.Fatalf("spikes: %v %d", err, len(spikes))
	}
	h, err := CancelTransponder(stream, &devs[0].Frame, spikes[0].Freq, s.param.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h) == 0 {
		t.Fatal("zero channel estimate")
	}
	after := energy(stream)
	if after > before/50 {
		t.Errorf("cancellation removed only %.1f dB", 10*math.Log10(before/after))
	}
}

func TestDecodeWithSICRecoversNearFar(t *testing.T) {
	// A weak transponder 15 dB under a strong one: the weak spike is
	// hidden in the strong device's data floor (MinRelToStrongest gate)
	// until the strong signal is cancelled.
	s := newTestScene(t, 802)
	devs := nearFarPair(s)

	// Confirm the near-far setup hides the weak device from plain
	// analysis.
	mc := s.collide(devs)
	plain, err := AnalyzeCapture(mc, s.param)
	if err != nil {
		t.Fatal(err)
	}
	weakVisible := false
	for _, sp := range plain {
		if math.Abs(sp.Freq-devs[1].CFO(s.param.ReaderLO)) < 3000 {
			weakVisible = true
		}
	}

	res, err := DecodeWithSIC(s.collisionSource(devs), s.param, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, d := range res.Decoded {
		got[d.Frame.ID()] = true
	}
	if !got[devs[0].ID()] {
		t.Error("strong device not decoded")
	}
	if !got[devs[1].ID()] {
		t.Errorf("weak device not recovered by SIC (visible before SIC: %v)", weakVisible)
	}
	if res.Rounds < 2 && !weakVisible {
		t.Errorf("weak device appeared without cancellation in %d rounds?", res.Rounds)
	}
}

func TestReconstructTransmissionMatchesCapture(t *testing.T) {
	// Reconstruction with the true channel must reproduce a noiseless
	// single-transponder capture almost exactly.
	s := newTestScene(t, 803)
	s.cfg.NoiseSigma = 0
	devs := s.placedDevices(1)
	devs[0].CarrierHz = phy.BandLow + 500e3
	mc := s.collide(devs)
	stream := mc.Antennas[0]
	freq := dsp.RefineFreq(stream, dsp.Peak{Freq: 500e3})
	spike := dsp.Goertzel(stream, freq/s.param.SampleRate)
	h := spike * complex(2/float64(len(stream)), 0)
	recon, err := ReconstructTransmission(&devs[0].Frame, freq, h, s.param.SampleRate, len(stream))
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := range stream {
		d := stream[i] - recon[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(stream[i])*real(stream[i]) + imag(stream[i])*imag(stream[i])
	}
	if num > den/100 {
		t.Errorf("reconstruction residual %.1f%% of signal energy", 100*num/den)
	}
}

func TestSICValidation(t *testing.T) {
	src := func() ([]complex128, error) { return make([]complex128, 2048), nil }
	if _, err := DecodeWithSIC(src, DefaultParams(), 0, 10); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := DecodeWithSIC(src, DefaultParams(), 1, 0); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := cancelEnvelope(nil, nil, 1e5); err == nil {
		t.Error("empty capture accepted")
	}
	if _, err := cancelEnvelope(make([]complex128, 2048), nil, 1e5); err == nil {
		t.Error("zero-spike capture accepted")
	}
}
