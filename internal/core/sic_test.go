package core

import (
	"math"
	"slices"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// waveOf is the wave a decoded transponder's frame gives at freq, as
// the SIC sweep builds it.
func waveOf(t *testing.T, f *phy.Frame, freq float64) *rfsim.Wave {
	t.Helper()
	env, err := phy.ModulateFrame(f, phy.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	return rfsim.NewWave(env, freq)
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
	if h := cancel(stream, waveOf(t, &devs[0].Frame, spikes[0].Freq)); h == 0 {
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

// TestDecodeWithSICReusedBuffer: a capture source keeps a capture valid
// only until its next call. Over a source that overwrites one buffer per
// query, as a reader's decode queries do, the sweep decodes exactly what
// it decodes over fresh buffers: the same rounds, CFOs, ids and query
// counts on the near-far pair.
func TestDecodeWithSICReusedBuffer(t *testing.T) {
	sweep := func(reuse bool) SICDecodeResult {
		s := newTestScene(t, 802)
		src := s.collisionSource(nearFarPair(s))
		if reuse {
			buf, fresh := make([]complex128, phy.ResponseSamples), src
			src = func() ([]complex128, error) {
				c, err := fresh()
				copy(buf, c)
				return buf, err
			}
		}
		res, err := DecodeWithSIC(src, s.param, 4, 60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := sweep(false), sweep(true)
	if got.Rounds != want.Rounds || len(got.Decoded) != len(want.Decoded) {
		t.Errorf("reused buffer: %d rounds, %d decoded; fresh buffers: %d rounds, %d decoded",
			got.Rounds, len(got.Decoded), want.Rounds, len(want.Decoded))
	}
	for f, w := range want.Decoded {
		g, ok := got.Decoded[f]
		if !ok || g.Frame.ID() != w.Frame.ID() || g.Queries != w.Queries {
			t.Errorf("fresh buffers decode id %d at %.0f Hz in %d queries; the reused buffer does not", w.Frame.ID(), f, w.Queries)
		}
	}
}

func TestReconstructTransmissionMatchesCapture(t *testing.T) {
	// The decoded frame's wave, scaled by the estimated channel, must
	// reproduce a noiseless single-transponder capture almost exactly.
	s := newTestScene(t, 803)
	s.cfg.NoiseSigma = 0
	devs := s.placedDevices(1)
	devs[0].CarrierHz = phy.BandLow + 500e3
	mc := s.collide(devs)
	stream := mc.Antennas[0]
	freq := dsp.RefineFreq(stream, dsp.Peak{Freq: 500e3})
	spike := dsp.Goertzel(stream, freq/s.param.SampleRate)
	h := spike * complex(2/float64(len(stream)), 0)
	recon := make([]complex128, len(stream))
	waveOf(t, &devs[0].Frame, freq).AddTo(recon, h)
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
	short := func() ([]complex128, error) { return make([]complex128, 2047), nil }
	if _, err := DecodeWithSIC(short, DefaultParams(), 1, 10); err == nil {
		t.Error("a 2047-sample capture accepted")
	}
	// A capture with no spike at the target has nothing to cancel.
	empty := make([]complex128, phy.ResponseSamples)
	w := rfsim.NewWave(make([]float64, phy.ResponseSamples), 1e5)
	if h := cancel(empty, w); h != 0 || slices.ContainsFunc(empty, func(v complex128) bool { return v != 0 }) {
		t.Errorf("cancelling from a silent capture: channel %v, residual moved", h)
	}
}
