package core

import (
	"reflect"
	"testing"

	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
	"caraoke/internal/transponder"
)

// cannedSource replays pre-generated collision captures, so repeated
// decodes consume byte-identical query sequences.
func cannedSource(caps []*rfsim.MultiCapture) CaptureSource {
	i := 0
	return func() ([]complex128, error) {
		mc := caps[i%len(caps)]
		i++
		return mc.Reference(), nil
	}
}

// decodeFixture builds a shared collision scene with well-separated
// CFOs plus the spike frequencies the decoders should target.
func decodeFixture(t testing.TB, seed int64, nDevs, nCaps int) ([]*rfsim.MultiCapture, []float64, []*transponder.Device, Params) {
	s := newTestScene(t, seed)
	devs := s.placedDevices(nDevs)
	for i, d := range devs {
		// Spread the CFOs evenly across the band's lower MHz so every
		// device yields a clean, decodable spike.
		d.CarrierHz = phy.BandLow + 150e3 + float64(i)*(1.0e6/float64(nDevs))
	}
	spikes, err := AnalyzeCaptures(s.collideQueries(devs, 5), s.param)
	if err != nil {
		t.Fatal(err)
	}
	if len(spikes) != nDevs {
		t.Fatalf("fixture found %d spikes for %d devices", len(spikes), nDevs)
	}
	freqs := make([]float64, len(spikes))
	for i, sp := range spikes {
		freqs[i] = sp.Freq
	}
	caps := make([]*rfsim.MultiCapture, nCaps)
	for i := range caps {
		caps[i] = s.collide(devs)
	}
	return caps, freqs, devs, s.param
}

func TestDecodeAllSharedCollisions(t *testing.T) {
	// §12.4: decoding all colliders costs the same collisions as
	// decoding one — the captures are shared, only the CFO/channel
	// compensation differs.
	s := newTestScene(t, 701)
	devs := s.placedDevices(4)
	for i, d := range devs {
		d.CarrierHz = phy.BandLow + 200e3 + float64(i)*250e3
	}
	spikes, err := AnalyzeCaptures(s.collideQueries(devs, 5), s.param)
	if err != nil {
		t.Fatal(err)
	}
	if len(spikes) != 4 {
		t.Fatalf("%d spikes", len(spikes))
	}
	queries := 0
	src := func() ([]complex128, error) {
		queries++
		return s.collide(devs).Antennas[0], nil
	}
	freqs := make([]float64, len(spikes))
	for i, sp := range spikes {
		freqs[i] = sp.Freq
	}
	out, err := DecodeAll(src, s.param.SampleRate, freqs, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("decoded %d of 4", len(out))
	}
	// Every decoded id must match a device, each exactly once.
	got := map[uint64]bool{}
	for _, res := range out {
		got[res.Frame.ID()] = true
	}
	for _, d := range devs {
		if !got[d.ID()] {
			t.Errorf("device %#x not decoded", d.ID())
		}
	}
	// The shared-collision property: total queries issued is the max
	// per-id need, not the sum.
	var worst int
	for _, res := range out {
		if res.Queries > worst {
			worst = res.Queries
		}
	}
	if queries != worst {
		t.Errorf("issued %d queries, slowest id needed %d — collisions were not shared", queries, worst)
	}
}

// TestDecodeAllReusedSourceBuffer: DecodeAll reads a capture only until
// its next call of the source, so a source that overwrites one buffer
// with every collision decodes exactly what fresh buffers decode.
func TestDecodeAllReusedSourceBuffer(t *testing.T) {
	caps, freqs, _, param := decodeFixture(t, 911, 8, 60)
	want, err := DecodeAll(cannedSource(caps), param.SampleRate, freqs, len(caps))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(freqs) {
		t.Fatalf("fixture: %d of %d targets decoded", len(want), len(freqs))
	}
	buf := make([]complex128, len(caps[0].Reference()))
	next := 0
	reused := func() ([]complex128, error) {
		copy(buf, caps[next].Reference())
		next++
		return buf, nil
	}
	got, err := DecodeAll(reused, param.SampleRate, freqs, len(caps))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("one reused buffer decoded %v, fresh buffers %v", got, want)
	}
}

func TestDecodeAllErrors(t *testing.T) {
	src := func() ([]complex128, error) { return make([]complex128, 2048), nil }
	if _, err := DecodeAll(src, 4e6, []float64{1e5}, 0); err == nil {
		t.Error("zero maxQueries accepted")
	}
	if _, err := DecodeAll(src, 4e6, nil, 5); err == nil {
		t.Error("no targets accepted")
	}
	// All-zero captures never decode: partial result plus error.
	out, err := DecodeAll(src, 4e6, []float64{1e5}, 3)
	if err == nil {
		t.Error("undecodable targets reported as success")
	}
	if len(out) != 0 {
		t.Errorf("%d unexpected decodes", len(out))
	}
}

// TestDecodeAllParallelErrors: the error paths hold with several
// targets sharing one collision stream — the case the former
// worker-pool decoder split across goroutines and DecodeAll now
// handles in one pass.
func TestDecodeAllParallelErrors(t *testing.T) {
	src := func() ([]complex128, error) { return make([]complex128, 2048), nil }
	targets := []float64{1e5, 2e5}
	if _, err := DecodeAll(src, 4e6, targets, 0); err == nil {
		t.Error("zero maxQueries accepted")
	}
	if _, err := DecodeAll(src, 4e6, targets[:0], 5); err == nil {
		t.Error("empty target list accepted")
	}
	out, err := DecodeAll(src, 4e6, targets, 3)
	if err == nil {
		t.Error("undecodable targets reported as success")
	}
	if len(out) != 0 {
		t.Errorf("%d unexpected decodes", len(out))
	}
}

// BenchmarkDecodeAll measures the §8 decode-everything path on
// pre-generated captures, isolating the combine/decode hot path
// (Goertzel channel estimate + CFO derotation + demodulation per
// target per collision):
//
//	go test -bench BenchmarkDecodeAll -run ^$ ./internal/core/
func BenchmarkDecodeAll(b *testing.B) {
	caps, freqs, _, param := decodeFixture(b, 907, 8, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAll(cannedSource(caps), param.SampleRate, freqs, len(caps)); err != nil {
			b.Fatal(err)
		}
	}
}
