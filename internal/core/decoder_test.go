package core

import (
	"errors"
	"testing"

	"caraoke/internal/phy"
	"caraoke/internal/transponder"
)

// collisionSource returns a CaptureSource that re-queries the devices:
// each call produces a fresh collision (new random phases), exactly
// like the reader's repeated 1 ms queries in §12.4.
func (s *testScene) collisionSource(devs []*transponder.Device) CaptureSource {
	return func() ([]complex128, error) {
		return s.collide(devs).Antennas[0], nil
	}
}

// decodeOne runs DecodeAll for the one target at freq.
func decodeOne(src CaptureSource, sampleRate, freq float64, maxQueries int) (DecodeResult, error) {
	out, err := DecodeAll(src, sampleRate, []float64{freq}, maxQueries)
	return out[freq], err
}

func TestDecodeSingleTransponder(t *testing.T) {
	s := newTestScene(t, 401)
	devs := s.placedDevices(1)
	spikes, err := AnalyzeCapture(s.collide(devs), s.param)
	if err != nil || len(spikes) != 1 {
		t.Fatalf("spikes: %v %d", err, len(spikes))
	}
	res, err := decodeOne(s.collisionSource(devs), s.param.SampleRate, spikes[0].Freq, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.ID() != devs[0].ID() {
		t.Errorf("decoded id %#x, want %#x", res.Frame.ID(), devs[0].ID())
	}
	if res.Queries < 1 || res.Queries > 3 {
		t.Errorf("lone transponder took %d queries", res.Queries)
	}
}

func TestDecodeCollisionPair(t *testing.T) {
	// Fig 16: a pair of colliding transponders decodes in ≈4.2 ms,
	// i.e. a handful of combined queries.
	s := newTestScene(t, 402)
	devs := s.placedDevices(2)
	devs[0].CarrierHz = phy.BandLow + 300e3
	devs[1].CarrierHz = phy.BandLow + 700e3
	spikes, err := AnalyzeCapture(s.collide(devs), s.param)
	if err != nil || len(spikes) != 2 {
		t.Fatalf("spikes: %v %d", err, len(spikes))
	}
	for i, sp := range spikes {
		res, err := decodeOne(s.collisionSource(devs), s.param.SampleRate, sp.Freq, 40)
		if err != nil {
			t.Fatalf("transponder %d: %v", i, err)
		}
		if res.Frame.ID() != devs[i].ID() {
			t.Errorf("transponder %d: decoded %#x, want %#x", i, res.Frame.ID(), devs[i].ID())
		}
		if res.Queries > 20 {
			t.Errorf("transponder %d took %d queries (paper: ≈4)", i, res.Queries)
		}
	}
}

func TestDecodeFiveWayCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("slow statistical test")
	}
	s := newTestScene(t, 403)
	devs := s.placedDevices(5)
	for i, d := range devs {
		d.CarrierHz = phy.BandLow + 150e3 + float64(i)*220e3
	}
	spikes, err := AnalyzeCapture(s.collide(devs), s.param)
	if err != nil || len(spikes) != 5 {
		t.Fatalf("spikes: %v %d", err, len(spikes))
	}
	res, err := decodeOne(s.collisionSource(devs), s.param.SampleRate, spikes[2].Freq, 120)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.ID() != devs[2].ID() {
		t.Errorf("decoded %#x, want %#x", res.Frame.ID(), devs[2].ID())
	}
	// Fig 16: five colliders decode in ≈16 queries; leave generous
	// headroom for unlucky phase draws.
	if res.Queries > 80 {
		t.Errorf("five-way collision took %d queries", res.Queries)
	}
	t.Logf("five-way collision decoded after %d queries", res.Queries)
}

func TestDecoderMoreAveragingHelps(t *testing.T) {
	// SINR of the target must grow with the number of combined
	// collisions (Fig 8's visual).
	s := newTestScene(t, 404)
	devs := s.placedDevices(4)
	for i, d := range devs {
		d.CarrierHz = phy.BandLow + 200e3 + float64(i)*250e3
	}
	spikes, err := AnalyzeCapture(s.collide(devs), s.param)
	if err != nil || len(spikes) != 4 {
		t.Fatalf("spikes: %v %d", err, len(spikes))
	}
	dec := NewDecoder(spikes[0].Freq)
	failuresEarly := 0
	for q := 0; q < 30; q++ {
		if err := dec.Add(s.collide(devs).Antennas[0]); err != nil {
			t.Fatal(err)
		}
		if q == 0 {
			if _, err := dec.TryDecode(); err != nil {
				failuresEarly++
			}
		}
	}
	if _, err := dec.TryDecode(); err != nil {
		t.Errorf("not decodable even after 30 combined collisions: %v", err)
	}
}

func TestDecoderErrors(t *testing.T) {
	dec := NewDecoder(500e3)
	if _, err := dec.TryDecode(); err == nil {
		t.Error("TryDecode with no captures accepted")
	}
	if err := dec.Add(nil); err == nil {
		t.Error("empty capture accepted")
	}
	if err := dec.Add(make([]complex128, 2048)); err == nil {
		t.Error("all-zero capture accepted (no spike)")
	}
	good := make([]complex128, 2048)
	for i := range good {
		good[i] = complex(1, 0)
	}
	if err := dec.Add(good); err != nil {
		t.Fatal(err)
	}
	if err := dec.Add(make([]complex128, 100)); err == nil {
		t.Error("short capture accepted")
	}
}

func TestDecodeCollisionGivesUp(t *testing.T) {
	// Pure noise never passes the CRC; the decode must stop at
	// maxQueries and say so.
	s := newTestScene(t, 405)
	noise := func() ([]complex128, error) {
		buf := make([]complex128, 2048)
		for i := range buf {
			buf[i] = complex(s.rng.NormFloat64(), s.rng.NormFloat64())
		}
		return buf, nil
	}
	_, err := decodeOne(noise, s.param.SampleRate, 500e3, 3)
	if err == nil {
		t.Fatal("noise decoded successfully?!")
	}
	if !errors.Is(err, ErrNeedMoreCollisions) {
		t.Errorf("error %v does not wrap ErrNeedMoreCollisions", err)
	}
}
