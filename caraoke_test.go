package caraoke

import (
	"math"
	"math/rand"
	"testing"
)

func testReader(t *testing.T) *Reader {
	t.Helper()
	r, err := NewReader(ReaderConfig{
		ID: 1, PoleBase: V(0, -5, 0), PoleHeight: 3.8,
		RoadDir: V(1, 0, 0), TiltDeg: 60, NoiseSigma: 2e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFacadeCountAndAnalyze(t *testing.T) {
	// Five transponders on a 15 m ring around the pole, one collision.
	devs := NewTransponders(5, 5)
	for i, d := range devs {
		ang := 2 * math.Pi * float64(i) / float64(len(devs))
		d.Pos = V(15*math.Cos(ang), -5+15*math.Sin(ang), 0)
	}
	mc, err := testReader(t).Query(devs, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	res, err := Count(mc, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < 4 || res.Count > 6 {
		t.Errorf("counted %d of 5", res.Count)
	}
	spikes, err := Analyze(mc, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(spikes) == 0 {
		t.Fatal("no spikes")
	}
	for _, s := range spikes {
		if s.Freq < 0 || s.Freq > 1.2e6 {
			t.Errorf("spike CFO %g outside the transponder band", s.Freq)
		}
		if len(s.Channels) != 3 {
			t.Errorf("spike has %d channels, want 3", len(s.Channels))
		}
	}
}

func TestFacadeEndToEndDecode(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(6))
	r := testReader(t)
	devs := NewTransponders(3, 6)
	for i, d := range devs {
		d.Pos = V(8+5*float64(i), -2, 0)
	}
	mc, err := r.Query(devs, rng)
	if err != nil {
		t.Fatal(err)
	}
	spikes, err := Analyze(mc, p)
	if err != nil || len(spikes) == 0 {
		t.Fatalf("analyze: %v (%d spikes)", err, len(spikes))
	}
	src := func() ([]complex128, error) {
		c, err := r.Query(devs, rng)
		if err != nil {
			return nil, err
		}
		return c.Antennas[0], nil
	}
	dec, err := Decode(src, p, spikes[0].Freq, 100)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range devs {
		if d.ID() == dec.Frame.ID() {
			found = true
		}
	}
	if !found {
		t.Errorf("decoded id %#x matches no device", dec.Frame.ID())
	}
	aoa, err := EstimateAoA(spikes[0], r, p)
	if err != nil {
		t.Fatal(err)
	}
	if aoa.Alpha <= 0 || aoa.Alpha >= 3.1416 {
		t.Errorf("AoA %g out of range", aoa.Alpha)
	}
}
