package core

import (
	"math"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
	"caraoke/internal/transponder"
)

// collideQueries issues several queries against the same devices (§10:
// a reader's active window collects ~10 captures).
func (s *testScene) collideQueries(devs []*transponder.Device, k int) []*rfsim.MultiCapture {
	mcs := make([]*rfsim.MultiCapture, 0, k)
	for q := 0; q < k; q++ {
		mcs = append(mcs, s.collide(devs))
	}
	return mcs
}

func TestCountWellSeparatedTransponders(t *testing.T) {
	s := newTestScene(t, 201)
	for _, m := range []int{1, 2, 5, 8} {
		devs := s.placedDevices(m)
		// Spread carriers so no two share an FFT bin (this test checks
		// the peak path, not the occupancy path).
		for i, d := range devs {
			d.CarrierHz = phy.BandLow + 100e3 + float64(i)*120e3
		}
		res, err := CountAcrossQueries(s.collideQueries(devs, 10), s.param)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != m {
			t.Errorf("m=%d: counted %d", m, res.Count)
		}
	}
}

func TestCountSameBinPairViaOccupancy(t *testing.T) {
	s := newTestScene(t, 202)
	devs := s.placedDevices(3)
	binW := phy.SampleRate / float64(phy.ResponseSamples)
	devs[0].CarrierHz = phy.BandLow + 300e3
	devs[1].CarrierHz = phy.BandLow + 300e3 + 0.55*binW // same bin as devs[0]
	devs[2].CarrierHz = phy.BandLow + 800e3
	// The same-bin pair beats; average over a few independent replies
	// since detection depends on the random relative phase.
	correct := 0
	const runs = 8
	for r := 0; r < runs; r++ {
		res, err := CountAcrossQueries(s.collideQueries(devs, 10), s.param)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count == 3 {
			correct++
		}
	}
	if correct < runs*6/10 {
		t.Errorf("same-bin pair counted correctly only %d/%d times", correct, runs)
	}
}

func TestCountFromSpikesRule(t *testing.T) {
	spikes := []Spike{{Multiple: false}, {Multiple: true}, {Multiple: false}}
	if got := CountFromSpikes(spikes).Count; got != 4 {
		t.Errorf("count = %d, want 4 (§5: multi-occupied bin counts as two)", got)
	}
	if got := CountFromSpikes(nil).Count; got != 0 {
		t.Errorf("empty spikes count = %d", got)
	}
}

func TestClockImageRejection(t *testing.T) {
	// A transponder with a long zero run in its payload (an unwritten
	// 64-bit factory field) emits a 500 kHz Manchester clock line; the
	// counter must not report it as a second car.
	s := newTestScene(t, 203)
	rng := s.rng
	frame := phy.Frame{
		Programmable: rng.Uint64() & (1<<phy.ProgrammableBits - 1),
		Agency:       5,
		Serial:       rng.Uint64() & (1<<phy.SerialBits - 1),
		Factory:      0, // 64-bit zero run → clock line
		Reserved:     rng.Uint64() & (1<<phy.ReservedBits - 1),
	}
	d := transponder.New(frame, phy.BandLow+500e3, s.placedDevices(1)[0].Pos)
	res, err := CountAcrossQueries([]*rfsim.MultiCapture{s.collide([]*transponder.Device{d})}, s.param)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Errorf("counted %d for one all-zero-payload transponder (clock images not rejected?)", res.Count)
	}
}

func TestRejectClockImagesKeepsLegitimatePeaks(t *testing.T) {
	binW := 1953.125
	// Two comparable peaks 500 kHz apart are two transponders, not an
	// image (the ratio gate).
	peaks := []dsp.Peak{
		{Bin: 100, Freq: 100 * binW, Mag: 1000},
		{Bin: 356, Freq: 100*binW + 500e3, Mag: 800},
	}
	if got := rejectClockImages(peaks, binW); len(got) != 2 {
		t.Errorf("comparable 500 kHz-spaced peaks reduced to %d", len(got))
	}
	// A weak peak exactly 500 kHz from a 10× stronger one is an image.
	peaks[1].Mag = 50
	if got := rejectClockImages(peaks, binW); len(got) != 1 || got[0].Bin != 100 {
		t.Errorf("clock image not rejected: %+v", got)
	}
}

func TestCountEmpiricalPopulationAccuracy(t *testing.T) {
	// Smoke-level version of Fig 11: with population-sampled CFOs and
	// m=10, the counting pipeline should be right in the large
	// majority of runs (the paper reports 99.5 % probability of not
	// missing anyone at m=10).
	if testing.Short() {
		t.Skip("statistical test")
	}
	s := newTestScene(t, 204)
	const runs = 12
	const m = 10
	good := 0
	for r := 0; r < runs; r++ {
		devs := s.placedDevices(m)
		res, err := CountAcrossQueries(s.collideQueries(devs, 10), s.param)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(res.Count-m)) <= 1 {
			good++
		}
	}
	if good < runs*8/10 {
		t.Errorf("count within ±1 of %d in only %d/%d runs", m, good, runs)
	}
}
