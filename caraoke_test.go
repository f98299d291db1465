package caraoke

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"caraoke/internal/core"
	"caraoke/internal/phy"
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

// TestFrontEndShapeRefused: the front end has one capture shape, one
// 512 µs response at 4 MHz (2048 samples, four per chip). Every boundary
// that takes a capture, a capture source, a rate, a reply start or Params from outside
// refuses any other with an error, never a panic, before it touches
// state: a warmed Scratch keeps its last result, a decoder its combined
// captures, and DecodeAll issues no query at a wrong rate.
func TestFrontEndShapeRefused(t *testing.T) {
	devs := NewTransponders(3, 7)
	for i, d := range devs {
		d.Pos = V(8+5*float64(i), -2, 0)
	}
	good, err := testReader(t).Query(devs, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	// resized returns good cut or zero-padded to n samples per antenna.
	resized := func(n int) *MultiCapture {
		mc := &MultiCapture{}
		for _, st := range good.Antennas {
			mc.Antennas = append(mc.Antennas, append(make([]complex128, 0, n), st[:min(n, len(st))]...)[:n])
		}
		return mc
	}
	var sc core.Scratch
	spikes, err := sc.AnalyzeCaptures([]*MultiCapture{good, good}, p, 1)
	if err != nil || len(spikes) == 0 {
		t.Fatalf("fixture: %d spikes, err %v", len(spikes), err)
	}
	want := make([]Spike, len(spikes))
	for i, s := range spikes {
		want[i] = s
		want[i].Channels = append([]complex128(nil), s.Channels...)
	}
	target := want[0].Freq
	dec := core.NewDecoder(target)
	if err := dec.Add(good.Antennas[0]); err != nil {
		t.Fatal(err)
	}
	_, tryBefore := dec.TryDecode()
	queries := 0
	source := func(n int) core.CaptureSource {
		return func() ([]complex128, error) {
			queries++
			return resized(n).Antennas[0], nil
		}
	}
	at5MHz := p
	at5MHz.SampleRate = 5e6

	for _, tc := range []struct {
		name    string
		run     func() error
		queries int // what the row may ask of its capture source
	}{
		{"Analyze/1000", func() error { _, err := Analyze(resized(1000), p); return err }, 0},
		{"Analyze/4096", func() error { _, err := Analyze(resized(4096), p); return err }, 0},
		{"CountAcrossQueries/1000", func() error {
			_, err := CountAcrossQueries([]*MultiCapture{good, resized(1000)}, p)
			return err
		}, 0},
		{"CountAcrossQueries/4096", func() error {
			_, err := CountAcrossQueries([]*MultiCapture{resized(4096), good}, p)
			return err
		}, 0},
		{"Scratch.AnalyzeCapture/4096", func() error { _, err := sc.AnalyzeCapture(resized(4096), p); return err }, 0},
		{"Scratch.AnalyzeCaptures/1000", func() error {
			_, err := sc.AnalyzeCaptures([]*MultiCapture{good, resized(1000)}, p, 1)
			return err
		}, 0},
		{"Params/5MHz", at5MHz.Validate, 0},
		{"Analyze/5MHz", func() error { _, err := Analyze(good, at5MHz); return err }, 0},
		{"DecodeAll/5MHz", func() error { _, err := core.DecodeAll(source(2048), 5e6, []float64{target}, 5); return err }, 0},
		{"DecodeAll/2047", func() error {
			_, err := core.DecodeAll(source(2047), phy.SampleRate, []float64{target}, 5)
			return err
		}, 1},
		{"Decoder.Add/2047", func() error { return dec.Add(resized(2047).Antennas[0]) }, 0},
		{"Decoder.Add/4096", func() error { return dec.Add(resized(4096).Antennas[0]) }, 0},
		{"ModulateFrame/8MHz", func() error { _, err := phy.ModulateFrame(&devs[0].Frame, 8e6); return err }, 0},
		{"DemodulateFrame/8MHz", func() error {
			var ds phy.DemodScratch
			_, err := ds.DemodulateFrame(make([]float64, phy.ResponseSamples), 8e6)
			return err
		}, 0},
		{"Reply/8MHz", func() error {
			_, err := devs[0].Reply(p.ReaderLO, 8e6, 0, rand.New(rand.NewSource(1)))
			return err
		}, 0},
		{"Reply/start 1", func() error {
			_, err := devs[0].Reply(p.ReaderLO, phy.SampleRate, 1, rand.New(rand.NewSource(1)))
			return err
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("panicked: %v", v)
				}
			}()
			queries = 0
			if err := tc.run(); err == nil {
				t.Fatal("accepted")
			}
			if queries != tc.queries {
				t.Errorf("%d queries issued, want %d", queries, tc.queries)
			}
			if !reflect.DeepEqual(spikes, want) {
				t.Error("the warmed Scratch's last result changed")
			}
			if _, tryAfter := dec.TryDecode(); dec.N() != 1 || fmt.Sprint(tryAfter) != fmt.Sprint(tryBefore) {
				t.Errorf("the decoder changed: %d captures, TryDecode %v (was %v)", dec.N(), tryAfter, tryBefore)
			}
		})
	}
}
