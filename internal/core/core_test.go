package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/rfsim"
	"caraoke/internal/transponder"
)

// testScene bundles the fixtures most core tests need: a reader array
// on a pole and a way to synthesize collision captures from devices.
type testScene struct {
	t     testing.TB
	cfg   rfsim.CaptureConfig
	arr   rfsim.Array
	rng   *rand.Rand
	param Params
}

func newTestScene(t testing.TB, seed int64) *testScene {
	t.Helper()
	param := DefaultParams()
	arr, err := rfsim.TriangleOnPole(geom.V(0, -5, 0), 3.8, geom.V(1, 0, 0), 60, param.Wavelength/2)
	if err != nil {
		t.Fatal(err)
	}
	return &testScene{
		t: t,
		cfg: rfsim.CaptureConfig{
			Wavelength: param.Wavelength,
			NoiseSigma: 2e-6,
		},
		arr:   arr,
		rng:   rand.New(rand.NewSource(seed)),
		param: param,
	}
}

// placedDevices creates n random transponders at distinct positions in
// front of the pole.
func (s *testScene) placedDevices(n int) []*transponder.Device {
	devs := transponder.NewPopulation(transponder.DefaultPopulationParams(), n, 1000, s.rng)
	for _, d := range devs {
		d.Pos = geom.V(8+s.rng.Float64()*20, -4+s.rng.Float64()*8, 0)
	}
	return devs
}

// collide synthesizes one collision capture: every device replies
// simultaneously (no MAC), as after a reader query.
func (s *testScene) collide(devs []*transponder.Device) *rfsim.MultiCapture {
	s.t.Helper()
	txs := make([]rfsim.Transmission, 0, len(devs))
	for _, d := range devs {
		tx, err := d.Reply(s.param.ReaderLO, s.param.SampleRate, 0, s.rng)
		if err != nil {
			s.t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	mc, err := rfsim.Capture(s.cfg, s.arr, txs, s.rng)
	if err != nil {
		s.t.Fatal(err)
	}
	return mc
}

// TestParamsValidate: the default front end passes; any other sample
// rate, a non-finite LO, and a wavelength that is not finite and
// positive are refused.
func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Params)
	}{
		{"zero sample rate", func(p *Params) { p.SampleRate = 0 }},
		{"8 MHz", func(p *Params) { p.SampleRate = 8e6 }},
		{"NaN sample rate", func(p *Params) { p.SampleRate = nan }},
		{"negative wavelength", func(p *Params) { p.Wavelength = -1 }},
		{"zero wavelength", func(p *Params) { p.Wavelength = 0 }},
		{"NaN wavelength", func(p *Params) { p.Wavelength = nan }},
		{"+Inf wavelength", func(p *Params) { p.Wavelength = inf }},
		{"-Inf wavelength", func(p *Params) { p.Wavelength = -inf }},
		{"NaN LO", func(p *Params) { p.ReaderLO = nan }},
		{"+Inf LO", func(p *Params) { p.ReaderLO = inf }},
		{"-Inf LO", func(p *Params) { p.ReaderLO = -inf }},
	} {
		bad := DefaultParams()
		tc.edit(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestParamsSurface pins Params to the three physical values callers
// read. A detection threshold is a constant (params.go), not a field:
// no caller ever set one.
func TestParamsSurface(t *testing.T) {
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Params{})) {
		got = append(got, f.Name)
	}
	if want := []string{"SampleRate", "ReaderLO", "Wavelength"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Params fields = %v, want exactly %v", got, want)
	}
}

func TestAnalyzeCaptureErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := AnalyzeCapture(nil, p); err == nil {
		t.Error("nil capture accepted")
	}
	if _, err := AnalyzeCapture(&rfsim.MultiCapture{}, p); err == nil {
		t.Error("empty capture accepted")
	}
	for _, n := range []int{0, 1024, 2047, 2049, 4096} {
		mc := &rfsim.MultiCapture{Antennas: [][]complex128{make([]complex128, n)}}
		if _, err := AnalyzeCapture(mc, p); err == nil {
			t.Errorf("%d-sample stream accepted", n)
		}
	}
}
