package core

import (
	"math/rand"
	"reflect"
	"testing"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
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
			SampleRate: param.SampleRate,
			NumSamples: phy.SamplesPerResponse(param.SampleRate),
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

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.SampleRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sample rate accepted")
	}
	bad = DefaultParams()
	bad.Wavelength = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative wavelength accepted")
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
	mc := &rfsim.MultiCapture{Antennas: [][]complex128{nil}}
	if _, err := AnalyzeCapture(mc, p); err == nil {
		t.Error("zero-length stream accepted")
	}
}
