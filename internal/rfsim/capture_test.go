package rfsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"caraoke/internal/dsp"
	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

func testConfig() CaptureConfig {
	return CaptureConfig{
		SampleRate: 4e6,
		NumSamples: 2048,
		Wavelength: geom.Wavelength(915e6),
		NoiseSigma: 0,
	}
}

// testFrame builds a frame with realistic (non-degenerate) payload
// content. A frame whose factory/reserved fields are all zero Manchester-
// encodes to a long 0101… chip run — a strong 500 kHz clock line that
// would add spurious spectral peaks. Real transponders carry dense
// factory data, which keeps that line at the noise level.
func testFrame(rng *rand.Rand, agency uint16, serial uint64) *phy.Frame {
	return &phy.Frame{
		Programmable: rng.Uint64() & (1<<phy.ProgrammableBits - 1),
		Agency:       agency,
		Serial:       serial,
		Factory:      rng.Uint64(),
		Reserved:     rng.Uint64() & (1<<phy.ReservedBits - 1),
	}
}

// frameTransmission builds a Transmission carrying a real frame.
func frameTransmission(t *testing.T, f *phy.Frame, cfo, phase, amp float64, pos geom.Vec3) Transmission {
	t.Helper()
	env, err := phy.ModulateFrame(f, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	return Transmission{
		Envelope:  env,
		CFO:       cfo,
		Phase:     phase,
		Amplitude: amp,
		Pos:       pos,
	}
}

func TestCaptureSpikeAtCFO(t *testing.T) {
	cfg := testConfig()
	arr := NewPairArray(geom.V(0, 0, 4), geom.V(1, 0, 0), cfg.Wavelength/2)
	rng := rand.New(rand.NewSource(1))
	f := testFrame(rng, 7, 99)
	// Bin-centered CFO (bin 205 of 2048 at 4 MHz) so the spike suffers
	// no scalloping loss and its magnitude can be checked exactly.
	cfo := 205 * 4e6 / 2048
	tx := frameTransmission(t, f, cfo, 1.1, 1.0, geom.V(10, 5, 0))
	mc, err := Capture(cfg, arr, []Transmission{tx}, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := dsp.NewSpectrum(mc.Antennas[0], cfg.SampleRate)
	peaks := dsp.FindPeaks(spec, dsp.DefaultPeakParams())
	if len(peaks) == 0 {
		t.Fatal("no peaks found")
	}
	top := strongestPeak(peaks)
	if math.Abs(top.Freq-cfo) > spec.BinWidth() {
		t.Errorf("strongest peak at %g Hz, want %g", top.Freq, cfo)
	}
	// §3: the spike value is h/2 × capture length (Manchester gives the
	// envelope a 0.5 mean).
	h := Channel(tx.Pos, arr.Elements[0], cfg.Wavelength, nil) *
		cmplx.Exp(complex(0, tx.Phase)) * complex(tx.Amplitude, 0)
	want := cmplx.Abs(h) * 0.5 * float64(cfg.NumSamples)
	if math.Abs(top.Mag-want) > 0.05*want {
		t.Errorf("spike magnitude %g, want ≈%g", top.Mag, want)
	}
	// The carrier spike must dominate everything else (data humps,
	// Manchester clock images) by a wide margin.
	for _, pk := range peaks {
		if pk.Bin != top.Bin && pk.Mag > 0.5*top.Mag {
			t.Errorf("secondary peak at %g Hz within 6 dB of the spike", pk.Freq)
		}
	}
}

func strongestPeak(peaks []dsp.Peak) dsp.Peak {
	top := peaks[0]
	for _, p := range peaks[1:] {
		if p.Mag > top.Mag {
			top = p
		}
	}
	return top
}

func TestCaptureInterAntennaPhaseRecoversAoA(t *testing.T) {
	// End-to-end physics: modulated frame, CFO, random phase — the
	// spike-phase difference across the pair must still give the true
	// spatial angle (§6).
	cfg := testConfig()
	cfg.NoiseSigma = 1e-6
	lambda := cfg.Wavelength
	center := geom.V(0, 0, 4)
	arr := NewPairArray(center, geom.V(1, 0, 0), lambda/2)
	rng := rand.New(rand.NewSource(7))
	for _, deg := range []float64{45, 70, 90, 120} {
		alpha := geom.Radians(deg)
		pos := center.Add(geom.V(math.Cos(alpha)*25, math.Sin(alpha)*25, 0))
		f := testFrame(rng, 1, 2)
		tx := frameTransmission(t, f, 617e3, rng.Float64()*6.28, 1, pos)
		mc, err := Capture(cfg, arr, []Transmission{tx}, rng)
		if err != nil {
			t.Fatal(err)
		}
		s0 := dsp.NewSpectrum(mc.Antennas[0], cfg.SampleRate)
		s1 := dsp.NewSpectrum(mc.Antennas[1], cfg.SampleRate)
		k := s0.FreqBin(617e3)
		dphi := geom.WrapPhase(cmplx.Phase(s1.Bins[k] / s0.Bins[k]))
		got, _ := geom.AoAFromPhase(dphi, lambda/2, lambda)
		if math.Abs(geom.Degrees(got)-deg) > 1.5 {
			t.Errorf("angle %g°: recovered %.2f°", deg, geom.Degrees(got))
		}
	}
}

func TestCaptureCollisionHasOneSpikePerTransponder(t *testing.T) {
	cfg := testConfig()
	cfg.NoiseSigma = 1e-7
	arr := NewPairArray(geom.V(0, 0, 4), geom.V(1, 0, 0), cfg.Wavelength/2)
	rng := rand.New(rand.NewSource(8))
	cfos := []float64{150e3, 430e3, 700e3, 990e3, 1.15e6}
	var txs []Transmission
	for i, cfo := range cfos {
		f := testFrame(rng, uint16(i+1), uint64(1000+i))
		txs = append(txs, frameTransmission(t, f, cfo, rng.Float64()*6.28, 1,
			geom.V(5+float64(i)*3, -4+float64(i)*2, 0)))
	}
	mc, err := Capture(cfg, arr, txs, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := dsp.NewSpectrum(mc.Antennas[0], cfg.SampleRate)
	peaks := dsp.FindPeaks(spec, dsp.DefaultPeakParams())
	if len(peaks) < len(cfos) {
		t.Fatalf("found %d peaks, want at least %d (Fig 4)", len(peaks), len(cfos))
	}
	// The five strongest peaks must sit at the five CFOs.
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].Mag > peaks[j].Mag })
	top := peaks[:len(cfos)]
	sort.Slice(top, func(i, j int) bool { return top[i].Freq < top[j].Freq })
	for i, p := range top {
		if math.Abs(p.Freq-cfos[i]) > spec.BinWidth() {
			t.Errorf("peak %d at %g Hz, want %g", i, p.Freq, cfos[i])
		}
	}
}

func TestCaptureStartSampleShiftsEnvelope(t *testing.T) {
	cfg := testConfig()
	cfg.NumSamples = 4096
	arr := NewPairArray(geom.V(0, 0, 4), geom.V(1, 0, 0), cfg.Wavelength/2)
	rng := rand.New(rand.NewSource(9))
	f := testFrame(rng, 3, 4)
	tx := frameTransmission(t, f, 300e3, 0, 1, geom.V(10, 0, 0))
	tx.StartSample = 1000
	mc, err := Capture(cfg, arr, []Transmission{tx}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if mc.Antennas[0][i] != 0 {
			t.Fatalf("sample %d nonzero before transmission start", i)
		}
	}
	var energy float64
	for _, s := range mc.Antennas[0][1000:] {
		energy += real(s)*real(s) + imag(s)*imag(s)
	}
	if energy == 0 {
		t.Error("no energy after transmission start")
	}
}

// serialCapture is the synthesis pass one transmission and one antenna
// at a time, each sweep running the oscillator from the start: the
// oracle the paired pass must equal bit for bit.
func serialCapture(cfg CaptureConfig, arr Array, txs []Transmission) [][]complex128 {
	n := cfg.NumSamples
	out := make([][]complex128, len(arr.Elements))
	for a := range out {
		out[a] = make([]complex128, n)
	}
	for _, tx := range txs {
		if tx.StartSample >= n {
			continue
		}
		env := tx.Envelope
		if len(env) > n-tx.StartSample {
			env = env[:n-tx.StartSample]
		}
		turn := 2 * math.Pi * tx.CFO / cfg.SampleRate
		w0 := cmplx.Exp(complex(0, tx.Phase)) * cmplx.Exp(complex(0, turn*float64(tx.StartSample)))
		step := cmplx.Exp(complex(0, turn))
		for a, el := range arr.Elements {
			h := Channel(tx.Pos, el, cfg.Wavelength, cfg.Reflectors) * complex(tx.Amplitude, 0)
			w := w0
			for s, e := range env {
				switch e {
				case 0:
				case 1:
					out[a][tx.StartSample+s] += h * w
				default:
					out[a][tx.StartSample+s] += h * complex(e, 0) * w
				}
				w *= step
			}
		}
	}
	return out
}

// TestPairedPassMatchesSerialOracle: the pass adds transmissions two at
// a time, splitting each pair into the samples only one of them reaches
// and the samples both do. Every way two envelopes can lie against each
// other — nested either way, touching, starting together, clipped to one
// sample — and a transmission left without a partner must give the
// serial oracle's bits, on all antennas and on the reference alone.
func TestPairedPassMatchesSerialOracle(t *testing.T) {
	cfg, arr, txs := triangleScene(t, 31, 9)
	n := cfg.NumSamples
	shapes := []struct{ start, length int }{
		{0, n}, {100, 300}, // the second inside the first
		{500, 200}, {40, 1500}, // the first inside the second
		{0, 700}, {700, 900}, // touching: no sample hears both
		{300, 1000}, {300, 1200}, // starting together
		{n - 1, 40}, // alone, clipped to one sample
	}
	for i, sh := range shapes {
		frame := txs[i].Envelope
		env := make([]float64, sh.length)
		for s := range env {
			env[s] = frame[s%len(frame)]
			if i == 3 { // the fractional arm, inside a pair
				env[s] *= 0.5 - 0.5*math.Cos(2*math.Pi*float64(s)/float64(len(env)))
			}
		}
		txs[i].Envelope, txs[i].StartSample = env, sh.start
	}
	want := serialCapture(cfg, arr, txs)
	rng := rand.New(rand.NewSource(1))
	full, err := Capture(cfg, arr, txs, rng)
	if err != nil {
		t.Fatal(err)
	}
	var ref MultiCapture
	if err := CaptureInto(&ref, 1, cfg, arr, txs, rng); err != nil {
		t.Fatal(err)
	}
	for _, mc := range []*MultiCapture{full, &ref} {
		for a, s := range mc.Antennas {
			for i, v := range s {
				if !sameBits(v, want[a][i]) {
					t.Fatalf("%d antennas kept: antenna %d sample %d is %v, the serial oracle's %v", len(mc.Antennas), a, i, v, want[a][i])
				}
			}
		}
	}
}

// TestCaptureConfigRefusesNonFinite: a NaN or infinite rate, wavelength
// or noise level is refused when the configuration is validated, not
// discovered later as a capture of NaN samples.
func TestCaptureConfigRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		set  func(*CaptureConfig)
	}{
		{"SampleRate NaN", func(c *CaptureConfig) { c.SampleRate = nan }},
		{"SampleRate +Inf", func(c *CaptureConfig) { c.SampleRate = inf }},
		{"SampleRate -Inf", func(c *CaptureConfig) { c.SampleRate = -inf }},
		{"Wavelength NaN", func(c *CaptureConfig) { c.Wavelength = nan }},
		{"Wavelength +Inf", func(c *CaptureConfig) { c.Wavelength = inf }},
		{"NoiseSigma NaN", func(c *CaptureConfig) { c.NoiseSigma = nan }},
		{"NoiseSigma +Inf", func(c *CaptureConfig) { c.NoiseSigma = inf }},
		{"NoiseSigma -Inf", func(c *CaptureConfig) { c.NoiseSigma = -inf }},
	} {
		cfg := testConfig()
		tc.set(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if cfg := testConfig(); cfg.Validate() != nil {
		t.Errorf("the test configuration is refused: %v", cfg.Validate())
	}
}

func TestCaptureRejectsBadInput(t *testing.T) {
	arr := NewPairArray(geom.V(0, 0, 4), geom.V(1, 0, 0), 0.16)
	rng := rand.New(rand.NewSource(10))
	bad := testConfig()
	bad.SampleRate = 0
	if _, err := Capture(bad, arr, nil, rng); err == nil {
		t.Error("zero sample rate accepted")
	}
	cfg := testConfig()
	if _, err := Capture(cfg, Array{}, nil, rng); err == nil {
		t.Error("empty array accepted")
	}
	tx := Transmission{Envelope: []float64{1}, StartSample: -1, Amplitude: 1, Pos: geom.V(1, 0, 0)}
	if _, err := Capture(cfg, arr, []Transmission{tx}, rng); err == nil {
		t.Error("negative start sample accepted")
	}
	negNoise := testConfig()
	negNoise.NoiseSigma = -1
	if _, err := Capture(negNoise, arr, nil, rng); err == nil {
		t.Error("negative noise accepted")
	}
	var mc MultiCapture
	for _, keep := range []int{0, len(arr.Elements) + 1} {
		if err := CaptureInto(&mc, keep, cfg, arr, nil, rng); err == nil {
			t.Errorf("keeping %d of %d antennas accepted", keep, len(arr.Elements))
		}
	}
}
