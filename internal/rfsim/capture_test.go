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
	return reply(env, cfo, phase, amp, pos)
}

// reply is the Transmission a device's Reply returns: env on the wave
// it builds at cfo.
func reply(env []float64, cfo, phase, amp float64, pos geom.Vec3) Transmission {
	return Transmission{Envelope: env, Phase: phase, Amplitude: amp, Pos: pos, Wave: NewWave(env, cfo)}
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
	spec := dsp.NewSpectrum(mc.Antennas[0], phy.SampleRate)
	peaks := dsp.FindPeaks(spec, testPeaks)
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
	want := cmplx.Abs(h) * 0.5 * float64(phy.ResponseSamples)
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

// testPeaks is the sweep these tests find spikes with: threshold 4× the
// median bin, sharpness 4× the local median of the bins 3–10 away.
var testPeaks = dsp.PeakParams{Threshold: 4, Sharpness: 4, SharpRadius: 10}

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
		s0 := dsp.NewSpectrum(mc.Antennas[0], phy.SampleRate)
		s1 := dsp.NewSpectrum(mc.Antennas[1], phy.SampleRate)
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
	spec := dsp.NewSpectrum(mc.Antennas[0], phy.SampleRate)
	peaks := dsp.FindPeaks(spec, testPeaks)
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

// recurrenceCapture is the synthesis as a transmitter runs it: each
// transmission's oscillator stepped once per sample, silent samples
// included, from its phase at sample 0, one transmission and one antenna
// at a time, then the noise of each antenna in order. It is the oracle
// the cached waves must match to rounding.
func recurrenceCapture(cfg CaptureConfig, els []geom.Vec3, txs []Transmission, rng *rand.Rand) [][]complex128 {
	out := make([][]complex128, len(els))
	for a := range out {
		out[a] = make([]complex128, phy.ResponseSamples)
	}
	for _, tx := range txs {
		step := cmplx.Exp(complex(0, 2*math.Pi*tx.Wave.CFO()/phy.SampleRate))
		for a, el := range els {
			h := Channel(tx.Pos, el, cfg.Wavelength, nil) * complex(tx.Amplitude, 0)
			w := cmplx.Exp(complex(0, tx.Phase))
			for s, e := range tx.Envelope {
				if e != 0 {
					out[a][s] += h * complex(e, 0) * w
				}
				w *= step
			}
		}
	}
	if cfg.NoiseSigma > 0 {
		for _, s := range out {
			addNoise(s, cfg.NoiseSigma, rng)
		}
	}
	return out
}

// recurrenceTolerance bounds how far a synthesized sample may sit from
// the recurrence oracle's, relative to the largest sample magnitude of
// its stream: the two differ only in where the rounding of 2048 complex
// multiplies lands.
const recurrenceTolerance = 1e-13

// TestCaptureMatchesRecurrenceOracle: on digestScene every sample a
// capture keeping the reference antenna or the whole array synthesizes
// sits within recurrenceTolerance of the per-sample recurrence's. With
// noise on, the noise is drawn in the oracle's order: the samples still
// agree and the RNG ends where the oracle leaves it.
func TestCaptureMatchesRecurrenceOracle(t *testing.T) {
	cfg, arr, txs := digestScene(t)
	var mc MultiCapture
	for _, sigma := range []float64{0, 1e-5} {
		cfg.NoiseSigma = sigma
		for _, keep := range []int{1, len(arr.Elements)} {
			orng, rng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			want := recurrenceCapture(cfg, arr.Elements[:keep], txs, orng)
			if err := CaptureInto(&mc, keep, cfg, arr, txs, rng); err != nil {
				t.Fatal(err)
			}
			for a, s := range mc.Antennas {
				peak, worst := 0.0, 0.0
				for i, v := range s {
					peak = max(peak, cmplx.Abs(want[a][i]))
					worst = max(worst, cmplx.Abs(v-want[a][i]))
				}
				if worst > recurrenceTolerance*peak {
					t.Errorf("sigma %g keep %d antenna %d: a sample sits %.3g from the recurrence's, %.3g of the stream peak", sigma, keep, a, worst, worst/peak)
				}
				t.Logf("sigma %g keep %d antenna %d: worst |Δ| %.3g of the stream peak", sigma, keep, a, worst/peak)
			}
			if rng.Int63() != orng.Int63() {
				t.Errorf("sigma %g keep %d: the RNG ends elsewhere than after the oracle", sigma, keep)
			}
		}
	}
}

// TestCaptureConfigRefusesNonFinite: a NaN or infinite wavelength or
// noise level is refused when the configuration is validated, not
// discovered later as a capture of NaN samples.
func TestCaptureConfigRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		set  func(*CaptureConfig)
	}{
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
	bad.Wavelength = 0
	if _, err := Capture(bad, arr, nil, rng); err == nil {
		t.Error("zero wavelength accepted")
	}
	cfg := testConfig()
	if _, err := Capture(cfg, Array{}, nil, rng); err == nil {
		t.Error("empty array accepted")
	}
	bare := Transmission{Envelope: make([]float64, phy.ResponseSamples), Amplitude: 1, Pos: geom.V(1, 0, 0)}
	if _, err := Capture(cfg, arr, []Transmission{bare}, rng); err == nil {
		t.Error("a transmission with no wave accepted")
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

// TestNewWavePanicsOnOtherLengths: a wave is one response, as the window
// it is added into is. An envelope or a stream of any other length is a
// caller's bug, and NewWave and AddTo panic on it, as dsp's transforms
// do off 2048 samples.
func TestNewWavePanicsOnOtherLengths(t *testing.T) {
	w := NewWave(make([]float64, phy.ResponseSamples), 1e5)
	for _, n := range []int{0, 701, 4096} {
		for name, entry := range map[string]func(){
			"NewWave": func() { NewWave(make([]float64, n), 1e5) },
			"AddTo":   func() { w.AddTo(make([]complex128, n), 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on %d samples did not panic", name, n)
					}
				}()
				entry()
			}()
		}
	}
}

// TestNewWaveSizedExactly: a wave is three objects — itself, its chip
// starts and its samples — each slice exactly as long as the on-chips
// it holds, so building one never regrows a slice.
func TestNewWaveSizedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	env, err := phy.ModulateFrame(testFrame(rng, 7, 1234), phy.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWave(env, 3e5)
	if len(w.chips) != phy.FrameChips/2 || cap(w.chips) != len(w.chips) {
		t.Errorf("%d chip starts in capacity %d, want %d exactly", len(w.chips), cap(w.chips), phy.FrameChips/2)
	}
	if cap(w.samples) != len(w.chips)*phy.ChipSamples || len(w.samples) != cap(w.samples) {
		t.Errorf("%d samples in capacity %d, want %d exactly", len(w.samples), cap(w.samples), len(w.chips)*phy.ChipSamples)
	}
	if got := testing.AllocsPerRun(20, func() { NewWave(env, 3e5) }); got != 3 {
		t.Errorf("NewWave allocates %.0f objects, want 3", got)
	}
}
