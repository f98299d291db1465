package rfsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
)

// Transmission is one transponder's reply as it leaves the device: its
// whole frame from the first sample of the capture window (a reply
// follows the query after a fixed turnaround, §3), with the oscillator's
// random starting phase (the reason per-query channels look independent
// to the decoder, §8) and an amplitude set by the device's transmit
// power. Wave is the envelope on the device's carrier offset as the
// synthesis reads it, NewWave(Envelope, cfo), and the one place the CFO
// is kept: the device builds it once and every reply carries the same
// one. Envelope is what the reply sent, for callers that score against it.
type Transmission struct {
	Envelope  []float64 // 0/1 OOK chips expanded to samples, one response
	Phase     float64   // oscillator phase at capture sample 0, radians
	Amplitude float64   // transmit amplitude (sqrt of power), linear
	Pos       geom.Vec3 // transponder position
	Wave      *Wave     // Envelope on its CFO carrier, at zero phase
}

// Wave is a reply's baseband waveform at zero oscillator phase,
//
//	x(u) = env(u) · e^{j2π·CFO·u/fs},
//
// kept as the chips of phy.ChipSamples samples in which the envelope is
// on anywhere (a Manchester frame is on in exactly half its chips, and
// off in the rest). It is immutable once built, so copies of a device,
// and the goroutines that hold them, share one.
type Wave struct {
	cfo     float64
	chips   []int        // first sample of each kept chip, ascending
	samples []complex128 // x over the kept chips, phy.ChipSamples each
}

// NewWave builds the waveform of env carried at cfo Hz. It steps the
// oscillator once per envelope sample from e^{j0}, silent samples
// included, as a transmitter's would run. env is one response,
// phy.ResponseSamples long; any other length is a caller's bug and
// panics.
func NewWave(env []float64, cfo float64) *Wave {
	if len(env) != phy.ResponseSamples {
		panic(fmt.Sprintf("rfsim: a wave of %d samples, want %d", len(env), phy.ResponseSamples))
	}
	const cs = phy.ChipSamples
	on := 0
	for at := 0; at < len(env); at += cs {
		if chipOn(env[at : at+cs]) {
			on++
		}
	}
	w := &Wave{cfo: cfo, chips: make([]int, 0, on), samples: make([]complex128, 0, on*cs)}
	step := cmplx.Exp(complex(0, 2*math.Pi*cfo/phy.SampleRate))
	osc := complex(1, 0)
	for at := 0; at < len(env); at += cs {
		var x [cs]complex128
		for u, e := range env[at : at+cs] {
			if e != 0 { // e·osc is exact for a unit sample
				x[u] = complex(e*real(osc), e*imag(osc))
			}
			osc *= step
		}
		if chipOn(env[at : at+cs]) {
			w.chips = append(w.chips, at)
			w.samples = append(w.samples, x[:]...)
		}
	}
	return w
}

// chipOn reports whether the envelope is on anywhere in chip.
func chipOn(chip []float64) bool {
	for _, e := range chip {
		if e != 0 {
			return true
		}
	}
	return false
}

// CFO returns the carrier offset the wave was built at, Hz.
func (w *Wave) CFO() float64 { return w.cfo }

// AddTo adds c·x into dst, a window of one response whose first sample
// is the wave's, one kept chip at a time. It is the one synthesis
// kernel: a capture adds each reply through it, and successive
// interference cancellation subtracts a decoded one (c = −ĥ). A dst off
// phy.ResponseSamples is a caller's bug and panics.
func (w *Wave) AddTo(dst []complex128, c complex128) {
	if len(dst) != phy.ResponseSamples {
		panic(fmt.Sprintf("rfsim: a stream of %d samples, want %d", len(dst), phy.ResponseSamples))
	}
	const cs = phy.ChipSamples
	x := w.samples
	for _, at := range w.chips {
		d, x4 := dst[at:at+cs:at+cs], x[:cs:cs]
		d[0] += c * x4[0]
		d[1] += c * x4[1]
		d[2] += c * x4[2]
		d[3] += c * x4[3]
		x = x[cs:]
	}
}

// CaptureConfig describes the reader's receive front end for one
// capture window. The window itself is fixed: one response,
// phy.ResponseSamples long at phy.SampleRate.
type CaptureConfig struct {
	Wavelength float64 // carrier wavelength for geometric phase
	NoiseSigma float64 // per-component AWGN sigma, linear
}

// Validate checks the configuration. A NaN or infinite value is
// refused here: every sample synthesized from it would be NaN.
func (c *CaptureConfig) Validate() error {
	if !finite(c.Wavelength) || c.Wavelength <= 0 {
		return fmt.Errorf("rfsim: wavelength %g must be positive and finite", c.Wavelength)
	}
	if !finite(c.NoiseSigma) || c.NoiseSigma < 0 {
		return fmt.Errorf("rfsim: noise sigma %g must be non-negative and finite", c.NoiseSigma)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MultiCapture is the result of one receive window: per-antenna complex
// baseband streams, sampled simultaneously (the prototype's RF chains
// share one clock, §11, so there is no inter-antenna CFO).
type MultiCapture struct {
	Antennas [][]complex128
	// flat is the backing CaptureInto cut the streams from, antenna a
	// at [a·n, (a+1)·n), kept so a later call can reuse it.
	flat []complex128
}

// Reference returns the reference-antenna stream (element 0) — the one
// the counting and collision-decoding pipelines analyze. It returns nil
// for a capture with no antennas.
func (mc *MultiCapture) Reference() []complex128 {
	if len(mc.Antennas) == 0 {
		return nil
	}
	return mc.Antennas[0]
}

// Capture synthesizes the baseband streams an array digitizes while the
// given transmissions are on the air, every antenna of the array into
// fresh streams the caller owns. It is CaptureInto on a new MultiCapture.
func Capture(cfg CaptureConfig, array Array, txs []Transmission, rng *rand.Rand) (*MultiCapture, error) {
	mc := new(MultiCapture)
	if err := CaptureInto(mc, len(array.Elements), cfg, array, txs, rng); err != nil {
		return nil, err
	}
	return mc, nil
}

// CaptureInto synthesizes antennas [0, keep) of the array into mc. For
// transmission i and antenna a:
//
//	r_a(t) += h_{a,i} · A_i · e^{jφ_i} · x_i(t)
//
// with h the free-space channel and x_i the transmission's Wave: one
// complex coefficient per antenna scales the waveform the device built
// once. AWGN follows, drawn from the caller's RNG in antenna order for
// the kept antennas alone: the streams and the RNG's end state are
// bit-equal to Capture on an array of the first keep elements, so a
// caller that needs only the reference antenna (keep = 1) pays for one
// stream's synthesis and one stream's noise.
//
// The streams are cut from one backing array that mc keeps: a later
// call reuses it when it is large enough, clearing it before the pass,
// and otherwise replaces it with a fresh, zero one. Streams taken from
// mc earlier are overwritten; nothing else in mc is read.
//
// A sample of a stream is the sum of its transmissions added in index
// order, so that order fixes every bit of the output.
func CaptureInto(mc *MultiCapture, keep int, cfg CaptureConfig, array Array, txs []Transmission, rng *rand.Rand) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(array.Elements) == 0 {
		return fmt.Errorf("rfsim: array has no elements")
	}
	if keep < 1 || keep > len(array.Elements) {
		return fmt.Errorf("rfsim: keep %d antennas of %d", keep, len(array.Elements))
	}
	for i := range txs {
		if txs[i].Wave == nil {
			return fmt.Errorf("rfsim: transmission %d carries no wave", i)
		}
	}
	mc.cut(keep)
	for i := range txs {
		tx := &txs[i]
		w0 := cmplx.Exp(complex(0, tx.Phase))
		for a, el := range array.Elements[:keep] {
			c := Channel(tx.Pos, el, cfg.Wavelength, nil) * complex(tx.Amplitude, 0) * w0
			tx.Wave.AddTo(mc.Antennas[a], c)
		}
	}

	if cfg.NoiseSigma > 0 {
		for _, s := range mc.Antennas {
			addNoise(s, cfg.NoiseSigma, rng)
		}
	}
	return nil
}

// cut shapes mc as keep cleared streams of one response each. The
// full-slice form keeps an append to one stream out of its neighbour.
func (mc *MultiCapture) cut(keep int) {
	const n = phy.ResponseSamples
	if cap(mc.flat) < keep*n {
		mc.flat = make([]complex128, keep*n) // already zero
	} else {
		mc.flat = mc.flat[:keep*n]
		clear(mc.flat)
	}
	if cap(mc.Antennas) < keep {
		mc.Antennas = make([][]complex128, keep)
	}
	mc.Antennas = mc.Antennas[:keep]
	for a := range mc.Antennas {
		mc.Antennas[a] = mc.flat[a*n : (a+1)*n : (a+1)*n]
	}
}

func addNoise(dst []complex128, sigma float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}
