package rfsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"caraoke/internal/geom"
)

// Transmission is one transponder's reply as it leaves the device: an
// OOK envelope at the scene sample rate, carried at CFO Hz above the
// reader's local oscillator, with the oscillator's random starting
// phase (the reason per-query channels look independent to the decoder,
// §8) and an amplitude set by the device's transmit power.
type Transmission struct {
	Envelope    []float64 // 0/1 OOK chips expanded to samples
	CFO         float64   // Hz above reader LO
	Phase       float64   // oscillator phase at capture sample 0, radians
	Amplitude   float64   // transmit amplitude (sqrt of power), linear
	Pos         geom.Vec3 // transponder position
	StartSample int       // sample index where the envelope begins
}

// CaptureConfig describes the reader's receive front end for one
// capture window.
type CaptureConfig struct {
	SampleRate float64 // complex samples per second (4 MHz prototype)
	NumSamples int     // capture window length (2048 at 4 MHz/512 µs)
	Wavelength float64 // carrier wavelength for geometric phase
	NoiseSigma float64 // per-component AWGN sigma, linear
	Reflectors []Reflector
}

// Validate checks the configuration.
func (c *CaptureConfig) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("rfsim: sample rate %g must be positive", c.SampleRate)
	}
	if c.NumSamples <= 0 {
		return fmt.Errorf("rfsim: capture length %d must be positive", c.NumSamples)
	}
	if c.Wavelength <= 0 {
		return fmt.Errorf("rfsim: wavelength %g must be positive", c.Wavelength)
	}
	if c.NoiseSigma < 0 {
		return fmt.Errorf("rfsim: noise sigma %g must be non-negative", c.NoiseSigma)
	}
	return nil
}

// MultiCapture is the result of one receive window: per-antenna complex
// baseband streams, sampled simultaneously (the prototype's RF chains
// share one clock, §11, so there is no inter-antenna CFO).
type MultiCapture struct {
	SampleRate float64
	Antennas   [][]complex128
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
// given transmissions are on the air. For transmission i and antenna a:
//
//	r_a(t) += h_{a,i} · A_i · env_i(t−t0_i) · e^{j(2π·CFO_i·t + φ_i)}
//
// with h the geometric channel (free-space plus reflectors). AWGN
// follows, drawn from the caller's RNG in antenna order.
//
// Synthesis is one pass: each transmission's oscillator runs once, as a
// running value, and every antenna takes its sample from it. A sample
// of a stream is the sum of its transmissions added in index order, so
// the pass order fixes every bit of the output.
func Capture(cfg CaptureConfig, array Array, txs []Transmission, rng *rand.Rand) (*MultiCapture, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(array.Elements) == 0 {
		return nil, fmt.Errorf("rfsim: array has no elements")
	}
	for i := range txs {
		if txs[i].StartSample < 0 {
			return nil, fmt.Errorf("rfsim: transmission %d starts at negative sample %d", i, txs[i].StartSample)
		}
	}
	// The streams are cut from one backing array, antenna a at
	// buf[a*n:(a+1)*n]; the full-slice form keeps an append to one
	// stream out of its neighbour.
	n := cfg.NumSamples
	buf := make([]complex128, len(array.Elements)*n)
	mc := &MultiCapture{SampleRate: cfg.SampleRate}
	mc.Antennas = make([][]complex128, len(array.Elements))
	for a := range mc.Antennas {
		mc.Antennas[a] = buf[a*n : (a+1)*n : (a+1)*n]
	}

	hs := make([]complex128, len(array.Elements)) // hs[a] = h_{a,i} · A_i
	for i := range txs {
		tx := &txs[i]
		// Clip the envelope to the capture window before slicing: a
		// transmission may start at or beyond the window's end.
		if tx.StartSample >= n {
			continue
		}
		env := tx.Envelope
		if len(env) > n-tx.StartSample {
			env = env[:n-tx.StartSample]
		}
		for a, el := range array.Elements {
			hs[a] = Channel(tx.Pos, el, cfg.Wavelength, cfg.Reflectors) * complex(tx.Amplitude, 0)
		}
		turn := 2 * math.Pi * tx.CFO / cfg.SampleRate // radians per sample
		w := cmplx.Exp(complex(0, tx.Phase))
		// Advance to the start sample so CFO phase is continuous in
		// capture time, not envelope time.
		w *= cmplx.Exp(complex(0, turn*float64(tx.StartSample)))
		addTone(buf[tx.StartSample:], n, env, hs, w, cmplx.Exp(complex(0, turn)))
	}

	if cfg.NoiseSigma > 0 {
		for a := range mc.Antennas {
			addNoise(mc.Antennas[a], cfg.NoiseSigma, rng)
		}
	}
	return mc, nil
}

// addTone walks one transmission's clipped envelope with its oscillator
// as a running value — w at the first sample, multiplied by step after
// every sample, silent chips included — and adds hs[a]·env[s]·w into
// antenna a's stream at dst[a*stride+s] for every non-zero chip.
func addTone(dst []complex128, stride int, env []float64, hs []complex128, w, step complex128) {
	for s, e := range env {
		switch e {
		case 0:
		case 1:
			// OOK chips are 0/1; multiplying h by complex(1, 0) is
			// exact in IEEE arithmetic, so skipping it changes no bit
			// and drops a complex multiply per antenna from the hottest
			// loop in the simulator.
			at := s
			for _, h := range hs {
				dst[at] += h * w
				at += stride
			}
		default:
			at := s
			for _, h := range hs {
				dst[at] += h * complex(e, 0) * w
				at += stride
			}
		}
		w *= step
	}
}

func addNoise(dst []complex128, sigma float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}
