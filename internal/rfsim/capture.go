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
	// Scratch, if non-nil, supplies reusable stage-one buffers (see
	// SynthScratch). Output is bit-identical with or without it; only
	// allocation traffic changes. One scratch serves one Capture call
	// at a time.
	Scratch *SynthScratch
	// Workers sets the synthesis worker-pool size: per-transmission
	// envelope-rotation/channel precomputation and per-antenna
	// accumulation fan out across this many goroutines. ≤ 1 runs
	// serial; the streams are bit-identical for any value because each
	// antenna accumulates its transmissions in index order and noise
	// stays on the calling goroutine.
	Workers int
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
// follows.
//
// Synthesis runs in two stages so cfg.Workers can fan it out without
// changing a single bit of output: stage one computes each
// transmission's oscillator rotation and per-antenna channel
// coefficients into index-addressed slots (iterations independent);
// stage two gives each antenna stream to one worker, which accumulates
// the transmissions in index order — the same float additions in the
// same order as a serial run. Noise consumes the caller's RNG and
// therefore always runs on the calling goroutine, in antenna order.
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
	mc := &MultiCapture{SampleRate: cfg.SampleRate}
	mc.Antennas = make([][]complex128, len(array.Elements))
	for a := range mc.Antennas {
		mc.Antennas[a] = make([]complex128, cfg.NumSamples)
	}

	// Stage one: per-transmission oscillator rotation (common to all
	// antennas) and per-antenna channel coefficients. With a scratch the
	// rows come from its retained buffers; every element is written
	// before stage two reads it, so reuse cannot leak stale state.
	var rots, chans [][]complex128
	if sc := cfg.Scratch; sc != nil {
		sc.rots = growRows(sc.rots, len(txs))
		sc.chans = growRows(sc.chans, len(txs))
		rots, chans = sc.rots, sc.chans
	} else {
		rots = make([][]complex128, len(txs))
		chans = make([][]complex128, len(txs)) // chans[i][a] = h_{a,i} · A_i
	}
	parallelFor(len(txs), cfg.Workers, func(i int) {
		tx := &txs[i]
		rot := growRow(rots, i, len(tx.Envelope))
		step := cmplx.Exp(complex(0, 2*math.Pi*tx.CFO/cfg.SampleRate))
		w := cmplx.Exp(complex(0, tx.Phase))
		// Advance to the start sample so CFO phase is continuous in
		// capture time, not envelope time.
		w *= cmplx.Exp(complex(0, 2*math.Pi*tx.CFO/cfg.SampleRate*float64(tx.StartSample)))
		for s := range tx.Envelope {
			rot[s] = w
			w *= step
		}
		rots[i] = rot
		hs := growRow(chans, i, len(array.Elements))
		for a, el := range array.Elements {
			hs[a] = Channel(tx.Pos, el, cfg.Wavelength, cfg.Reflectors) * complex(tx.Amplitude, 0)
		}
		chans[i] = hs
	})

	// Stage two: per-antenna accumulation, transmissions in index order.
	parallelFor(len(mc.Antennas), cfg.Workers, func(a int) {
		dst := mc.Antennas[a]
		for i := range txs {
			tx := &txs[i]
			h := chans[i][a]
			rot := rots[i]
			env := tx.Envelope
			// Hoist the capture-window clip out of the sample loop.
			n := len(env)
			if tx.StartSample+n > cfg.NumSamples {
				n = cfg.NumSamples - tx.StartSample
			}
			for s := 0; s < n; s++ {
				switch e := env[s]; e {
				case 0:
				case 1:
					// OOK chips are 0/1; multiplying h by complex(1, 0)
					// is exact in IEEE arithmetic, so skipping it keeps
					// the stream bit-identical while dropping a complex
					// multiply from the hottest loop in the simulator.
					dst[tx.StartSample+s] += h * rot[s]
				default:
					dst[tx.StartSample+s] += h * complex(e, 0) * rot[s]
				}
			}
		}
	})

	if cfg.NoiseSigma > 0 {
		for a := range mc.Antennas {
			addNoise(mc.Antennas[a], cfg.NoiseSigma, rng)
		}
	}
	return mc, nil
}

func addNoise(dst []complex128, sigma float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}
