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

// Validate checks the configuration. A NaN or infinite value is
// refused here: every sample synthesized from it would be NaN.
func (c *CaptureConfig) Validate() error {
	if !finite(c.SampleRate) || c.SampleRate <= 0 {
		return fmt.Errorf("rfsim: sample rate %g must be positive and finite", c.SampleRate)
	}
	if c.NumSamples <= 0 {
		return fmt.Errorf("rfsim: capture length %d must be positive", c.NumSamples)
	}
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
	SampleRate float64
	Antennas   [][]complex128
	// flat is the backing CaptureInto cut the streams from, antenna a
	// at [a·n, (a+1)·n): the synthesis pass writes it with a stride.
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
//	r_a(t) += h_{a,i} · A_i · env_i(t−t0_i) · e^{j(2π·CFO_i·t + φ_i)}
//
// with h the geometric channel (free-space plus reflectors). AWGN
// follows, drawn from the caller's RNG in antenna order for the kept
// antennas alone: the streams and the RNG's end state are bit-equal to
// Capture on an array of the first keep elements, so a caller that needs
// only the reference antenna (keep = 1) pays for one stream's synthesis
// and one stream's noise.
//
// The streams are cut from one backing array that mc keeps: a later
// call reuses it when it is large enough and grows it otherwise, and
// clears it before the pass. Streams taken from mc earlier are
// overwritten; nothing else in mc is read.
//
// Synthesis is one pass over the transmissions, two at a time (see
// addPair). A sample of a stream is the sum of its transmissions added
// in index order, so the pass order fixes every bit of the output.
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
		if txs[i].StartSample < 0 {
			return fmt.Errorf("rfsim: transmission %d starts at negative sample %d", i, txs[i].StartSample)
		}
	}
	n := cfg.NumSamples
	mc.SampleRate = cfg.SampleRate
	dst := mc.cut(keep, n)

	// The channel rows of the pair in flight, hs[a] = h_{a,i} · A_i for
	// each kept antenna: on the stack for arrays of up to four elements.
	var stack [2][4]complex128
	var row [2][]complex128
	for k := range row {
		if keep <= len(stack[k]) {
			row[k] = stack[k][:keep]
		} else {
			row[k] = make([]complex128, keep)
		}
	}
	var pair [2]tone
	k := 0 // transmissions waiting in pair
	for i := range txs {
		tx := &txs[i]
		// A transmission starting at or beyond the window's end adds
		// nothing.
		if tx.StartSample >= n {
			continue
		}
		pair[k] = makeTone(tx, cfg, array.Elements[:keep], row[k])
		if k++; k == 2 {
			addPair(dst, n, &pair[0], &pair[1])
			k = 0
		}
	}
	if k == 1 {
		addPair(dst, n, &pair[0], &tone{})
	}

	if cfg.NoiseSigma > 0 {
		for _, s := range mc.Antennas {
			addNoise(s, cfg.NoiseSigma, rng)
		}
	}
	return nil
}

// cut shapes mc as keep cleared streams of n samples and returns their
// backing. The full-slice form keeps an append to one stream out of its
// neighbour.
func (mc *MultiCapture) cut(keep, n int) []complex128 {
	if cap(mc.flat) < keep*n {
		mc.flat = make([]complex128, keep*n)
	}
	mc.flat = mc.flat[:keep*n]
	clear(mc.flat)
	if cap(mc.Antennas) < keep {
		mc.Antennas = make([][]complex128, keep)
	}
	mc.Antennas = mc.Antennas[:keep]
	for a := range mc.Antennas {
		mc.Antennas[a] = mc.flat[a*n : (a+1)*n : (a+1)*n]
	}
	return mc.flat
}

// tone is one transmission as the pass adds it: its envelope clipped to
// the window, the sample it starts at, its channel row (one coefficient
// per kept antenna), and its oscillator as a running value — w at the
// next sample to add, multiplied by step after every sample, silent
// chips included.
type tone struct {
	env     []float64
	start   int
	hs      []complex128
	w, step complex128
}

// makeTone readies tx for the pass, its envelope clipped to the capture
// window of cfg, and fills hs with its channel row to els.
func makeTone(tx *Transmission, cfg CaptureConfig, els []geom.Vec3, hs []complex128) tone {
	env := tx.Envelope
	if len(env) > cfg.NumSamples-tx.StartSample {
		env = env[:cfg.NumSamples-tx.StartSample]
	}
	for a, el := range els {
		hs[a] = Channel(tx.Pos, el, cfg.Wavelength, cfg.Reflectors) * complex(tx.Amplitude, 0)
	}
	turn := 2 * math.Pi * tx.CFO / cfg.SampleRate // radians per sample
	w := cmplx.Exp(complex(0, tx.Phase))
	// Advance to the start sample so CFO phase is continuous in capture
	// time, not envelope time.
	w *= cmplx.Exp(complex(0, turn*float64(tx.StartSample)))
	return tone{env: env, start: tx.StartSample, hs: hs, w: w, step: cmplx.Exp(complex(0, turn))}
}

// addPair adds two transmissions into dst, whose antenna a stream
// starts at a·stride. Where both are on the air it advances them
// together, one sample of each per iteration: the two oscillator
// recurrences are independent, so the loop is no longer bound by one
// multiply's latency. Each sample still receives a before b, and each
// oscillator still takes one step per sample, so every bit equals adding
// a and then b one at a time.
func addPair(dst []complex128, stride int, a, b *tone) {
	aEnd, bEnd := a.start+len(a.env), b.start+len(b.env)
	lo, hi := max(a.start, b.start), min(aEnd, bEnd)
	if lo >= hi { // no sample hears both
		a.add(dst, stride, a.start, aEnd)
		b.add(dst, stride, b.start, bEnd)
		return
	}
	a.add(dst, stride, a.start, lo)
	b.add(dst, stride, b.start, lo)
	wa, wb := a.w, b.w
	ea, eb := a.env[lo-a.start:hi-a.start], b.env[lo-b.start:hi-b.start]
	eb = eb[:len(ea)]
	if len(a.hs) == 1 {
		// One stream, as a decode query keeps: the two channels stay in
		// registers, where addChip reloads them after every store (a
		// write into dst might alias hs). That is a fifth of this loop.
		ha, hb := a.hs[0], b.hs[0]
		d := dst[lo:hi]
		d = d[:len(ea)]
		for s, e := range ea {
			addOne(&d[s], ha, e, wa)
			addOne(&d[s], hb, eb[s], wb)
			wa *= a.step
			wb *= b.step
		}
	} else {
		for s, e := range ea {
			addChip(dst, lo+s, stride, a.hs, e, wa)
			addChip(dst, lo+s, stride, b.hs, eb[s], wb)
			wa *= a.step
			wb *= b.step
		}
	}
	a.w, b.w = wa, wb
	a.add(dst, stride, hi, aEnd)
	b.add(dst, stride, hi, bEnd)
}

// add adds t's samples [from, to) of the capture, t.start ≤ from ≤ to,
// and leaves its oscillator at sample to.
func (t *tone) add(dst []complex128, stride, from, to int) {
	w := t.w
	for s, e := range t.env[from-t.start : to-t.start] {
		addChip(dst, from+s, stride, t.hs, e, w)
		w *= t.step
	}
	t.w = w
}

// addChip adds hs[a]·e·w, one envelope sample of one transmission, into
// dst[at + a·stride] for every antenna a. It decides on e once, outside
// the antenna loop; addOne is the same decision for one stream.
func addChip(dst []complex128, at, stride int, hs []complex128, e float64, w complex128) {
	switch e {
	case 0:
	case 1:
		// OOK chips are 0/1; multiplying h by complex(1, 0) is exact in
		// IEEE arithmetic, so skipping it changes no bit and drops a
		// complex multiply per antenna from the hottest loop in the
		// simulator.
		for _, h := range hs {
			dst[at] += h * w
			at += stride
		}
	default:
		for _, h := range hs {
			dst[at] += h * complex(e, 0) * w
			at += stride
		}
	}
}

// addOne adds h·e·w into *d, skipping silent samples and the exact
// multiply by a unit chip as addChip does.
func addOne(d *complex128, h complex128, e float64, w complex128) {
	switch e {
	case 0:
	case 1:
		*d += h * w
	default:
		*d += h * complex(e, 0) * w
	}
}

func addNoise(dst []complex128, sigma float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}
