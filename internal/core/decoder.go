package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
)

// Decoder recovers one transponder's frame from repeated collision
// captures by coherent combining (§8). For each query's capture it
// estimates the target's per-query channel from its CFO spike, removes
// the CFO rotation, divides by the channel, and accumulates: the
// target's OOK envelope adds coherently (amplitude N after N queries)
// while every other transponder — whose oscillator phase re-randomizes
// at each reply — adds with random phases and averages out (√N).
// Decoding succeeds when the accumulated envelope demodulates into a
// frame that passes its checksum.
//
// §8 states the average per sample, Σ_q r_q(t)·e^{−j2πΔf·t}/ĥ_q, and
// the Manchester decision then integrates its real part over each
// chip. Both steps are linear, so they commute: with U_c the sum of a
// chip's de-rotated samples, Σ_{t∈c} real(u_t/ĥ) = real(U_c/ĥ). The
// decoder therefore keeps one real number per chip, not one complex
// number per sample. One dsp.GoertzelChips walk over a capture yields
// every U_c and, as their total, the spike ĥ is read from; the
// accumulator takes real(U_c/ĥ). The per-sample formulation lives on
// in the tests as the oracle: the two differ by rounding in the last
// bits of an accumulator entry, never in a bit decision.
type Decoder struct {
	sampleRate float64
	target     float64 // refined CFO of the target transponder, Hz
	spc        int     // samples per chip at sampleRate; < 1 is undecodable
	captureLen int     // samples in the first capture; every later one must match
	n          int
	// acc[c] is Σ_q real(U_c/ĥ_q), the chip energies TryDecode decides
	// on: one entry per whole chip a capture holds, a frame's at most.
	acc []float64
	// sweep receives one capture's chip sums between the walk and the
	// accumulation, real parts in its first phy.FrameChips entries and
	// imaginary parts in its second. Nil in DecodeAll's decoders, which
	// share one.
	sweep []float64
}

// ErrNeedMoreCollisions is returned by TryDecode while the accumulated
// SNR is still too low for the frame to pass its checksum. It is
// returned bare (not wrapped): on the hot path a CRC miss happens once
// per query per in-flight target, and wrapping would allocate.
var ErrNeedMoreCollisions = errors.New("core: frame not yet decodable, combine more collisions")

// NewDecoder creates a decoder for the transponder whose CFO spike sits
// at targetFreq Hz (use the refined frequency from AnalyzeCapture).
func NewDecoder(sampleRate, targetFreq float64) *Decoder {
	buf := make([]float64, 3*phy.FrameChips)
	d := makeDecoder(sampleRate, targetFreq, buf[:phy.FrameChips])
	d.sweep = buf[phy.FrameChips:]
	return &d
}

// makeDecoder aims a decoder that accumulates into acc, which holds
// phy.FrameChips entries; the caller supplies the sweep buffer.
func makeDecoder(sampleRate, targetFreq float64, acc []float64) Decoder {
	return Decoder{
		sampleRate: sampleRate,
		target:     targetFreq,
		spc:        phy.SamplesPerChip(sampleRate),
		acc:        acc[:0:phy.FrameChips],
	}
}

// N returns how many collision captures have been combined.
func (d *Decoder) N() int { return d.n }

// Add combines one more collision capture (a single antenna's stream,
// frame-aligned: the response begins at sample 0). Samples past the
// frame's last chip, or short of a whole chip, inform the channel
// estimate only. A capture the target's spike is absent from, or
// whose estimate is not finite (a NaN or Inf sample), is refused with
// the combined state untouched.
func (d *Decoder) Add(capture []complex128) error {
	return d.add(capture, d.sweep)
}

// add is Add with the sweep buffer (2·phy.FrameChips entries) supplied.
func (d *Decoder) add(capture []complex128, sweep []float64) error {
	if len(capture) == 0 {
		return fmt.Errorf("core: empty capture")
	}
	if d.n > 0 && len(capture) != d.captureLen {
		return fmt.Errorf("core: capture length %d differs from first capture %d", len(capture), d.captureLen)
	}
	chips := 0
	if d.spc >= 1 {
		chips = min(len(capture)/d.spc, phy.FrameChips)
	}
	re, im := sweep[:chips], sweep[phy.FrameChips:phy.FrameChips+chips]
	// Per-query channel estimate from the spike: ĥ = 2·R(Δf)/N.
	spike := dsp.GoertzelChips(capture, d.target/d.sampleRate, d.spc, re, im)
	h := spike * complex(2/float64(len(capture)), 0)
	switch mag := cmplx.Abs(h); {
	case mag == 0:
		return fmt.Errorf("core: target spike absent from capture")
	case math.IsNaN(mag) || math.IsInf(mag, 0):
		return fmt.Errorf("core: channel estimate %v is not finite", h)
	}
	if d.n == 0 {
		d.captureLen = len(capture)
		d.acc = d.acc[:chips]
		clear(d.acc)
	}
	// Accumulate real(U_c/ĥ) — §8's averaging step, a chip at a time.
	inv := 1 / h
	ir, ii := real(inv), imag(inv)
	for c := range d.acc {
		d.acc[c] += re[c]*ir - im[c]*ii
	}
	d.n++
	return nil
}

// TryDecode demodulates the accumulated signal. It returns the frame on
// checksum success, or ErrNeedMoreCollisions (bare) if the residual
// interference still flips bits. The failing steady state — the common
// case while combining — allocates nothing: the decisions are made
// straight on the accumulated chip energies, and only a successful
// decode allocates its returned Frame, which the caller owns.
func (d *Decoder) TryDecode() (*phy.Frame, error) {
	if d.n == 0 {
		return nil, fmt.Errorf("core: no captures combined yet")
	}
	if d.spc < 1 {
		return nil, phy.ErrLowSampleRate
	}
	// After channel correction the target's contribution is real and
	// non-negative (its envelope); interference is complex residue.
	f, err := phy.DemodulateChips(d.acc)
	if err != nil {
		if err == phy.ErrBadCRC || err == phy.ErrBadPreamble {
			return nil, ErrNeedMoreCollisions
		}
		return nil, err
	}
	out := new(phy.Frame)
	*out = f
	return out, nil
}

// CaptureSource yields successive collision captures, one per reader
// query. Implementations trigger a query and return the digitized
// response window (a single antenna stream).
//
// Who owns the returned stream depends on the consumer. DecodeAll reads
// a capture only until it calls the source again, so a source may hand
// it one buffer overwritten by every query, as Reader.DecodeIDs does.
// DecodeWithSIC keeps every capture it fetches and cancels decoded
// transponders out of them in place, so its source must return
// distinct slices it may modify.
type CaptureSource func() ([]complex128, error)

// DecodeResult reports a successful collision decode.
type DecodeResult struct {
	Frame *phy.Frame
	// Queries is the number of collisions that had to be combined.
	// With queries spaced phy.QueryPeriod apart, identification time
	// is Queries × 1 ms (Fig 16's y-axis).
	Queries int
}
