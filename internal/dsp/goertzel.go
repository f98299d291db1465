package dsp

import (
	"math"

	"caraoke/internal/phy"
)

// Goertzel evaluates the DFT of x at a single, possibly fractional,
// normalized frequency f (cycles per sample, i.e. f = freqHz/sampleRate).
// It returns Σ_t x[t]·e^{-2πi f t}, matching the FFT convention, so
// Goertzel(x, k/len(x)) equals FFT(x)[k] up to rounding.
//
// The direct complex-phasor recurrence is used instead of the classical
// real-coefficient Goertzel filter: for complex baseband input the phasor
// form is just as cheap and numerically cleaner for fractional bins.
//
// The loop factors the phasor out of groups of four samples:
// Σ_{j<4} x[t+j]·w·stepʲ = w·(x[t] + step·x[t+1] + step²·x[t+2] +
// step³·x[t+3]). The naive recurrence costs two complex multiplies per
// sample (the product and the phasor advance); the grouped form costs
// five per four samples (three inner products, one by w, one step⁴
// advance) — fewer multiplies through the CPU's multiply port, and the
// loop-carried w chain advances once per group instead of once per
// sample, so its latency hides under the independent inner products.
// This reorders the summation, so results agree with the scalar
// recurrence only to rounding error — within the sub-bin agreement
// bounds the tests assert against direct DFT evaluation.
func Goertzel(x []complex128, f float64) complex128 {
	s, c := math.Sincos(-2 * math.Pi * f)
	step := complex(c, s)
	n := len(x)
	if n < 16 {
		w := complex(1, 0)
		var sum complex128
		for _, v := range x {
			sum += v * w
			w *= step
		}
		return sum
	}
	step2 := step * step
	step3 := step2 * step
	step4 := step2 * step2
	w := complex(1, 0)
	var sum complex128
	t := 0
	for t < n {
		// Process one renormalization block: 1024 samples (a multiple
		// of 4, so only the final block has a scalar tail).
		end := t + 1024
		if end > n {
			end = n
		}
		limit := t + (end-t)&^3
		for ; t < limit; t += 4 {
			v := x[t] + step*x[t+1] + step2*x[t+2] + step3*x[t+3]
			sum += w * v
			w *= step4
		}
		for ; t < end; t++ {
			sum += x[t] * w
			w *= step
		}
		if t < n {
			// Renormalize |w| to 1 to prevent magnitude drift over
			// long inputs.
			w = renormPhasor(w)
		}
	}
	return sum
}

// ChipTable de-rotates a capture by one tone a chip at a time. For
// every chip c of the frame it gives the sum of the chip's four
// de-rotated samples,
//
//	U_c = Σ_{t=4c}^{4c+3} x[t]·e^{−2πi f t} = W_c·(x[4c] + s·x[4c+1] + s²·x[4c+2] + s³·x[4c+3]),
//
// with s = e^{−2πi f} and W_c = e^{−2πi f·4c} the phasor at the chip's
// first sample. Tune tabulates s, s², s³ and every W_c once per tone,
// W by the same two-level table ProbeBank.Tune builds, so Sums costs
// four complex multiplies per chip and carries no phasor from one chip
// to the next: nothing to renormalize, and every U_c is as accurate as
// its table entry. The §8 decoder needs exactly this from a capture:
// the chip sums its Manchester decisions integrate, and their total,
// the spike its channel estimate is read from.
//
// A tuned table is only read, so goroutines may share one; the zero
// value is tuned to 0 Hz.
type ChipTable struct {
	step  [3]complex128              // s, s², s³
	start [phy.FrameChips]complex128 // W_c
}

// Tune points the table at the tone freqHz in captures sampled at
// phy.SampleRate.
func (t *ChipTable) Tune(freqHz float64) {
	w := -2 * math.Pi * (freqHz / phy.SampleRate)
	s, c := math.Sincos(w)
	step := complex(c, s)
	step2 := step * step
	t.step = [3]complex128{step, step2, step2 * step}
	fillPhasors(t.start[:], w*phy.ChipSamples)
}

// Sums writes every chip's U_c into re[c], im[c] and returns their
// total, Σ_t x[t]·e^{−2πi f t}: Goertzel(x, f) to rounding. re and im
// hold phy.FrameChips entries each. Sums panics unless len(x) is
// phy.ResponseSamples.
func (t *ChipTable) Sums(x []complex128, re, im []float64) complex128 {
	mustBeCapture(x, "ChipTable.Sums")
	re, im = re[:phy.FrameChips], im[:phy.FrameChips]
	s1, s2, s3 := t.step[0], t.step[1], t.step[2]
	var sum complex128
	for c, w := range &t.start {
		g := x[4*c : 4*c+4 : 4*c+4]
		u := w * (g[0] + s1*g[1] + s2*g[2] + s3*g[3])
		re[c], im[c] = real(u), imag(u)
		sum += u
	}
	return sum
}

func renormPhasor(w complex128) complex128 {
	mag := math.Hypot(real(w), imag(w))
	return complex(real(w)/mag, imag(w)/mag)
}
