package dsp

import "math"

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

// GoertzelChips is Goertzel with its partial sums kept. In one walk
// over x it writes, for every chip c < len(re), the sum of that chip's
// four de-rotated samples
//
//	U_c = Σ_{t=4c}^{4c+3} x[t]·e^{−2πi f t}
//
// into re[c], im[c], and returns their total Σ_t x[t]·e^{−2πi f t},
// which is what Goertzel(x, f) returns. The §8 decoder needs exactly
// these two things from a capture: the spike (its channel estimate)
// and the per-chip sums its Manchester decisions integrate.
//
// x must hold exactly 4·len(re) samples — four per chip, the front
// end's one shape — and im as many entries as re. A chip is then one of
// Goertzel's four-sample groups: the walk costs the same five
// multiplies per four samples, and from 16 samples up the returned
// spike is bit-identical to Goertzel's.
func GoertzelChips(x []complex128, f float64, re, im []float64) complex128 {
	s, c := math.Sincos(-2 * math.Pi * f)
	step := complex(c, s)
	step2 := step * step
	step3 := step2 * step
	step4 := step2 * step2
	w := complex(1, 0)
	var sum complex128
	im = im[:len(re)]
	for c := range re {
		g := x[4*c : 4*c+4 : 4*c+4]
		u := w * (g[0] + step*g[1] + step2*g[2] + step3*g[3])
		w *= step4
		re[c], im[c] = real(u), imag(u)
		sum += u
		if c&255 == 255 { // every 1024 samples, as Goertzel does
			w = renormPhasor(w)
		}
	}
	return sum
}

func renormPhasor(w complex128) complex128 {
	mag := math.Hypot(real(w), imag(w))
	return complex(real(w)/mag, imag(w)/mag)
}
