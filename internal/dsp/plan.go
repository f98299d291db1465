package dsp

import (
	"fmt"
	"math"
)

// Plan is a per-worker DSP scratch: it caches FFT twiddle/bit-reversal
// tables by transform length (a power of two; the program transforms
// one, its 2048-sample capture) and owns the reusable magnitude, sort,
// neighborhood, and peak buffers, and the occupancy probe bank, the
// spectral pipeline otherwise allocates per call. Once a plan has seen
// a capture length, re-running it through SpectrumInto, FindPeaks, and
// ClassifyBin allocates nothing.
//
// Every pooled method is bit-identical to its allocating package-level
// counterpart (NewSpectrum, FindPeaks, ClassifyBin): those are thin
// one-shot wrappers over the same implementation, so only the buffer
// lifetimes differ.
//
// A Plan is NOT safe for concurrent use: give each worker goroutine its
// own. The zero value is ready to use. Slices returned by FindPeaks are
// owned by the plan and are valid only until its next call; callers
// that retain them must copy.
type Plan struct {
	ffts map[int]*FFTPlan

	mags   []float64 // per-bin magnitude cache, bin order
	sorted []float64 // sort scratch for the noise-floor median
	neigh  []float64 // FindPeaks neighborhood statistics
	peaks  []Peak    // FindPeaks result buffer

	bank ProbeBank // ClassifyBin phasor, de-rotation and fold buffers
}

// fftPlan returns the power-of-two plan for length n. The plan-local
// map is a lock-free fast path over the process-wide registry, so
// workers share one immutable table set per length instead of each
// building their own.
func (pl *Plan) fftPlan(n int) *FFTPlan {
	if p, ok := pl.ffts[n]; ok {
		return p
	}
	p, err := cachedPlan(n)
	if err != nil {
		panic(fmt.Sprintf("dsp: %v", err))
	}
	if pl.ffts == nil {
		pl.ffts = make(map[int]*FFTPlan)
	}
	pl.ffts[n] = p
	return p
}

// SpectrumInto computes the spectrum of a capture into s, reusing
// s.Bins when its capacity suffices, and fills the s.Mags/s.Pows
// derived caches in the same pass, from the final butterfly stage
// while the outputs are still in registers. Bins are bit-identical to
// NewSpectrum(samples, sampleRate), and the caches equal
// math.Sqrt(binPow(bin)) / binPow(bin) exactly. len(samples) must be a
// power of two.
func (pl *Plan) SpectrumInto(s *Spectrum, samples []complex128, sampleRate float64) {
	pl.fftPlan(len(samples)).spectrumInto(s, samples, sampleRate)
}

// SpectrumManyInto computes one spectrum per capture, the batched
// detection-path entry point: the FFT plan is resolved once per run of
// equal-length captures (instead of one map probe per capture) and the
// stage-major twiddle tables stay cache-resident from one capture to
// the next. Each specs[i] gets the identical result SpectrumInto would
// produce for captures[i]. len(specs) must equal len(captures).
func (pl *Plan) SpectrumManyInto(specs []Spectrum, captures [][]complex128, sampleRate float64) {
	if len(specs) != len(captures) {
		panic(fmt.Sprintf("dsp: SpectrumManyInto specs length %d, captures length %d", len(specs), len(captures)))
	}
	var fp *FFTPlan
	for i, samples := range captures {
		if fp == nil || fp.n != len(samples) {
			fp = pl.fftPlan(len(samples))
		}
		fp.spectrumInto(&specs[i], samples, sampleRate)
	}
}

// spectrumInto is SpectrumInto on the plan of the capture's length.
func (p *FFTPlan) spectrumInto(s *Spectrum, samples []complex128, sampleRate float64) {
	s.SampleRate = sampleRate
	s.Bins = growComplexSlice(s.Bins, p.n)
	s.Mags = growFloatSlice(s.Mags, p.n)
	s.Pows = growFloatSlice(s.Pows, p.n)
	p.transformSpectrum(s.Bins, s.Mags, s.Pows, samples)
}

// FindPeaks is the pooled equivalent of the package-level FindPeaks:
// identical peaks, but the magnitude cache, neighborhood scratch, and
// the returned slice all live in the plan. The result is valid until
// the plan's next FindPeaks call.
func (pl *Plan) FindPeaks(s *Spectrum, p PeakParams) []Peak {
	n := len(s.Bins)
	if n == 0 {
		return nil
	}
	limit := int(maxPeakFreq/s.BinWidth()) + 1
	if limit > n {
		limit = n
	}
	// Per-bin magnitudes: the fused s.Mags cache is used directly when
	// valid (it holds exactly math.Sqrt(binPow(bin)), the same value
	// computed here), so a SpectrumInto-produced spectrum pays no
	// magnitude sweep at all.
	var mags []float64
	if len(s.Mags) == n {
		mags = s.Mags
	} else {
		pl.mags = growFloatSlice(pl.mags, n)
		mags = pl.mags
		for i, v := range s.Bins {
			mags[i] = math.Sqrt(binPow(v))
		}
	}
	pl.sorted = growFloatSlice(pl.sorted, n)
	sorted := pl.sorted
	copy(sorted, mags)
	floor := medianFloat(sorted)
	cut := floor * p.Threshold
	peaks := pl.peaks[:0]
	neighborhood := pl.neigh[:0]
	for k := 0; k < limit; k++ {
		m := mags[k]
		if m <= cut {
			continue
		}
		// Not a local maximum (of two equal adjacent bins the later wins).
		if (k > 0 && mags[k-1] > m) || (k+1 < n && mags[k+1] >= m) {
			continue
		}
		neighborhood = neighborhood[:0]
		for d := sharpGuard + 1; d <= p.SharpRadius; d++ {
			if k-d >= 0 {
				neighborhood = append(neighborhood, mags[k-d])
			}
			if k+d < n {
				neighborhood = append(neighborhood, mags[k+d])
			}
		}
		if len(neighborhood) > 0 {
			local := medianFloat(neighborhood)
			if p.Sharpness != 1 && local > 0 && m < p.Sharpness*local {
				continue
			}
			if p.ExcessSigma > 0 {
				for i := range neighborhood {
					neighborhood[i] = math.Abs(neighborhood[i] - local)
				}
				mad := medianFloat(neighborhood)
				if floorGuard := 0.02 * local; mad < floorGuard {
					mad = floorGuard
				}
				if m-local < p.ExcessSigma*mad {
					continue
				}
			}
		}
		peaks = append(peaks, Peak{Bin: k, Freq: s.BinFreq(k), Val: s.Bins[k], Mag: m})
	}
	if len(peaks) > 1 {
		var strongest float64
		for _, pk := range peaks {
			if pk.Mag > strongest {
				strongest = pk.Mag
			}
		}
		kept := peaks[:0]
		for _, pk := range peaks {
			if pk.Mag >= minRelToStrongest*strongest {
				kept = append(kept, pk)
			}
		}
		peaks = kept
	}
	pl.neigh = neighborhood[:0]
	pl.peaks = peaks
	return peaks
}

// ClassifyBin is the pooled equivalent of the package-level
// ClassifyBin: identical classification, on the plan's probe bank
// (tune to freqHz, de-rotate the capture once, read every window and
// reference probe of ProbeBank.Occupancy off the result).
func (pl *Plan) ClassifyBin(samples []complex128, sampleRate, freqHz float64) Occupancy {
	pl.bank.Tune(sampleRate, freqHz, len(samples))
	pl.bank.Load(samples)
	return pl.bank.Occupancy()
}

// growComplexSlice returns x resized to length n, reusing its backing
// array when the capacity suffices. Contents are unspecified.
func growComplexSlice(x []complex128, n int) []complex128 {
	if cap(x) < n {
		return make([]complex128, n)
	}
	return x[:n]
}

// growFloatSlice returns x resized to length n, reusing its backing
// array when the capacity suffices. Contents are unspecified. The
// signature mirrors growComplexSlice — value in, value out; callers
// reassign — rather than the old pointer+return hybrid, which let one
// call site keep a stale alias of a reallocated buffer.
func growFloatSlice(x []float64, n int) []float64 {
	if cap(x) < n {
		return make([]float64, n)
	}
	return x[:n]
}
