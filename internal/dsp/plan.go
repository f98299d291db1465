package dsp

import "math"

// Plan is a per-worker DSP scratch: it owns the reusable magnitude,
// sort, neighborhood, and peak buffers the spectral pipeline otherwise
// allocates per call; the transform tables it runs on are the package's
// one shared set. Once its buffers have grown, re-running it through
// SpectrumInto and FindPeaks allocates nothing.
//
// Every pooled method is bit-identical to its allocating package-level
// counterpart (NewSpectrum, FindPeaks): those are thin one-shot
// wrappers over the same implementation, so only the buffer lifetimes
// differ.
//
// A Plan is NOT safe for concurrent use: give each worker goroutine its
// own. The zero value is ready to use. Slices returned by FindPeaks are
// owned by the plan and are valid only until its next call; callers
// that retain them must copy.
type Plan struct {
	mags   []float64 // per-bin magnitude cache, bin order
	sorted []float64 // sort scratch for the noise-floor median
	neigh  []float64 // FindPeaks neighborhood statistics
	peaks  []Peak    // FindPeaks result buffer
}

// SpectrumInto computes the spectrum of a capture into s, reusing
// s.Bins when its capacity suffices, and fills the s.Mags/s.Pows
// derived caches in the same pass, from the final butterfly stage
// while the outputs are still in registers. Bins are bit-identical to
// NewSpectrum(samples, sampleRate), and the caches equal
// math.Sqrt(binPow(bin)) / binPow(bin) exactly. SpectrumInto panics
// unless len(samples) is phy.ResponseSamples.
func (pl *Plan) SpectrumInto(s *Spectrum, samples []complex128, sampleRate float64) {
	mustBeCapture(samples, "spectrum")
	s.SampleRate = sampleRate
	s.Bins = growComplexSlice(s.Bins, captureSamples)
	s.Mags = growFloatSlice(s.Mags, captureSamples)
	s.Pows = growFloatSlice(s.Pows, captureSamples)
	capturePlan.transformSpectrum(s.Bins, s.Mags, s.Pows, samples)
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
		var local float64
		if len(neighborhood) > 0 {
			local = medianFloat(neighborhood)
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
		peaks = append(peaks, Peak{Bin: k, Freq: s.BinFreq(k), Mag: m, Local: local})
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
