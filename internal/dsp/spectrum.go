package dsp

import (
	"fmt"
	"math"
	"math/cmplx"

	"caraoke/internal/phy"
)

// Spectrum is the frequency-domain view of a fixed-length capture. Bins
// follow the FFT layout: bin k covers frequency k·SampleRate/len(Bins)
// for k < N/2, and negative frequencies above that. Caraoke places its
// receive LO at the bottom of the transponder band, so all CFO spikes of
// interest land in the non-negative half.
type Spectrum struct {
	Bins       []complex128
	SampleRate float64 // samples per second of the originating capture

	// Mags and Pows are derived caches of |Bins[k]| and |Bins[k]|²,
	// filled by the fused transform pass in Plan.SpectrumInto. Each is
	// valid if and only if its length equals len(Bins); code that
	// mutates Bins must either refresh or truncate them. Mag, Power
	// and Plan.FindPeaks consult the caches before recomputing.
	Mags []float64
	Pows []float64
}

// NewSpectrum computes the spectrum of a capture via the dense FFT.
func NewSpectrum(samples []complex128, sampleRate float64) *Spectrum {
	return &Spectrum{Bins: FFT(samples), SampleRate: sampleRate}
}

// BinWidth returns the frequency width of one bin in Hz (Eq 6: δf = 1/T).
func (s *Spectrum) BinWidth() float64 {
	return s.SampleRate / float64(len(s.Bins))
}

// BinFreq returns the center frequency in Hz of bin k, in [0, SampleRate).
func (s *Spectrum) BinFreq(k int) float64 {
	return float64(k) * s.BinWidth()
}

// FreqBin returns the bin index whose center is nearest to freq Hz
// (freq taken modulo the sample rate).
func (s *Spectrum) FreqBin(freq float64) int {
	n := len(s.Bins)
	k := int(math.Round(freq/s.BinWidth())) % n
	if k < 0 {
		k += n
	}
	return k
}

// Mag returns the magnitude of bin k, from the fused cache when valid.
func (s *Spectrum) Mag(k int) float64 {
	if len(s.Mags) == len(s.Bins) {
		return s.Mags[k]
	}
	return math.Sqrt(binPow(s.Bins[k]))
}

// Power returns the squared magnitude of bin k, from the fused cache
// when valid.
func (s *Spectrum) Power(k int) float64 {
	if len(s.Pows) == len(s.Bins) {
		return s.Pows[k]
	}
	return binPow(s.Bins[k])
}

// String summarizes the spectrum for debugging.
func (s *Spectrum) String() string {
	return fmt.Sprintf("Spectrum{bins=%d, fs=%.0f Hz, δf=%.1f Hz}", len(s.Bins), s.SampleRate, s.BinWidth())
}

// Peak is a detected spectral spike.
type Peak struct {
	Bin  int     // FFT bin index
	Freq float64 // bin center frequency, Hz
	Mag  float64 // magnitude of the bin value
	// Local is the median magnitude of the peak's sharpness
	// neighborhood, what Sharpness compared Mag to; 0 when it has none.
	Local float64
}

// PeakParams is what differs between FindPeaks's callers: the sweep of
// one capture and the sweep of a spectrum averaged over several queries
// (internal/core). What no caller varies is a constant below.
type PeakParams struct {
	// Threshold is the multiple of the noise floor a local maximum must
	// exceed to count as a peak. The floor is the median bin magnitude,
	// which in a collision tracks the aggregate OOK data spectrum, so
	// the threshold self-scales with the number of colliders.
	Threshold float64
	// Sharpness requires a peak to exceed the *median* of its nearby
	// bins (between sharpGuard and SharpRadius bins away on each side)
	// by this factor. A transponder's carrier spike is one bin wide,
	// while the humps of its OOK data spectrum are broad; sharpness
	// separates the two at any collision size. The neighborhood median
	// (not mean) keeps a strong spike from masking a weak one nearby.
	// Exactly 1 turns the ratio test off, for ExcessSigma to select.
	Sharpness   float64
	SharpRadius int // outer extent of the neighborhood
	// ExcessSigma, when positive, requires a peak's magnitude to
	// exceed its local median by this many local MADs (median absolute
	// deviations). On spectra averaged over several queries the
	// floor's variance shrinks with the number of averages while a
	// carrier's excess does not, making this the most sensitive
	// detector for weak spikes riding a high collision floor.
	ExcessSigma float64
}

const (
	// maxPeakFreq limits the search to bins with center frequency in
	// [0, maxPeakFreq]: the 1.2 MHz CFO span above the reader LO.
	maxPeakFreq = 1.2e6
	// sharpGuard is the number of bins adjacent to a peak excluded from
	// its sharpness neighborhood.
	sharpGuard = 2
	// minRelToStrongest drops peaks below this fraction of the
	// strongest surviving peak. A transponder's own data spectrum has
	// realization-specific components reaching ~√N·(tail)/(N/2) ≈ 13 %
	// of its carrier spike; within a reader's ~100-foot range the
	// spread of genuine carrier amplitudes is bounded well above that,
	// so the gate removes data ghosts without losing real devices.
	minRelToStrongest = 0.2
)

// FindPeaks locates one-bin-wide local maxima that stand above both the
// global noise floor and their local neighborhood, returning them in
// increasing bin order. It is a thin allocating wrapper over
// Plan.FindPeaks — the pooled variant per-worker hot paths use — and
// returns a caller-owned copy of the peaks.
func FindPeaks(s *Spectrum, p PeakParams) []Peak {
	var pl Plan
	peaks := pl.FindPeaks(s, p)
	if len(peaks) == 0 {
		return nil
	}
	out := make([]Peak, len(peaks))
	copy(out, peaks)
	return out
}

// medianFloat returns the median of x (the mean of the middle two for
// an even count), reordering x in the process.
func medianFloat(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	hi := SelectFloat(x, n/2)
	if n%2 == 1 {
		return hi
	}
	// The other middle value is the largest of those left below x[n/2].
	lo := x[0]
	for _, v := range x[1 : n/2] {
		if floatLess(lo, v) {
			lo = v
		}
	}
	return 0.5 * (lo + hi)
}

// SelectFloat reorders x in place so that x[k] holds the value
// sort.Float64s would leave there — no element before it greater, none
// after it smaller — and returns it, without sorting the rest: a
// median-of-three quickselect narrows to a short range around k, which
// an insertion sort finishes. The handful of values the per-peak
// medians take (a dozen frequencies, two dozen probe magnitudes) are a
// single insertion sort.
func SelectFloat(x []float64, k int) float64 {
	lo, hi := 0, len(x)-1
	for hi-lo >= 32 {
		// Median of three to x[lo+1], sentinels at both ends, then a
		// Hoare partition of what lies between.
		mid := lo + (hi-lo)/2
		x[mid], x[lo+1] = x[lo+1], x[mid]
		if floatLess(x[hi], x[lo]) {
			x[lo], x[hi] = x[hi], x[lo]
		}
		if floatLess(x[hi], x[lo+1]) {
			x[lo+1], x[hi] = x[hi], x[lo+1]
		}
		if floatLess(x[lo+1], x[lo]) {
			x[lo], x[lo+1] = x[lo+1], x[lo]
		}
		pivot := x[lo+1]
		i, j := lo+1, hi
		for {
			for i++; floatLess(x[i], pivot); i++ {
			}
			for j--; floatLess(pivot, x[j]); j-- {
			}
			if j < i {
				break
			}
			x[i], x[j] = x[j], x[i]
		}
		x[lo+1], x[j] = x[j], pivot
		if j >= k {
			hi = j - 1
		}
		if j <= k {
			lo = i
		}
	}
	for i := lo + 1; i <= hi; i++ {
		v := x[i]
		j := i
		for ; j > lo && floatLess(v, x[j-1]); j-- {
			x[j] = x[j-1]
		}
		x[j] = v
	}
	return x[k]
}

// floatLess is sort.Float64s's order: ascending, NaNs first.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// RefineFreq improves a peak's frequency estimate beyond bin resolution
// by comparing the phase of the tone between two half-length windows of
// the original capture. For a single tone at frequency f, the phase
// advance between windows offset by Δt samples is 2π·f·Δt/fs; unwrapping
// the advance relative to the bin-center prediction yields a sub-bin
// correction. The capture is at phy.SampleRate. Returns the refined
// frequency in Hz.
func RefineFreq(samples []complex128, p Peak) float64 {
	n := len(samples)
	if n < 8 {
		return p.Freq
	}
	half := n / 2
	fNorm := p.Freq / phy.SampleRate
	a := Goertzel(samples[:half], fNorm)
	b := Goertzel(samples[half:], fNorm)
	// Goertzel references phase to its window start; the probe
	// frequency's rotation across `half` samples moves b's reference to
	// the capture start, where a's is.
	probe := cmplx.Exp(complex(0, -2*math.Pi*fNorm*float64(half)))
	return refineHalves(p, a, b*probe, half)
}

// RefineFromBins is RefineFreq for a peak on the capture's bin grid
// (p.Freq is bin p.Bin's centre), from two bins the caller already
// holds: whole, bin p.Bin of the capture's DFT, and first, the same bin
// of HalfTransform of the capture. The first half's sum at the bin
// frequency is first, and the second half's, referenced to the capture
// start, is whole − first, so no walk over the samples is needed: the
// two agree with RefineFreq's Goertzel walks to rounding.
func RefineFromBins(p Peak, whole, first complex128) float64 {
	return refineHalves(p, first, whole-first, captureSamples/2)
}

// refineHalves returns p.Freq corrected by the residual rotation
// between a and b, the sums at p.Freq over two consecutive windows of
// half samples, both referenced to the first window's start. The
// residual frequency is advance/(2π·half) cycles per sample. A zero sum
// leaves p.Freq as it is.
func refineHalves(p Peak, a, b complex128, half int) float64 {
	if cmplx.Abs(a) == 0 || cmplx.Abs(b) == 0 {
		return p.Freq
	}
	adv := cmplx.Phase(b * cmplx.Conj(a))
	df := adv / (2 * math.Pi * float64(half)) * phy.SampleRate
	return p.Freq + df
}
