package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"caraoke/internal/dsp"
	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
)

// Spike is one transponder's footprint in a collision capture: its CFO
// and the complex channel it presents to each reader antenna. The
// channel is recovered from the spike value via R(Δf) = h/2 (§3, Eq 5).
type Spike struct {
	Freq     float64      // refined CFO estimate, Hz above the reader LO
	Bin      int          // FFT bin of the spike on the reference antenna
	Mag      float64      // spike magnitude on the reference antenna
	Channels []complex128 // per-antenna channel estimates ĥ
	// Multiple marks bins where the §5 dual-window test detected two
	// or more transponders sharing the bin.
	Multiple bool
}

// AnalyzeCapture extracts the transponder spikes from a multi-antenna
// collision capture: peak detection on the reference antenna (element
// 0), sub-bin frequency refinement, per-antenna channel estimation at
// the refined frequency, Manchester clock-image rejection, and the
// dual-window occupancy test. It runs on a throwaway Scratch, so the
// returned spikes (and their Channels) are caller-owned; per-reader hot
// paths hold a Scratch and call its method directly.
func AnalyzeCapture(mc *rfsim.MultiCapture, p Params) ([]Spike, error) {
	var sc Scratch
	return sc.AnalyzeCapture(mc, p)
}

// AnalyzeCapture is the pooled single-capture analysis: the
// package-level function's arithmetic, every intermediate in the
// Scratch. The result is valid until the next call on sc; see the
// Scratch contract. The spectrum is swept once, at relaxedPeaks (see
// isStrict); each peak is refined and gated as refinePeak does a
// window's, from its transform bins (dsp.RefineFromBins) and one
// de-rotation in the probe bank, and channels are estimated only for
// the peaks the gates keep.
func (sc *Scratch) AnalyzeCapture(mc *rfsim.MultiCapture, p Params) ([]Spike, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkShape(mc); err != nil {
		return nil, fmt.Errorf("core: capture: %w", err)
	}
	ref := mc.Antennas[0]
	sc.plan.SpectrumInto(&sc.spec, ref, phy.SampleRate)
	spec := &sc.spec
	if !finitePow(spec.Pows[0]) || !finiteStreams(mc.Antennas[1:]) {
		return nil, ErrNonFiniteCapture
	}
	binW := spec.BinWidth()
	peaks := rejectClockImages(sc.plan.FindPeaks(spec, relaxedPeaks), binW)
	sc.half = grow(sc.half, phy.ResponseSamples)
	dsp.HalfTransform(sc.half, ref)
	nAnt := len(mc.Antennas)
	chans := grow(sc.chans, len(peaks)*nAnt)
	sc.chans = chans
	spikes, centres := sc.spikes[:0], sc.centres[:0]
	bank := &sc.bank
	for pi, pk := range peaks {
		freq := dsp.RefineFromBins(pk, spec.Bins[pk.Bin], sc.half[pk.Bin])
		// The occupancy test self-calibrates its tolerances from the
		// capture so other transponders' data does not masquerade as a
		// same-bin collision.
		bank.Tune(freq)
		bank.Load(ref)
		multiple := bank.Occupancy() == dsp.OccupancyMultiple
		centre := -1.0 // no purity test left: Multiple, or found pure
		if !multiple {
			centre, _ = bank.Shoulder()
			if !isStrict(pk) {
				if !isPure(centre, ref, freq, binW) {
					continue // neither tone-like nor a beating pair
				}
				centre = -1
			}
		}
		s := Spike{
			Freq:     freq,
			Bin:      pk.Bin,
			Mag:      pk.Mag,
			Channels: chans[pi*nAnt : (pi+1)*nAnt : (pi+1)*nAnt],
			Multiple: multiple,
		}
		// ĥ = 2·R(Δf)/N: the spike value is half the channel times the
		// capture length (Manchester's 0.5-mean envelope).
		scale := complex(2/float64(phy.ResponseSamples), 0)
		for a, stream := range mc.Antennas {
			s.Channels[a] = dsp.Goertzel(stream, freq/phy.SampleRate) * scale
		}
		spikes = append(spikes, s)
		centres = append(centres, centre)
	}
	sc.centres = centres
	spikes = rejectImpureGhosts(ref, binW, spikes, centres)
	suppressResolvedNeighbors(spikes, binW)
	sc.spikes = spikes
	return spikes, nil
}

// isStrict reports whether pk, a peak of the relaxedPeaks sweep, also
// clears strictSharpness times its local median: exactly whether a
// sweep at that sharpness, otherwise as relaxedPeaks, would find it.
// Such a sweep applies this same test to the same threshold, radius and
// floor, and its strongest peak is never above the relaxed sweep's, so
// its minRelToStrongest pruning drops no peak the relaxed sweep keeps.
func isStrict(pk dsp.Peak) bool {
	return !(pk.Local > 0 && pk.Mag < strictSharpness*pk.Local)
}

// ErrNonFiniteCapture reports a capture holding a NaN or ±Inf sample —
// a saturated or faulted front end. Analysis refuses it rather than
// report the empty road its poisoned spectrum would otherwise read as.
var ErrNonFiniteCapture = errors.New("core: capture has a non-finite sample")

// finitePow reports whether the power of spectrum bin 0 is finite. Bin
// 0 sums every sample, so one non-finite sample anywhere in a stream
// makes it NaN or Inf: the transform doubles as the stream's guard.
func finitePow(pw float64) bool {
	return !math.IsNaN(pw) && !math.IsInf(pw, 0)
}

// finiteStreams reports whether every sample of every stream is finite.
// It guards the antennas no transform runs over, whose samples reach
// Spike.Channels through the channel estimate alone.
func finiteStreams(streams [][]complex128) bool {
	var z float64
	for _, x := range streams {
		for _, v := range x {
			z += real(v)*0 + imag(v)*0 // 0 for a finite sample, NaN otherwise
		}
	}
	return z == 0
}

// suppressResolvedNeighbors clears the Multiple flag of spikes whose
// "companion" is simply another already-detected spike. The occupancy
// test's analysis windows are 1/OccupancyWindowFrac× shorter than the
// capture, so two tones up to about that many fine bins apart beat
// inside one window bin even though the full-length FFT resolves them
// as two separate peaks; counting both the two peaks and the beat would
// double-count.
func suppressResolvedNeighbors(spikes []Spike, binWidth float64) {
	reach := (1/dsp.OccupancyWindowFrac + 1) * binWidth
	for i := range spikes {
		if !spikes[i].Multiple {
			continue
		}
		for j := range spikes {
			if i == j {
				continue
			}
			if math.Abs(spikes[i].Freq-spikes[j].Freq) < reach {
				spikes[i].Multiple = false
				break
			}
		}
	}
}

// checkShape refuses a capture that is not the front end's one shape:
// every antenna stream one response, phy.ResponseSamples, long.
func checkShape(mc *rfsim.MultiCapture) error {
	if mc == nil || len(mc.Antennas) == 0 {
		return errors.New("no antenna streams")
	}
	for a, st := range mc.Antennas {
		if err := checkLen(len(st)); err != nil {
			return fmt.Errorf("antenna %d: %w", a, err)
		}
	}
	return nil
}

// checkLen refuses a stream that is not one response long.
func checkLen(n int) error {
	if n != phy.ResponseSamples {
		return fmt.Errorf("%d samples, want %d (one response at 4 MHz)", n, phy.ResponseSamples)
	}
	return nil
}

// isPure reports whether the signal at freq is tone-like: whether its
// purity — center, the DFT magnitude at freq, over the larger of the
// magnitudes 0.75 bins to either side — reaches purityMin. A pure tone
// scores ≈1/|sinc(0.75)| ≈ 3.3; broadband data humps score ≈1. The
// +0.75-bin walk is skipped when center over the −0.75-bin side alone
// already falls short: a larger side only lowers the ratio, and
// correctly rounded division is monotone, so the verdict is the full
// test's.
func isPure(center float64, ref []complex128, freq, binWidth float64) bool {
	lo := cmplx.Abs(dsp.Goertzel(ref, (freq-0.75*binWidth)/phy.SampleRate))
	if center/lo < purityMin {
		return false
	}
	hi := cmplx.Abs(dsp.Goertzel(ref, (freq+0.75*binWidth)/phy.SampleRate))
	side := lo
	if hi > side {
		side = hi
	}
	if side == 0 {
		return true // an infinite purity
	}
	return center/side >= purityMin
}

// rejectImpureGhosts drops weak single-looking spikes that fail the
// tone-purity test: the DFT magnitude 0.75 bins to either side of a
// genuine carrier falls to ≈30 % (Dirichlet sidelobe), while a
// broadband data hump stays roughly flat. Only spikes below
// purityMaxRel of the strongest are tested, so the occupancy-based
// same-bin counting of §5 is untouched for real devices. centres[i] is
// spikes[i]'s DFT magnitude at its Freq, or −1 when the spike needs no
// test: Multiple, or already found pure.
func rejectImpureGhosts(ref []complex128, binWidth float64, spikes []Spike, centres []float64) []Spike {
	var strongest float64
	for _, s := range spikes {
		strongest = max(strongest, s.Mag)
	}
	out := spikes[:0]
	for i, s := range spikes {
		if c := centres[i]; c >= 0 && s.Mag < purityMaxRel*strongest &&
			!isPure(c, ref, s.Freq, binWidth) {
			continue // broadband ghost, not a carrier
		}
		out = append(out, s)
	}
	return out
}

// rejectClockImages removes weak peaks that lie one Manchester bit rate
// (±500 kHz, within ±2 bins) from a peak at least 1/clockImageRatio
// times stronger. A transponder whose payload is locally unbalanced
// leaves a residual clock line at that offset; it is data structure,
// not a device.
func rejectClockImages(peaks []dsp.Peak, binWidth float64) []dsp.Peak {
	const clockHz = 500e3 // 1 / BitDuration
	tol := 2 * binWidth
	out := peaks[:0]
	for _, pk := range peaks {
		image := false
		for _, other := range peaks {
			if other.Bin == pk.Bin || pk.Mag >= clockImageRatio*other.Mag {
				continue
			}
			if math.Abs(math.Abs(pk.Freq-other.Freq)-clockHz) <= tol {
				image = true
				break
			}
		}
		if !image {
			out = append(out, pk)
		}
	}
	return out
}

// CountResult is the outcome of the §5 counting estimator.
type CountResult struct {
	// Count is the estimated number of transponders: one per spike,
	// two for spikes whose bin failed the single-occupancy test.
	Count int
	// Spikes carries the underlying per-transponder measurements.
	Spikes []Spike
}

// CountFromSpikes applies the §5 counting rule to extracted spikes:
// a single-occupancy spike is one car, a multi-occupancy spike is
// counted as two (three-or-more sharing one bin is the estimator's
// residual error mode, Eq 9).
func CountFromSpikes(spikes []Spike) CountResult {
	count := 0
	for _, s := range spikes {
		if s.Multiple {
			count += 2
		} else {
			count++
		}
	}
	return CountResult{Count: count, Spikes: spikes}
}
