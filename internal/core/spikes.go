package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"caraoke/internal/dsp"
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

// AnalyzeCapture is the pooled single-capture analysis. It is
// bit-identical to the package-level function — the same detection,
// refinement, channel-estimation, and occupancy arithmetic in the same
// order — but every intermediate (spectrum, magnitudes, peak
// neighborhoods, occupancy probes, channel estimates, the spike slice
// itself) lives in the Scratch. The result is valid until the next
// call on sc; see the Scratch contract.
func (sc *Scratch) AnalyzeCapture(mc *rfsim.MultiCapture, p Params) ([]Spike, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mc == nil || len(mc.Antennas) == 0 {
		return nil, fmt.Errorf("core: capture has no antenna streams")
	}
	ref := mc.Antennas[0]
	n := len(ref)
	if n == 0 {
		return nil, fmt.Errorf("core: empty capture")
	}
	if err := checkRagged(mc); err != nil {
		return nil, fmt.Errorf("core: capture: %w", err)
	}
	sc.plan.SpectrumInto(&sc.spec, ref, p.SampleRate)
	spec := &sc.spec
	if !finitePow(spec.Pows[0]) || !finiteStreams(mc.Antennas[1:]) {
		return nil, ErrNonFiniteCapture
	}
	binW := spec.BinWidth()
	// Record the strict sweep's winners first: the relaxed sweep reuses
	// the plan's peak buffer. What only the relaxed sweep finds —
	// carriers barely above a large collision's data floor — must later
	// prove itself a tone or a beating pair.
	if sc.strict == nil {
		sc.strict = make(map[int]bool)
	}
	clear(sc.strict)
	for _, pk := range sc.plan.FindPeaks(spec, strictPeaks) {
		sc.strict[pk.Bin] = true
	}
	peaks := rejectClockImages(sc.plan.FindPeaks(spec, relaxedPeaks), binW)
	nAnt := len(mc.Antennas)
	chans := grow(sc.chans, len(peaks)*nAnt)
	sc.chans = chans
	spikes := sc.spikes[:0]
	for pi, pk := range peaks {
		freq := dsp.RefineFreq(ref, p.SampleRate, pk)
		s := Spike{
			Freq:     freq,
			Bin:      pk.Bin,
			Mag:      pk.Mag,
			Channels: chans[pi*nAnt : (pi+1)*nAnt : (pi+1)*nAnt],
		}
		// ĥ = 2·R(Δf)/N: the spike value is half the channel times the
		// capture length (Manchester's 0.5-mean envelope).
		scale := complex(2/float64(n), 0)
		for a, stream := range mc.Antennas {
			s.Channels[a] = dsp.Goertzel(stream, freq/p.SampleRate) * scale
		}
		// The occupancy test self-calibrates its tolerances from the
		// capture so other transponders' data does not masquerade as a
		// same-bin collision.
		s.Multiple = sc.plan.ClassifyBin(ref, p.SampleRate, freq) == dsp.OccupancyMultiple
		if !sc.strict[pk.Bin] && !s.Multiple &&
			purity(centreMag(ref, p.SampleRate, freq), ref, p.SampleRate, freq, binW) < purityMin {
			continue // neither tone-like nor a beating pair
		}
		spikes = append(spikes, s)
	}
	spikes = rejectImpureGhosts(ref, p.SampleRate, binW, spikes)
	suppressResolvedNeighbors(spikes, binW)
	sc.spikes = spikes
	return spikes, nil
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

// checkRagged refuses a capture whose antenna streams differ in length:
// the channel estimates scale every stream by 2/n of antenna 0's n.
func checkRagged(mc *rfsim.MultiCapture) error {
	for a, st := range mc.Antennas {
		if len(st) != len(mc.Antennas[0]) {
			return fmt.Errorf("antenna %d has %d samples, antenna 0 has %d", a, len(st), len(mc.Antennas[0]))
		}
	}
	return nil
}

// centreMag is the DFT magnitude of ref at freq: purity's numerator
// where no probe bank already holds it.
func centreMag(ref []complex128, sampleRate, freq float64) float64 {
	return cmplx.Abs(dsp.Goertzel(ref, freq/sampleRate))
}

// purity measures how tone-like the signal at freq is: the ratio of
// center, the DFT magnitude at freq, to the larger of the magnitudes
// 0.75 bins to either side. A pure tone scores ≈1/|sinc(0.75)| ≈ 3.3;
// broadband data humps score ≈1.
func purity(center float64, ref []complex128, sampleRate, freq, binWidth float64) float64 {
	lo := cmplx.Abs(dsp.Goertzel(ref, (freq-0.75*binWidth)/sampleRate))
	hi := cmplx.Abs(dsp.Goertzel(ref, (freq+0.75*binWidth)/sampleRate))
	side := lo
	if hi > side {
		side = hi
	}
	if side == 0 {
		return math.Inf(1)
	}
	return center / side
}

// rejectImpureGhosts drops weak single-looking spikes that fail the
// tone-purity test: the DFT magnitude 0.75 bins to either side of a
// genuine carrier falls to ≈30 % (Dirichlet sidelobe), while a
// broadband data hump stays roughly flat. Only spikes below
// purityMaxRel of the strongest are tested, so the occupancy-based
// same-bin counting of §5 is untouched for real devices.
func rejectImpureGhosts(ref []complex128, sampleRate, binWidth float64, spikes []Spike) []Spike {
	var strongest float64
	for _, s := range spikes {
		if s.Mag > strongest {
			strongest = s.Mag
		}
	}
	out := spikes[:0]
	for _, s := range spikes {
		if !s.Multiple && s.Mag < purityMaxRel*strongest &&
			purity(centreMag(ref, sampleRate, s.Freq), ref, sampleRate, s.Freq, binWidth) < purityMin {
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
