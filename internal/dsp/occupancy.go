package dsp

// Occupancy classifies how many transponder tones share one FFT bin.
// Caraoke only needs to distinguish "exactly one" from "two or more"
// (§5: a multi-occupied bin is counted as two; only three-or-more in one
// bin produces a counting error).
type Occupancy int

// Occupancy values.
const (
	OccupancySingle   Occupancy = iota // one tone in the bin
	OccupancyMultiple                  // two or more tones in the bin
)

// OccupancyParams tunes the dual-window test.
type OccupancyParams struct {
	// WindowFrac is the analysis window length as a fraction of the
	// capture. Shorter windows allow larger shifts, which amplify the
	// beat between two close tones.
	WindowFrac float64
	// Shifts are the two window start offsets, as fractions of the
	// capture length, at which the spike is re-measured. The second
	// must be exactly twice the first so the phase-consistency check
	// (ρ₂ = ρ₁² for a single tone) applies.
	Shifts [2]float64
	// RelTolerance is the minimum relative magnitude change beyond
	// which the bin is declared multi-occupied. Single tones change
	// only by interference and noise; two tones beat against each
	// other.
	RelTolerance float64
	// ConsistencyTol is the minimum bound on |ρ₂ − ρ₁²| for a single
	// tone, where ρᵢ = R(shiftᵢ)/R(0). Two tones in a bin violate the
	// quadratic phase relation even when the magnitudes happen to
	// match.
	ConsistencyTol float64
	// KMag and KCons scale the self-calibrated interference floor (see
	// ProbeBank.Occupancy) into the magnitude and consistency gates. The
	// wider of the fixed tolerance and the calibrated gate applies.
	KMag  float64
	KCons float64
}

// DefaultOccupancyParams returns the parameters used by the Caraoke
// counter: quarter-capture windows measured at 3/8 and 3/4 shifts.
func DefaultOccupancyParams() OccupancyParams {
	return OccupancyParams{
		WindowFrac:     0.25,
		Shifts:         [2]float64{0.375, 0.75},
		RelTolerance:   0.2,
		ConsistencyTol: 0.45,
		KMag:           3.5,
		KCons:          5,
	}
}

func (p *OccupancyParams) setDefaults() {
	if p.WindowFrac <= 0 || p.WindowFrac > 1 {
		p.WindowFrac = 0.25
	}
	if p.Shifts[0] <= 0 || p.Shifts[1] <= 0 {
		p.Shifts = [2]float64{0.375, 0.75}
	}
	if p.RelTolerance <= 0 {
		p.RelTolerance = 0.2
	}
	if p.ConsistencyTol <= 0 {
		p.ConsistencyTol = 0.45
	}
	if p.KMag <= 0 {
		p.KMag = 3.5
	}
	if p.KCons <= 0 {
		p.KCons = 5
	}
}

// ClassifyBin applies the time-shift test of §5 (see
// ProbeBank.Occupancy) to the tone at frequency freqHz within the
// capture. It is a thin allocating wrapper over Plan.ClassifyBin, the
// pooled variant per-worker hot paths use.
func ClassifyBin(samples []complex128, sampleRate, freqHz float64, p OccupancyParams) Occupancy {
	var pl Plan
	return pl.ClassifyBin(samples, sampleRate, freqHz, p)
}
